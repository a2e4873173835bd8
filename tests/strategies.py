"""Hypothesis strategies for small signed graphs."""

from hypothesis import strategies as st

from sgmyc.core import canonicalize, is_connected, switch


@st.composite
def signed_graphs(draw, min_p=1, max_p=8, connected=False):
    p = draw(st.integers(min_value=min_p, max_value=max_p))
    pairs = [(u, v) for u in range(1, p + 1) for v in range(u + 1, p + 1)]
    edges = []
    for u, v in pairs:
        if draw(st.booleans()):
            edges.append((u, v, draw(st.sampled_from((1, -1)))))
    g = canonicalize(p, edges)
    if connected and not is_connected(g):
        # wire a spanning path on top of whatever was drawn
        have = {(u, v) for u, v, _ in g.edges}
        extra = [
            (v, v + 1, draw(st.sampled_from((1, -1))))
            for v in range(1, p)
            if (v, v + 1) not in have
        ]
        g = canonicalize(p, list(g.edges) + extra)
    return g


@st.composite
def switchings(draw, p):
    return tuple(draw(st.sampled_from((1, -1))) for _ in range(p))


@st.composite
def graphs_with_switchings(draw, min_p=1, max_p=8, connected=False):
    g = draw(signed_graphs(min_p=min_p, max_p=max_p, connected=connected))
    return g, draw(switchings(g.p))


@st.composite
def balanced_graphs(draw, min_p=1, max_p=8, connected=True):
    """All-positive graph pushed through a random switching: balanced by construction."""
    g = draw(signed_graphs(min_p=min_p, max_p=max_p, connected=connected))
    positive = canonicalize(g.p, [(u, v, 1) for u, v, _ in g.edges])
    return switch(positive, draw(switchings(g.p)))


@st.composite
def pendant_graphs(draw, max_p=30):
    """A signed graph on up to 8 vertices with pendant paths hung on it and isolated vertices beside it."""
    g = draw(signed_graphs(min_p=0, max_p=8))
    p, edges = g.p, list(g.edges)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        length = draw(st.integers(min_value=0, max_value=min(6, max_p - p)))
        # hung on a vertex drawn so far, or, on no vertex, a path of its own
        end = draw(st.integers(min_value=1, max_value=p)) if p else None
        for v in range(p + 1, p + length + 1):
            if end:
                edges.append((end, v, draw(st.sampled_from((1, -1)))))
            end = v
        p += length
    return canonicalize(p + draw(st.integers(min_value=0, max_value=min(4, max_p - p))), edges)


@st.composite
def graphs_in_parts(draw, max_p=14):
    """A signed graph whose vertices fall in up to four parts, with edges only
    inside a part: isolated vertices and several components are common."""
    p = draw(st.integers(min_value=0, max_value=max_p))
    parts = draw(st.integers(min_value=1, max_value=4))
    part = draw(st.lists(st.integers(min_value=1, max_value=parts), min_size=p, max_size=p))
    edges = []
    for u in range(1, p + 1):
        for v in range(u + 1, p + 1):
            if part[u - 1] == part[v - 1] and draw(st.booleans()):
                edges.append((u, v, draw(st.sampled_from((1, -1)))))
    return canonicalize(p, edges)


@st.composite
def leaf_heavy_symmetric(draw, max_n=12):
    """Rows of a symmetric integer matrix whose graph is mostly leaves.

    The graph is a forest, or a cycle with trees hung on it, and each new
    vertex is often hung on the one before it, so pendant paths form and
    peeling one leaf pair exposes the next.  Off-diagonal entries are
    nonzero integers, |s| = 2 and 3 among them, and about half the
    matrices carry some nonzero diagonal entries.
    """
    n = draw(st.integers(min_value=0, max_value=max_n))
    rows = [[0] * n for _ in range(n)]
    weight = st.sampled_from((1, -1, 1, -1, 2, -2, 3))
    order = draw(st.permutations(range(n)))
    # the first `start` vertices close a cycle, or the first alone roots a tree
    start = draw(st.integers(min_value=3, max_value=n)) if n >= 3 and draw(st.booleans()) else 1
    if start >= 3:
        for i in range(start):
            u, v = order[i], order[(i + 1) % start]
            rows[u][v] = rows[v][u] = draw(weight)
    for i in range(start, n):
        # one vertex in six hangs on nothing: a new root, or an isolated vertex
        if draw(st.integers(min_value=0, max_value=5)):
            u = order[draw(st.one_of(st.just(i - 1), st.integers(min_value=0, max_value=i - 1)))]
            v = order[i]
            rows[u][v] = rows[v][u] = draw(weight)
    if draw(st.booleans()):
        for v in range(n):
            rows[v][v] = draw(st.sampled_from((0, 0, 0, 1, -1, 2)))
    return rows


@st.composite
def sparse_symmetric(draw, max_n=12):
    """Rows of a sparse symmetric integer matrix, weights +-1 to +-3, some on the diagonal.

    At most two entries a row on average, each drawn at a pair of
    vertices that may be one vertex, so most rows start as lone rows,
    leaves or pairs of det -1, while the larger weights and the diagonal
    make pairs of det +1 and other rows that only Bareiss takes.
    """
    n = draw(st.integers(min_value=0, max_value=max_n))
    rows = [[0] * n for _ in range(n)]
    if n:
        vertex = st.integers(min_value=0, max_value=n - 1)
        weight = st.sampled_from((1, -1, 1, -1, 2, -2, 3, -3))
        for u, v, s in draw(st.lists(st.tuples(vertex, vertex, weight), max_size=2 * n)):
            rows[u][v] = rows[v][u] = s
    return rows
