"""Shared fixtures: small named graphs, frozen outputs, seeded corpora."""

import random

import pytest

from sgmyc.exactla import IntMatrix
from sgmyc.core import SignedGraph, canonicalize, generate, switch

# 4-cycle with exactly one negative edge: the smallest unbalanced running example
SQUARE_ONE_NEG = canonicalize(4, [(1, 2, -1), (2, 3, 1), (3, 4, 1), (1, 4, 1)])

# 4-cycle with two negative edges: balanced, switches all-positive
SQUARE_TWO_NEG = canonicalize(4, [(1, 2, -1), (2, 3, -1), (3, 4, 1), (1, 4, 1)])

# balanced triangle with two negative edges; (1, 0, 1) is a proper 3-coloring
TRIANGLE_TWO_NEG = canonicalize(3, [(1, 2, -1), (1, 3, -1), (2, 3, 1)])

# single positive edge and single negative edge
K2_POS = canonicalize(2, [(1, 2, 1)])
K2_NEG = canonicalize(2, [(1, 2, -1)])

# balanced Mycielskian of SQUARE_TWO_NEG, frozen byte for byte
SQUARE_TWO_NEG_BALANCED_MYC_TEXT = (
    "9 16\n"
    "1 2 -1\n"
    "1 4 +1\n"
    "1 6 -1\n"
    "1 8 +1\n"
    "2 3 -1\n"
    "2 5 -1\n"
    "2 7 -1\n"
    "3 4 +1\n"
    "3 6 -1\n"
    "3 8 +1\n"
    "4 5 +1\n"
    "4 7 +1\n"
    "5 9 -1\n"
    "6 9 +1\n"
    "7 9 -1\n"
    "8 9 -1\n"
)
SQUARE_TWO_NEG_BALANCED_MYC_ZETA = (-1, 1, -1, -1, -1, 1, -1, -1, 1)


@pytest.fixture
def square_one_neg():
    return SQUARE_ONE_NEG


@pytest.fixture
def square_two_neg():
    return SQUARE_TWO_NEG


@pytest.fixture
def triangle_two_neg():
    return TRIANGLE_TWO_NEG


def random_graphs(count, min_p, max_p, seed0):
    """Deterministic corpus from the package generator, p cycling over the range."""
    out = []
    span = max_p - min_p + 1
    for i in range(count):
        p = min_p + i % span
        rng = random.Random(10_000 + seed0 + i)
        g = generate(
            "random",
            {
                "order": p,
                "edge_prob": rng.choice((0.3, 0.45, 0.6, 0.8)),
                "neg_prob": rng.choice((0.2, 0.5, 0.8)),
            },
            seed=seed0 + i,
        )
        out.append(g)
    return out


def random_balanced_graphs(count, min_p, max_p, seed0):
    """Balanced by construction: all-positive graph pushed through a random switching."""
    out = []
    for i, g in enumerate(random_graphs(count, min_p, max_p, seed0)):
        positive = canonicalize(g.p, [(u, v, 1) for u, v, _ in g.edges])
        rng = random.Random(20_000 + seed0 + i)
        zeta = tuple(rng.choice((1, -1)) for _ in range(g.p))
        out.append(switch(positive, zeta))
    return out


def all_sign_patterns(base):
    """Every assignment of signs to the underlying edges of ``base``."""
    from itertools import product

    skeleton = [(u, v) for u, v, _ in base.edges]
    for signs in product((1, -1), repeat=len(skeleton)):
        yield canonicalize(
            base.p, [(u, v, s) for (u, v), s in zip(skeleton, signs)]
        )


def cycles_and_paths(cycle_lengths, path_lengths):
    """Skeletons for exhaustive sign-pattern sweeps."""
    shapes = []
    for n in cycle_lengths:
        shapes.append(generate("cycle", {"length": n}))
    for n in path_lengths:
        shapes.append(generate("path", {"length": n}))
    return shapes


def write_graph(tmp_path, g, name="g.txt"):
    from sgmyc.core import dumps

    path = tmp_path / name
    path.write_text(dumps(g))
    return str(path)


def bump_corner(m):
    """A copy of the integer matrix m with 1 added to its top-left entry, no zero stored."""
    rows = list(map(dict, m.nonzeros))
    corner = rows[0].pop(0, 0) + 1
    if corner:
        rows[0][0] = corner
    return IntMatrix(m.rows, m.cols, tuple(rows))
