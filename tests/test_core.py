"""Data model: canonical form, switching, degrees, generators, text format."""

import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import K2_NEG, SQUARE_ONE_NEG
from strategies import graphs_with_switchings, signed_graphs
from sgmyc import core
from sgmyc.core import (
    SignedGraph,
    canonicalize,
    degrees,
    dumps,
    generate,
    is_all_negative,
    is_all_positive,
    is_connected,
    is_triangle_free,
    load,
    loads,
    neighbours,
    switch,
    validate_switching,
)
from sgmyc.errors import InputError


class TestCanonicalize:
    def test_sorts_and_orients(self):
        g = canonicalize(4, [(3, 2, 1), (4, 1, 1), (2, 1, -1), (4, 3, 1)])
        assert g.edges == ((1, 2, -1), (1, 4, 1), (2, 3, 1), (3, 4, 1))
        assert g == SQUARE_ONE_NEG

    def test_counts(self):
        assert SQUARE_ONE_NEG.p == 4
        assert SQUARE_ONE_NEG.q == 4
        assert SQUARE_ONE_NEG.positive_count == 3
        assert SQUARE_ONE_NEG.negative_count == 1

    def test_sign_lookup_both_orders(self):
        nbrs = neighbours(SQUARE_ONE_NEG)
        assert (1, -1) in nbrs[0]
        assert (0, -1) in nbrs[1]
        assert 2 not in [v for v, _ in nbrs[0]]
        assert (2, 1) in nbrs[3]
        assert 3 not in [v for v, _ in nbrs[1]]

    def test_empty_graph(self):
        g = canonicalize(0, [])
        assert g.p == 0 and g.q == 0

    def test_loop_rejected(self):
        with pytest.raises(InputError, match="loop at vertex 2"):
            canonicalize(3, [(2, 2, 1)])

    def test_duplicate_rejected_either_orientation(self):
        with pytest.raises(InputError, match=r"edge \(1,2\) given twice"):
            canonicalize(3, [(1, 2, 1), (2, 1, -1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError, match=r"edge \(1,4\) outside 1\.\.3"):
            canonicalize(3, [(1, 4, 1)])
        with pytest.raises(InputError, match=r"edge \(0,2\) outside 1\.\.3"):
            canonicalize(3, [(0, 2, 1)])

    def test_bad_sign_rejected(self):
        with pytest.raises(InputError, match=r"edge \(1,2\) has sign 2, expected \+1 or -1"):
            canonicalize(3, [(1, 2, 2)])

    # every rejection is an InputError, told apart by its message; case only
    # labels the test ids, which keep the names these tests are tracked under
    @pytest.mark.parametrize(
        "p, edges, case, message",
        [
            (2.0, [], "InvalidParamsError", "vertex count must be an int, got 2.0"),
            (True, [], "InvalidParamsError", "vertex count must be an int, got True"),
            (2, [(True, 2, 1)], "InvalidParamsError", "edge (True, 2, 1) must hold three ints"),
            (2, [(1, 2.0, 1)], "InvalidParamsError", "edge (1, 2.0, 1) must hold three ints"),
            (2, [(1, 2, 1.0)], "InvalidParamsError", "edge (1, 2, 1.0) must hold three ints"),
            (2, [(1, 2, True)], "InvalidParamsError", "edge (1, 2, True) must hold three ints"),
            # within one edge the type comes first; across edges input order rules
            (3, [(1, 2, 1), (2, 2, 1.0)], "InvalidParamsError", "edge (2, 2, 1.0) must hold three ints"),
            (3, [(2, 2, 1), (1, 2, 1.0)], "LoopEdgeError", "loop at vertex 2"),
        ],
    )
    def test_non_int_rejected(self, p, edges, case, message):
        with pytest.raises(InputError) as exc:
            canonicalize(p, edges)
        assert str(exc.value) == message

    @given(signed_graphs(max_p=6), st.randoms(use_true_random=False))
    def test_input_order_irrelevant(self, g, rng):
        shuffled = list(g.edges)
        rng.shuffle(shuffled)
        flipped = [(v, u, s) for u, v, s in shuffled]
        assert canonicalize(g.p, flipped) == g


class TestErrorPrecedence:
    """The first bad edge in input order is reported; within one edge a loop
    wins over a bad endpoint, a bad endpoint over a bad sign, a bad sign over
    a duplicate."""

    @pytest.mark.parametrize(
        "edges, case, message",
        [
            ([(9, 9, 5)], "LoopEdgeError", "loop at vertex 9"),
            ([(2, 2, 5)], "LoopEdgeError", "loop at vertex 2"),
            ([(9, 1, 5)], "VertexOutOfRangeError", "edge (9,1) outside 1..3"),
            ([(1, 2, 1), (2, 1, 0)], "InvalidParamsError", "edge (2,1) has sign 0, expected +1 or -1"),
            ([(1, 2, 1), (3, 3, 1), (1, 9, 1)], "LoopEdgeError", "loop at vertex 3"),
            ([(1, 2, 1), (0, 2, 1), (3, 3, 1)], "VertexOutOfRangeError", "edge (0,2) outside 1..3"),
            ([(2, 1, 1), (1, 2, -1), (3, 3, 1)], "DuplicateEdgeError", "edge (1,2) given twice"),
            ([(3, 2, 1), (2, 3, 1), (1, 2, 7)], "DuplicateEdgeError", "edge (2,3) given twice"),
            # an edge that does not unpack into three items
            ([(1, 2)], "InvalidParamsError", "edge (1, 2) must hold three ints"),
            ([(1, 2, 1, 0)], "InvalidParamsError", "edge (1, 2, 1, 0) must hold three ints"),
            ([5], "InvalidParamsError", "edge 5 must hold three ints"),
            ([(3, 3, 1), (1, 2)], "LoopEdgeError", "loop at vertex 3"),
            ([(1, 3, 1), (1, 2), (3, 3, 1)], "InvalidParamsError", "edge (1, 2) must hold three ints"),
        ],
    )
    def test_canonicalize(self, edges, case, message):
        with pytest.raises(InputError) as exc:
            canonicalize(3, edges)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, case, message",
        [
            # every line is read as text before any edge is checked
            ("3 2\n1 1 +1\n1 2 x\n", "EdgeListFormatError", "line 3: edge lines must hold integers"),
            ("3 2\n1 1 +1\n1 2 +2\n", "EdgeListFormatError", "line 3: sign must be +1 or -1, got +2"),
            ("3 2\n1 1 +1\n1 2\n", "EdgeListFormatError", "line 3: edge lines must be 'u v s'"),
            ("3 3\n1 1 +1\n1 2 x\n", "EdgeListFormatError", "header promises 3 edges, found 2"),
            ("3 3\n1 2 +1\n2 1 -1\n3 3 +1\n", "DuplicateEdgeError", "edge (1,2) given twice"),
            ("3 2\n3 3 +1\n2 1 -1\n", "LoopEdgeError", "loop at vertex 3"),
            ("3 2\n# c\n1 4 -1\n3 3 +1\n", "VertexOutOfRangeError", "edge (1,4) outside 1..3"),
            # canonical-looking text that the bulk reader hands to the line parser
            ("3 2\n1 2 +1\n1 2 -1\n", "DuplicateEdgeError", "edge (1,2) given twice"),
            ("3 1\n1 4 +1\n", "VertexOutOfRangeError", "edge (1,4) outside 1..3"),
            ("3 1\n0 2 +1\n", "VertexOutOfRangeError", "edge (0,2) outside 1..3"),
        ],
    )
    def test_loads(self, text, case, message):
        with pytest.raises(InputError) as exc:
            loads(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, p, edges",
        [
            ("3 2\n2 3 +1\n1 2 +1\n", 3, ((1, 2, 1), (2, 3, 1))),
            ("3 1\n2 1 -1\n", 3, ((1, 2, -1),)),
            ("3 0\n", 3, ()),
            ("0 0\n", 0, ()),
        ],
    )
    def test_loads_canonicalizes(self, text, p, edges):
        assert loads(text) == SignedGraph(p, edges)


class TestSwitching:
    def test_example(self):
        got = switch(SQUARE_ONE_NEG, (-1, 1, 1, 1))
        assert got.edges == ((1, 2, 1), (1, 4, -1), (2, 3, 1), (3, 4, 1))

    def test_identity(self):
        assert switch(SQUARE_ONE_NEG, (1, 1, 1, 1)) == SQUARE_ONE_NEG

    def test_length_checked(self):
        with pytest.raises(InputError, match="switching has length 3, graph has 4 vertices"):
            switch(SQUARE_ONE_NEG, (1, 1, 1))

    def test_entries_checked(self):
        with pytest.raises(InputError, match="switching entry for vertex 2 is 0, expected"):
            switch(SQUARE_ONE_NEG, (1, 0, 1, 1))
        with pytest.raises(InputError, match="switching entry for vertex 2 is 2, expected"):
            validate_switching(SQUARE_ONE_NEG, (1, 2, 1, 1))
        # a float or bool equal to a sign would otherwise land in an edge
        for z in (1.0, -1.0, True):
            with pytest.raises(InputError) as exc:
                switch(SQUARE_ONE_NEG, (z, -1, 1, 1))
            assert str(exc.value) == f"switching entry for vertex 1 is {z}, expected +1 or -1"

    @given(graphs_with_switchings(max_p=7))
    def test_involution(self, gz):
        g, zeta = gz
        assert switch(switch(g, zeta), zeta) == g

    @given(graphs_with_switchings(max_p=7), st.data())
    def test_composition_is_pointwise_product(self, gz, data):
        g, z1 = gz
        z2 = tuple(data.draw(st.sampled_from((1, -1))) for _ in range(g.p))
        prod = tuple(a * b for a, b in zip(z1, z2))
        assert switch(switch(g, z1), z2) == switch(g, prod)

    @given(graphs_with_switchings(max_p=7))
    def test_negated_switching_acts_identically(self, gz):
        g, zeta = gz
        assert switch(g, tuple(-z for z in zeta)) == switch(g, zeta)


class TestDegrees:
    def test_rows(self):
        assert degrees(SQUARE_ONE_NEG) == [(2, 1, 1, 0), (2, 1, 1, 0), (2, 2, 0, 2), (2, 2, 0, 2)]

    def test_isolated_vertex(self):
        assert degrees(canonicalize(3, [(1, 2, -1)]))[2] == (0, 0, 0, 0)

    @given(signed_graphs(max_p=8))
    def test_identities(self, g):
        rows = degrees(g)
        assert len(rows) == g.p
        assert sum(d for d, _, _, _ in rows) == 2 * g.q
        assert sum(dp for _, dp, _, _ in rows) == 2 * g.positive_count
        assert sum(dn for _, _, dn, _ in rows) == 2 * g.negative_count
        for d, dp, dn, net in rows:
            assert d == dp + dn
            assert net == dp - dn

    @given(signed_graphs(max_p=7))
    def test_neighbour_lists_agree(self, g):
        assert [len(row) for row in neighbours(g)] == [d for d, _, _, _ in degrees(g)]


class TestNeighbours:
    @given(signed_graphs(max_p=8))
    def test_each_list_ascends_and_each_edge_sits_at_both_ends(self, g):
        # mycielskian._build emits M without sorting on this order
        nbrs = neighbours(g)
        assert len(nbrs) == g.p
        for row in nbrs:
            assert all(a < b for (a, _), (b, _) in zip(row, row[1:]))
        for u, v, s in g.edges:
            assert (v - 1, s) in nbrs[u - 1]
            assert (u - 1, s) in nbrs[v - 1]
        assert sum(map(len, nbrs)) == 2 * g.q

    def test_a_vertex_count_too_large_to_hold_fails_before_allocating(self):
        # the lists are sized by multiplication, which refuses the count at once
        with pytest.raises(OverflowError):
            neighbours(SignedGraph(2**63, ()))


class TestPredicates:
    def test_all_positive_negative(self):
        assert is_all_positive(canonicalize(2, [(1, 2, 1)]))
        assert not is_all_positive(K2_NEG)
        assert is_all_negative(K2_NEG)
        # vacuous on the edgeless graph
        assert is_all_positive(canonicalize(3, []))
        assert is_all_negative(canonicalize(3, []))

    def test_connectivity(self):
        assert is_connected(SQUARE_ONE_NEG)
        assert not is_connected(canonicalize(4, [(1, 2, 1), (3, 4, 1)]))
        assert is_connected(canonicalize(1, []))
        assert not is_connected(canonicalize(2, []))

    def test_triangle_free(self):
        assert is_triangle_free(SQUARE_ONE_NEG)
        assert not is_triangle_free(canonicalize(3, [(1, 2, 1), (1, 3, 1), (2, 3, -1)]))

    @settings(max_examples=200)
    @given(signed_graphs(min_p=0, max_p=8), st.data())
    def test_triangle_free_matches_every_triple(self, g, data):
        # at most p of the edges too, so that triangle-free graphs are common
        few = data.draw(st.lists(st.sampled_from(g.edges), max_size=g.p, unique=True)) if g.edges else []
        for h in (g, canonicalize(g.p, few)):
            assert is_triangle_free(h) == oracles.is_triangle_free(h)


class TestGenerate:
    def test_cycle_pattern(self):
        g = generate("cycle", {"length": 4, "pattern": "-+++"})
        assert g == SQUARE_ONE_NEG

    def test_path(self):
        g = generate("path", {"length": 3, "pattern": "-+"})
        assert g.edges == ((1, 2, -1), (2, 3, 1))
        assert generate("path", {"length": 1}).q == 0

    def test_complete_all_negative(self):
        g = generate("complete", {"order": 4})
        assert g.q == 6 and is_all_negative(g)

    def test_random_is_seed_deterministic(self):
        a = generate("random", {"order": 7, "edge_prob": 0.4}, seed=11)
        b = generate("random", {"order": 7, "edge_prob": 0.4}, seed=11)
        c = generate("random", {"order": 7, "edge_prob": 0.4}, seed=12)
        assert a == b
        assert a != c
        assert is_connected(a)

    def test_random_default_seed_is_zero(self):
        assert generate("random", {"order": 6}) == generate("random", {"order": 6}, seed=0)

    def test_bad_params(self):
        with pytest.raises(InputError, match="cycle length must be >= 3"):
            generate("cycle", {"length": 2})
        with pytest.raises(InputError, match="path length must be >= 1"):
            generate("path", {"length": 0})
        with pytest.raises(InputError, match="cycle needs 3 pattern signs, got 2"):
            generate("cycle", {"length": 3, "pattern": "+-"})
        with pytest.raises(InputError, match="pattern character 'x', expected"):
            generate("cycle", {"length": 3, "pattern": "+x-"})
        with pytest.raises(InputError, match=r"probabilities must lie in \[0, 1\]"):
            generate("random", {"order": 3, "edge_prob": 1.5})
        with pytest.raises(InputError, match=r"unknown parameters \['bogus'\]"):
            generate("random", {"order": 3, "bogus": 1})
        with pytest.raises(InputError, match="unknown generator kind 'nonesuch'"):
            generate("nonesuch", {})

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("path", {"length": "x"}, "path length must be an integer, got 'x'"),
            ("path", {"length": 3.7}, "path length must be an integer, got 3.7"),
            ("cycle", {"length": 4.0}, "cycle length must be an integer, got 4.0"),
            ("complete", {"order": True}, "complete order must be an integer, got True"),
            ("random", {"order": "4"}, "random order must be an integer, got '4'"),
            ("random", {"order": 4, "edge_prob": "x"}, "edge_prob must be a real number, got 'x'"),
            ("random", {"order": 4, "neg_prob": None}, "neg_prob must be a real number, got None"),
            ("random", {"order": 4, "edge_prob": True}, "edge_prob must be a real number, got True"),
        ],
    )
    def test_params_of_the_wrong_type_rejected(self, kind, params, message):
        # never converted: 3.7 would build a 3-vertex path, True would build K1
        with pytest.raises(InputError, match=re.escape(message) + "$"):
            generate(kind, params)

    @pytest.mark.parametrize("seed", [[1], {}, "7", b"x", 2.5, True], ids=repr)
    def test_seed_of_the_wrong_type_rejected(self, seed):
        # [1] and {} reached random.Random; "7", b"x", 2.5 and True seeded it
        with pytest.raises(InputError) as exc:
            generate("random", {"order": 4}, seed=seed)
        assert str(exc.value) == f"seed must be an integer, got {seed!r}"

    def test_an_int_probability_is_a_real_number(self):
        g = generate("random", {"order": 5, "edge_prob": 1, "neg_prob": 0})
        assert g.q == 10 and is_all_positive(g)
        assert g == generate("random", {"order": 5, "edge_prob": 1.0, "neg_prob": 0.0})

    def test_random_with_no_edges_refuses_before_a_draw(self, monkeypatch):
        # no graph on two or more vertices is connected without an edge, so
        # order 2,000 is refused at once, not after 1,000 draws of 2e6 pairs
        def draw(*args):
            raise AssertionError("a draw was made")

        monkeypatch.setattr(random, "Random", draw)
        message = "could not draw a connected graph on 2000 vertices with edge_prob=0.0"
        with pytest.raises(InputError, match=re.escape(message) + "$"):
            generate("random", {"order": 2000, "edge_prob": 0})
        monkeypatch.undo()
        assert generate("random", {"order": 1, "edge_prob": 0}) == canonicalize(1, [])

    @settings(max_examples=25)
    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=50))
    def test_random_always_connected(self, p, seed):
        g = generate("random", {"order": p, "edge_prob": 0.5}, seed=seed)
        assert g.p == p and is_connected(g)


class TestTextFormat:
    def test_dumps_bytes(self):
        assert dumps(K2_NEG) == "2 1\n1 2 -1\n"
        assert dumps(SQUARE_ONE_NEG) == "4 4\n1 2 -1\n1 4 +1\n2 3 +1\n3 4 +1\n"

    def test_loads_skips_comments_and_blanks(self):
        text = "# a graph\n\n2 1\n# edge below\n1 2 -1\n"
        assert loads(text) == K2_NEG

    def test_load_file_roundtrip(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(dumps(SQUARE_ONE_NEG))
        assert load(str(path)) == SQUARE_ONE_NEG

    def test_malformed_header(self):
        with pytest.raises(InputError, match="line 1: header must be 'p q'"):
            loads("2\n")
        with pytest.raises(InputError, match="line 1: header must hold two integers"):
            loads("a b\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(InputError, match="header promises 2 edges, found 1"):
            loads("2 2\n1 2 -1\n")

    def test_malformed_edge_line(self):
        with pytest.raises(InputError, match="line 2: edge lines must be 'u v s'"):
            loads("2 1\n1 2\n")
        with pytest.raises(InputError, match="line 2: edge lines must hold integers"):
            loads("2 1\n1 2 minus\n")

    def test_bad_sign_value(self):
        with pytest.raises(InputError, match=r"line 2: sign must be \+1 or -1, got 3"):
            loads("2 1\n1 2 3\n")

    @given(signed_graphs(max_p=8))
    def test_roundtrip(self, g):
        assert loads(dumps(g)) == g

    def test_random_corpus_roundtrip(self):
        rng = random.Random(5)
        for _ in range(20):
            p = rng.randint(1, 10)
            g = generate("random", {"order": p}, seed=rng.randint(0, 999))
            assert loads(dumps(g)) == g

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="int() has no digit limit")
    def test_numbers_past_the_digit_limit(self):
        # canonical in form, so the bulk reader sees them first
        huge = "9" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(InputError, match="^line 1: header must hold two integers$"):
            loads(f"{huge} 0\n")
        with pytest.raises(InputError, match="^line 2: edge lines must hold integers$"):
            loads(f"3 1\n1 {huge} +1\n")

    def test_canonical_text_skips_the_line_parser(self, monkeypatch):
        g = generate("random", {"order": 40, "edge_prob": 0.4}, seed=3)
        assert g.q > 250
        text = dumps(g)

        class Reached(Exception):
            pass

        def refuse(p, edges):
            raise Reached

        # every edge list that the line parser accepts ends in canonicalize
        monkeypatch.setattr(core, "canonicalize", refuse)
        assert loads(text) == g
        header, first, second, rest = text.split("\n", 3)
        for irregular in ("# c\n" + text, "\n".join([header, second, first, rest])):
            with pytest.raises(Reached):
                loads(irregular)

    @settings(max_examples=300)
    @given(signed_graphs(max_p=12), st.data())
    def test_bulk_and_line_parsers_agree(self, g, data):
        text = dumps(g)
        assert core._loads_canonical(text) == g
        for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
            text = data.draw(mutated(text, g.p))

        def outcome(parse):
            try:
                return parse(text)
            except InputError as exc:
                return str(exc)

        assert outcome(loads) == outcome(core._loads_lines)


TOKEN_REWRITES = ["+3", "01", "1_0", "\u0663", "1", "+01", "0", "-1", "+1", "1 2"]


@st.composite
def mutated(draw, text, p):
    """Text one edit away from the given edge-list text.

    The edits move, repeat, drop or flip whole lines, move u to 0 or v
    past p, drop the final newline, insert a character or a line the
    format allows only outside canonical form, or rewrite one number: as
    a token int() still reads, as a sign the line parser refuses, or as
    another vertex.
    """
    lines = text.splitlines(keepends=True)
    kind = draw(st.sampled_from(["swap", "repeat", "drop", "flip", "bump", "chop", "insert", "token"]))
    if kind in ("swap", "repeat", "drop", "flip", "bump") and lines:
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        j = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        if kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "repeat":
            lines.insert(j, lines[i])
        elif kind == "drop":
            del lines[i]
        else:
            parts = lines[i].split(" ")
            if len(parts) == 3 and kind == "flip":
                parts[:2] = parts[1], parts[0]
            elif len(parts) == 3:
                k = draw(st.sampled_from([0, 1]))
                parts[k] = ["0", str(p + 1)][k]
            lines[i] = " ".join(parts)
        return "".join(lines)
    if kind == "chop":
        return text[:-1] if text.endswith("\n") else text
    if kind == "insert":
        at = draw(st.integers(min_value=0, max_value=len(text)))
        piece = draw(st.sampled_from(["\r", "\t", " ", "\n", "# c\n", "\r\n"]))
        return text[:at] + piece + text[at:]
    tokens = list(re.finditer(r"[+-]?[0-9]+", text))
    if not tokens:
        return text
    m = draw(st.sampled_from(tokens))
    new = draw(st.sampled_from(TOKEN_REWRITES + [str(p + 1), str(p)]))
    return text[: m.start()] + new + text[m.end():]
