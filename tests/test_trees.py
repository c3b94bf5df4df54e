"""Tree combinatorics: counting sequences, the exhaustive enumerator, slots.

The enumerator is cross-checked against a deliberately different brute-force
construction (multisets of smaller trees, no size partitioning) so the two
can only agree if both are right.
"""

import hashlib
import itertools

import pytest

from fractree import trees
from fractree.stats import _element
from fractree.symbols import INT, _make_node, iter_vertices, one, type_of
from fractree.trees import (
    PruneReport,
    bare_level_size,
    count_bounded,
    count_bounded_by_leaves,
    count_regular,
    enumerate_bare,
    verify_prune_structure,
    wedderburn,
)

# First 19 values of the leaf-indexed pairing sequence, starting at w_0 = 0.
WEDDERBURN_HEAD = (
    0, 1, 1, 1, 2, 3, 6, 11, 23, 46, 98, 207, 451, 983,
    2179, 4850, 10905, 24631, 56011,
)


class TestWedderburn:
    def test_frozen_head(self):
        assert tuple(wedderburn(n) for n in range(19)) == WEDDERBURN_HEAD

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            wedderburn(-1)

    def test_pairing_recurrence_spot(self):
        # w_10 pairs leaves 1..9 with 9..1 plus the equal-split multiset
        w = [wedderburn(i) for i in range(11)]
        assert w[10] == sum(w[i] * w[10 - i] for i in range(1, 5)) + w[5] * (w[5] + 1) // 2


class TestRegularCounts:
    def test_binary_matches_wedderburn(self):
        for m in range(21):
            assert count_regular(2, 2 * m + 1) == wedderburn(m + 1)

    def test_wrong_residue_is_zero(self):
        assert all(count_regular(2, 2 * m) == 0 for m in range(1, 12))
        assert all(count_regular(3, n) == 0 for n in range(2, 20) if (n - 1) % 3)

    def test_single_vertex(self):
        assert count_regular(5, 1) == 1
        assert count_bounded(5, 1) == 1

    def test_ternary_against_enumeration(self):
        for q in range(0, 10, 3):
            regular = [
                t
                for t in enumerate_bare(3, q)
                if all(len(s.children) in (0, 3) for _, _, _, s in iter_vertices(t))
            ]
            assert count_regular(3, q + 1) == len(regular)

    def test_validation(self):
        with pytest.raises(ValueError):
            count_regular(0, 1)
        with pytest.raises(ValueError):
            count_regular(2, 0)
        with pytest.raises(ValueError):
            count_bounded(2, -1)
        with pytest.raises(ValueError):
            count_bounded(0, 1)
        with pytest.raises(ValueError):
            count_bounded_by_leaves(0, 1, 1)


def _brute_bounded(N: int, qmax: int) -> dict[int, set]:
    """All bounded-arity bare trees with up to qmax edges, the slow way."""
    by_edges: dict[int, set] = {0: {one()}}
    for m in range(1, qmax + 1):
        pool = [t for e in range(m) for t in sorted(by_edges[e])]
        found = set()
        for c in range(1, N + 1):
            for kids in itertools.combinations_with_replacement(pool, c):
                if sum(k.q + 1 for k in kids) == m:
                    found.add(_make_node((), tuple((INT, k) for k in kids)))
        by_edges[m] = found
    return by_edges


class TestBoundedCounts:
    def test_binary_equals_shifted_wedderburn(self):
        # at most two children per vertex: same sequence, shifted one step
        for n in range(1, 19):
            assert count_bounded(2, n) == wedderburn(n + 1)

    def test_level_size_agrees(self):
        for N in (2, 3):
            for q in range(11):
                assert bare_level_size(N, q) == count_bounded(N, q + 1)

    def test_leaf_refinement_sums(self):
        for N in (2, 3):
            for n in range(1, 13):
                total = sum(count_bounded_by_leaves(N, n, L) for L in range(n + 1))
                assert total == count_bounded(N, n)

    @pytest.mark.parametrize("m", [16, 20, 100, 200])
    def test_leaf_refinement_deep_binary_from_cold_cache(self, m):
        # 2m+1 vertices and m+1 leaves force every internal vertex to have two
        # children, so deficit 0; counted from a cold table, which is filled
        # bottom-up without recursion
        trees.clear_bare_cache()
        assert count_bounded_by_leaves(2, 2 * m + 1, m + 1) == wedderburn(m + 1)

    @pytest.mark.parametrize(
        "count, N, n", [(count_bounded, 2, 199), (count_regular, 2, 335), (count_bounded, 2, 400)]
    )
    def test_counts_from_cold_cache(self, count, N, n):
        # counted from a cold table, which is filled bottom-up without
        # recursion, so nothing grows with n but the table
        trees.clear_bare_cache()
        got = count(N, n)
        # binary: at most two children per vertex is the shifted pairing
        # sequence, exactly two is the pairing sequence by leaves
        assert got == wedderburn(n + 1 if count is count_bounded else (n + 1) // 2)

    def test_leaf_table_pinned(self):
        # SHA-256 of the lines "N n leaves count" for N 1..5, n <= 25 and
        # every leaf count, as counted by the memoised recursion the
        # bottom-up table replaced
        trees.clear_bare_cache()
        rows = [
            f"{N} {n} {L} {count_bounded_by_leaves(N, n, L)}"
            for N in range(1, 6)
            for n in range(1, 26)
            for L in range(n + 2)
        ]
        assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == (
            "723682ffeb8d834976763ae453ae8e4fc855e9031033c76732beceffe46f5be3"
        )

    def test_count_table_pinned(self):
        # SHA-256 of the lines "N n bounded regular" for N 1..6 and n <= 150,
        # as counted by the memoised recursion the bottom-up table replaced
        rows = [
            f"{N} {n} {count_bounded(N, n)} {count_regular(N, n)}"
            for N in range(1, 7)
            for n in range(1, 151)
        ]
        assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == (
            "ce1e4c0f0ff8c36827b5caad63ba8691823a036e8f0010ef43834006a4d12d0a"
        )

    def test_leaf_refinement_edges(self):
        assert count_bounded_by_leaves(2, 1, 1) == 1
        assert count_bounded_by_leaves(2, 1, 2) == 0
        assert count_bounded_by_leaves(2, 4, 2) == 2
        assert count_bounded_by_leaves(2, 10, 6) == 0  # too many leaves to fit

    def test_against_brute_force(self):
        for N, qmax in ((2, 9), (3, 7)):
            brute = _brute_bounded(N, qmax)
            for q in range(qmax + 1):
                assert count_bounded(N, q + 1) == len(brute[q])


class TestEnumeration:
    def test_matches_brute_force_sets(self):
        for N, qmax in ((2, 8), (3, 6)):
            brute = _brute_bounded(N, qmax)
            for q in range(qmax + 1):
                got = list(enumerate_bare(N, q))
                assert len(got) == len(set(got)) == len(brute[q])
                assert set(got) == brute[q]

    def test_canonical_order_and_shape(self):
        seen = []
        for t in enumerate_bare(2, 6):
            assert type_of(t) == (0, 6, ())
            assert _element(t, 2, {})[0] <= 6  # height
            seen.append(t.enc)
        assert seen == sorted(seen)

    def test_leaf_filter(self):
        for q in range(9):
            for L in range(1, q + 2):
                got = list(enumerate_bare(2, q, leaves=L))
                assert len(got) == count_bounded_by_leaves(2, q + 1, L)
                for t in got:
                    n_leaves = sum(
                        1 for _, _, _, s in iter_vertices(t) if not s.children
                    )
                    assert n_leaves == L

    def test_validation(self):
        with pytest.raises(ValueError):
            list(enumerate_bare(0, 3))
        with pytest.raises(ValueError):
            list(enumerate_bare(2, -1))


class TestPruneStructure:
    def test_single_vertex_has_no_slots(self):
        rep = verify_prune_structure(one(), 3)
        assert rep == PruneReport(r=0, witnesses=())

    def test_deficit_identity(self):
        # r = N*(q+1-L) - q for every bare tree
        for N in (2, 3):
            for q in range(8):
                for t in enumerate_bare(N, q):
                    L = sum(1 for _, _, _, s in iter_vertices(t) if not s.children)
                    rep = verify_prune_structure(t, N)
                    assert rep.r == N * (q + 1 - L) - q
                    assert rep.r == sum(d for _, d in rep.witnesses)
                    assert all(d > 0 for _, d in rep.witnesses)

    def test_regular_trees_have_no_witnesses(self):
        for q in range(0, 11, 2):
            for t in enumerate_bare(2, q):
                if all(len(s.children) in (0, 2) for _, _, _, s in iter_vertices(t)):
                    assert verify_prune_structure(t, 2).witnesses == ()

    def test_overfull_raises(self):
        spider = _make_node((), tuple((INT, one()) for _ in range(3)))
        with pytest.raises(ValueError):
            verify_prune_structure(spider, 2)

    def test_rejects_decorated_input(self):
        from fractree.symbols import parse_symbol

        with pytest.raises(ValueError):
            verify_prune_structure(parse_symbol("Xi"), 2)
        with pytest.raises(ValueError):
            verify_prune_structure(parse_symbol("X^(1)"), 2)
