"""The named extremal constructions: pinned small cases, counting identities,
avoidance spot checks and input validation."""

import pytest

from xtrees.constructions import f_n, f_n0, fh_q, fh_r, gstar, pow2
from xtrees.containment import contains
from xtrees.errors import InputError
from xtrees.order import CgGraph, OrderedGraph, mirror
from xtrees.trees import CROSSING_P3_EDGES, derive_obstructions, enumerate_trees
from xtrees.verify import canonical_z_tree
from xtrees.walks import size_bound


class TestPow2:
    def test_small_case_pinned(self):
        # n = 4: lengths 1 and 2 only (4 - 1 = 3 unit edges, 4 - 2 = 2 doubles)
        assert pow2(4).edges == (
            (1, 2),
            (1, 3),
            (2, 3),
            (2, 4),
            (3, 4),
        )

    @pytest.mark.parametrize("n", [2, 3, 8, 17, 33, 64])
    def test_count(self, n):
        want = sum(n - 2**h for h in range(n.bit_length()) if 2**h < n)
        assert len(pow2(n).edges) == want

    def test_avoids_the_crossing_pattern(self):
        p = OrderedGraph(4, CROSSING_P3_EDGES)
        assert not contains(pow2(32), p)

    def test_edge_lengths_are_powers_of_two(self):
        assert {v - u for u, v in pow2(16).edges} == {1, 2, 4, 8}

    def test_needs_two_vertices(self):
        with pytest.raises(InputError):
            pow2(1)


class TestFh:
    def test_first_stages_pinned(self):
        assert fh_q(1).edges == ((1, 2),)
        assert fh_r(1).edges == ((1, 2),)
        assert fh_r(2).edges == ((1, 3), (1, 4), (2, 3))
        assert fh_q(4).edges == (
            (1, 5),
            (2, 5),
            (2, 6),
            (3, 5),
            (3, 7),
            (4, 6),
            (4, 7),
            (4, 8),
        )

    @pytest.mark.parametrize("s", [1, 2, 4, 8, 16, 32])
    def test_count_identity(self, s):
        want = s * (s.bit_length() - 1) // 2 + s
        assert len(fh_q(s).edges) == want
        assert len(fh_r(s).edges) == want

    @pytest.mark.parametrize("s", [1, 2, 4, 8, 16])
    def test_q_is_mirror_symmetric_r_is_not(self, s):
        q = fh_q(s)
        assert mirror(q).edges == q.edges
        if s > 1:
            r = fh_r(s)
            assert mirror(r).edges != r.edges


class TestGstar:
    def test_membership_predicate(self):
        """An edge belongs iff it is short, starts far left, or ends far right."""
        g = gstar(8, 2, 1, 1)
        for u, v in g.edges:
            assert v - u < 2 or u <= 1 or v > 7
        # and the excluded middle really is excluded
        assert (3, 6) not in g.edge_set

    @pytest.mark.parametrize("a,b,c", [(1, 0, 0), (1, 1, 1), (2, 0, 3), (3, 2, 0)])
    def test_count_formula(self, a, b, c):
        k = a + b + c
        for n in (k + 1, k + 3, 15):
            g = gstar(n, a, b, c)
            assert len(g.edges) == (k - 1) * n - k * (k - 1) // 2


class TestFn:
    def test_f16_matchings_pinned(self):
        g = f_n(16)
        by_color = {}
        for (u, v), c in zip(g.edges, g.colors):
            by_color.setdefault(c, set()).add((u, v))
        assert by_color[1] == {(1, 2), (3, 4), (5, 6), (7, 8)}
        assert by_color[2] == {(1, 4), (3, 6), (5, 8), (7, 10)}
        assert by_color[3] == {(1, 8), (3, 10), (5, 12), (7, 14)}

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_count_and_parity(self, n):
        g = f_n(n)
        kappa = n.bit_length() - 1
        assert len(g.edges) == (kappa - 1) * n // 4
        assert all(u % 2 == 1 and v % 2 == 0 for u, v in g.edges)

    def test_colors_form_matchings(self):
        g = f_n(32)
        for c in set(g.colors):
            seen = set()
            for (u, v), col in zip(g.edges, g.colors):
                if col == c:
                    assert u not in seen and v not in seen
                    seen.update((u, v))


class TestFn0:
    def test_small_case(self):
        assert f_n0(4).edges == ((1, 3), (1, 4), (2, 3), (2, 4))

    def test_avoids_the_consecutive_path(self):
        ell = CgGraph(4, [(1, 2), (2, 3), (3, 4)])
        assert not contains(f_n0(32), ell)


# each entry point that takes integer parameters, with integer arguments it
# accepts, then any fixed arguments
INTEGER_ENTRY_POINTS = [
    (pow2, (8,)),
    (fh_q, (4,)),
    (fh_r, (4,)),
    (gstar, (8, 1, 1, 1)),
    (f_n, (16,)),
    (f_n0, (8,)),
    (enumerate_trees, (2,), "linear"),
    (derive_obstructions, (4,)),
    (size_bound, (10, 2)),
    (canonical_z_tree, (1, 1, 1)),
]


@pytest.mark.parametrize(
    "fn, args",
    [
        pytest.param(fn, args[:i] + (bad,) + args[i + 1:] + tuple(fixed),
                     id=f"{fn.__name__}-arg{i}-{bad!r}")
        for fn, args, *fixed in INTEGER_ENTRY_POINTS
        for i in range(len(args))
        for bad in (True, float(args[i]))
    ],
)
def test_non_integer_scalar_rejected(fn, args):
    """A bool or a float where an integer belongs is rejected, never coerced."""
    with pytest.raises(InputError, match="must be an integer"):
        fn(*args)


@pytest.mark.parametrize("counts", [(0, 1, 1), (1, -1, 0), (1, 0, -1)])
def test_canonical_z_tree_refuses_bad_fan_counts(counts):
    with pytest.raises(InputError, match="fan counts need"):
        canonical_z_tree(*counts)
