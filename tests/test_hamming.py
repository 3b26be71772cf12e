import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustness_envelope import exactmath
from robustness_envelope import hamming as hm
from robustness_envelope.errors import NotInterestingSubset, SpaceTooLarge
from robustness_envelope.image_space import (
    SpaceParams,
    image_from_rank,
    norm_distance,
)
import test_exactmath

G32 = hm.GraphParams(3, 2)
G42 = hm.GraphParams(4, 2)
G23 = hm.GraphParams(2, 3)


def subset(graph, *vertices):
    return hm.HammingSubset.from_members(graph, vertices)


class TestGraphParams:
    def test_words(self):
        # first coordinate most significant, as in image rank order
        assert G23.word_of(5) == (1, 2)
        assert G23.vertex_of((1, 2)) == 5

    def test_distance(self):
        assert G32.distance(0b000, 0b101) == 2
        assert G23.distance(0, 8) == 2  # words (0,0) vs (2,2)

    def test_rejects_non_integer_fields(self):
        # GraphParams(2.5, 2) had vertex_count 5.66
        for dims, alphabet, name in ((2.5, 2, "dims"), (2, 2.0, "alphabet")):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                hm.GraphParams(dims, alphabet)
        assert type(hm.GraphParams(np.int64(2), 3).vertex_count) is int

    def test_materialization_cap(self):
        big = hm.GraphParams(27, 2)  # 2^27 vertices
        with pytest.raises(SpaceTooLarge):
            hm.HammingSubset.empty(big)


class TestExpansion:
    def test_closed_neighborhood_of_point(self):
        assert sorted(hm.expand(subset(G32, 0)).members()) == [0, 1, 2, 4]

    def test_empty_and_full_fixed_points(self):
        assert hm.expand(hm.HammingSubset.empty(G32)).size == 0
        assert hm.expand(hm.HammingSubset.full(G32)).size == 8

    def test_distance_two_ball(self):
        assert hm.expand_k(subset(G32, 0), 2).size == 7

    def test_k0_identity(self):
        s = subset(G42, 1, 5, 9)
        assert hm.expand_k(s, 0) == s

    def test_diameter_saturates(self):
        assert hm.expand_k(subset(G42, 3), 4) == hm.HammingSubset.full(G42)

    @given(st.integers(1, 2 ** 16 - 1))
    @settings(max_examples=80, deadline=None)
    def test_fast_equals_slow(self, bits):
        s = hm.HammingSubset(G42, bits)
        assert hm.expand(s) == hm.expand_by_neighbors(s)

    @given(st.integers(0, 2 ** 9 - 1), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_composition(self, bits, a, b):
        s = hm.HammingSubset(G23, bits)
        assert hm.expand_k(s, a + b) == hm.expand_k(hm.expand_k(s, a), b)

    @given(st.integers(0, 2 ** 16 - 1), st.integers(0, 2 ** 16 - 1))
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_extensive(self, x, y):
        s = hm.HammingSubset(G42, x & y)
        t = hm.HammingSubset(G42, x | y)
        assert s.issubset(hm.expand(s))
        assert hm.expand(s).issubset(hm.expand(t))


class TestInterior:
    def test_hollow_ball(self):
        s = subset(G32, 0, 1, 2, 4)
        assert sorted(hm.interior_k(s, 1).members()) == [0]

    def test_full_set_fixed(self):
        full = hm.HammingSubset.full(G42)
        assert hm.interior_k(full, 3) == full

    @given(st.integers(0, 2 ** 16 - 1), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_duality_and_direct_oracle(self, bits, k):
        s = hm.HammingSubset(G42, bits)
        via_duality = hm.interior_k(s, k)
        assert via_duality == hm.expand_k(s.complement(), k).complement()
        assert via_duality == hm.interior_by_balls(s, k)
        assert via_duality.issubset(s)

    @pytest.mark.parametrize("graph", [G32, G23])
    def test_ball_oracle_equals_distance_scan(self, graph):
        # the ball oracle gives a ball up once it leaves s; every interior
        # of every subset still equals the pairwise-distance definition
        count = graph.vertex_count
        dist = [[graph.distance(v, w) for w in range(count)]
                for v in range(count)]
        for bits in range(1 << count):
            s = hm.HammingSubset(graph, bits)
            for k in range(graph.dims + 1):
                want = sum(1 << v for v in s.members()
                           if all(w in s for w in range(count)
                                  if dist[v][w] <= k))
                assert hm.interior_by_balls(s, k).bits == want

    def test_ball_oracle_rejects_negative_k(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            hm.interior_by_balls(subset(G32, 0), -1)


def within_by_scan(graph, bits, p, threshold):
    """Vertices within total cost ``threshold`` of ``bits``, pair by pair."""
    words = [graph.word_of(v) for v in range(graph.vertex_count)]
    sources = [words[u] for u in range(graph.vertex_count) if bits >> u & 1]
    out = 0
    for v, word in enumerate(words):
        if any(sum(1 if p == 0 else abs(a - b) ** p
                   for a, b in zip(source, word) if a != b) <= threshold
               for source in sources):
            out |= 1 << v
    return out


class TestWithinCost:
    @given(st.integers(0, 2 ** 16 - 1), st.integers(-1, 5))
    @settings(max_examples=40, deadline=None)
    def test_p0_is_expansion(self, bits, k):
        s = hm.HammingSubset(G42, bits)
        got = hm._within_cost_bits(4, 2, bits, 0, k)
        assert got == (0 if k < 0 else hm.expand_k(s, k).bits)

    @given(st.integers(0, 2 ** 16 - 1), st.integers(0, 4), st.integers(-1, 40))
    @settings(max_examples=80, deadline=None)
    def test_matches_pairwise_scan(self, bits, p, threshold):
        for graph in (hm.GraphParams(2, 4), hm.GraphParams(3, 3),
                      hm.GraphParams(1, 16)):
            part = bits & ((1 << graph.vertex_count) - 1)
            assert hm._within_cost_bits(graph.dims, graph.alphabet, part, p,
                                        threshold) == within_by_scan(
                graph, part, p, threshold)


class TestHamgraphTheorem:
    def test_radius_beyond_diameter(self):
        chk = hm.check_hamgraph_theorem(subset(G42, 0, 1, 2), 1.5)
        assert chk.radius == 5 and chk.interior_size == 0 and chk.holds

    def test_bound_above_one(self):
        chk = hm.check_hamgraph_theorem(subset(G42, 0, 1, 2), 0.4)
        assert chk.bound > 1 and chk.holds

    def test_rejects_large_subset(self):
        with pytest.raises(NotInterestingSubset):
            hm.check_hamgraph_theorem(hm.HammingSubset(G42, 2 ** 10 - 1), 1.0)

    def test_exhaustive_tiny_graph(self):
        g = hm.GraphParams(2, 2)
        for bits in range(1, 1 << 4):
            s = hm.HammingSubset(g, bits)
            if 2 * s.size > 4:
                continue
            for c in (0.25, 0.75, 1.5):
                assert hm.check_hamgraph_theorem(s, c).holds


def counted_certifications(monkeypatch):
    """Patch the certified comparison to count its calls."""
    calls = []
    real = hm.exactmath.compare_scaled_exp

    def compare(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hm.exactmath, "compare_scaled_exp", compare)
    return calls


class TestInteriorRatio:
    def test_c_must_be_positive(self):
        for c in (0, -1, Fraction(-1, 2)):
            with pytest.raises(ValueError, match="c must be positive"):
                hm.interior_ratio_cases(4, [1.0, c])

    @pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
    def test_c_must_be_finite(self, c):
        with pytest.raises(ValueError,
                           match=f"c must be positive and finite, got {c}"):
            hm.interior_ratio_cases(4, [1.0, c])

    def test_float_bound_error(self):
        # the bound of interior_ratio_holds's error statement, against a
        # 50-digit exp
        grid = [0.1, 0.25, 0.4, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 3.0,
                5.0, Fraction(1, 3), Fraction(7, 10)]
        for c, _, bound in hm.interior_ratio_cases(4, grid):
            x = -2 * Fraction(c) ** 2
            with mpmath.workdps(50):
                exact = 2 * mpmath.exp(mpmath.mpf(x.numerator) / x.denominator)
                error = abs(mpmath.mpf(bound) - exact) / exact
            slack = 1 if isinstance(c, float) else 3
            assert error <= (slack * abs(x) + 2) * mpmath.mpf(2) ** -53, c

    # floor(2 e^-2 10^9) = 270670566: float margin 4.7e-10, inside the
    # guard band, so only the certified comparison decides either side
    @pytest.mark.parametrize("interior,holds", [(270670566, True),
                                                (270670567, False)])
    def test_guard_band(self, monkeypatch, interior, holds):
        calls = counted_certifications(monkeypatch)
        cases = hm.interior_ratio_cases(4, [1.0])
        margins, verdicts = hm.interior_ratio_holds([[interior]], [10 ** 9],
                                                    cases)
        assert abs(margins[0, 0]) < 1e-9
        assert verdicts.tolist() == [[holds]]
        assert len(calls) == 1

    def test_float_decides_outside_the_band(self, monkeypatch):
        calls = counted_certifications(monkeypatch)
        cases = hm.interior_ratio_cases(16, [0.5, 1.0, 2.0])
        margins, verdicts = hm.interior_ratio_holds(
            [[0, 0, 0], [1, 1, 0], [3, 3, 3]], [4, 4, 4], cases)
        # only 3/4 at c >= 1 is above its bound
        assert verdicts.tolist() == [[True] * 3, [True] * 3,
                                     [True, False, False]]
        assert margins[0].tolist() == [bound for _, _, bound in cases]
        # a margin above 1e-9 is never certified; a negative one is
        assert [args[0] for args in calls] == [Fraction(3, 4)] * 2


class TestHarperCheck:
    def test_singleton_is_tight(self):
        chk = hm.harper_check(subset(G23, 0), 1)
        assert chk.expansion_fraction == Fraction(5, 9)
        assert abs(float(chk.lower_bound) - 5 / 9) < 1e-9
        assert chk.holds

    def test_ball_expansion_dominates(self):
        s = subset(G42, 0)
        chk = hm.harper_check(s, 3)
        # |Exp^3({v})| = 15 of 16
        assert chk.expansion_fraction == Fraction(15, 16)
        assert chk.holds

    def test_exhaustive_small_graph(self):
        g = hm.GraphParams(2, 2)
        for bits in range(1, (1 << 4) - 1):
            assert hm.harper_check(hm.HammingSubset(g, bits), 1).holds


class TestHarperBounds:
    @pytest.mark.parametrize("k", [0, 4, -1])
    def test_k_outside_range_refused_before_expanding(self, monkeypatch, k):
        # k = 0 used to pass vacuously with margin 0.0, since the bound is
        # |S|/q^n itself; k = dims raised only after one chunk's expansion
        expanded = []
        monkeypatch.setattr(hm, "_expand_bits",
                            lambda *args, **kwargs: expanded.append(args))
        rows = next(hm.proper_subset_rows(16, 15))
        message = f"^need 1 <= k < dims, got k={k}$"
        with pytest.raises(ValueError, match=message):
            next(hm.harper_bounds(G42, [rows], [1, k]))
        with pytest.raises(ValueError, match=message):
            hm.harper_check(subset(G42, 0), k)
        assert expanded == []

    def test_each_root_solved_once(self, monkeypatch):
        # a root p_r depends on (r, |S|), not on k
        solved = []
        real = exactmath.solve_p_for_tail

        def solve(n, r, target, tol):
            solved.append((r, target))
            return real(n, r, target, tol)

        monkeypatch.setattr(exactmath, "solve_p_for_tail", solve)
        chunks = list(hm.harper_bounds(
            G42, hm.proper_subset_rows(16, 15), [1, 2, 3]))
        assert sum(len(rows) for rows, _, _ in chunks) == (1 << 16) - 2
        assert len(solved) == len(set(solved)) == 3 * 15

    def test_shared_roots_equal_oracle(self, monkeypatch):
        # every k and every s/2^n for n <= 8, one roots dict per fraction as
        # harper_bounds shares it; the oracle's own roots are cached too
        monkeypatch.setattr(test_exactmath, "solve_p_oracle",
                            functools.cache(test_exactmath.solve_p_oracle))
        tol = Fraction(hm.HARPER_TOL)
        for n in range(2, 9):
            for s in range(1, 1 << n):
                frac, roots = Fraction(s, 1 << n), {}
                for k in range(1, n):
                    assert exactmath.harper_rhs(n, k, frac, tol, roots) == \
                        test_exactmath.harper_rhs_oracle(n, k, frac, tol), \
                        (n, k, s)
                assert len(roots) == n - 1


def saturating_rows(graph):
    """Slot rows of sets full after 0, 1 and 2 expansion steps, sets not
    full after 3 (where the diameter allows), the empty set and 300
    seeded sets and complements, shuffled."""
    count, dims = graph.vertex_count, graph.dims
    full = (1 << count) - 1
    ball = hm.expand_k(subset(graph, 0), dims - 2).bits  # full at step 2
    sets = [full, full ^ 1, full ^ 0b110, ball, 0, 1, 1 << (count - 1)]
    drawn = next(hm.seeded_subset_rows(count, 150, 5))
    sets += [hm.pack_slots(row) for row in drawn]
    sets += [bits ^ full for bits in sets[-150:]]
    order = np.random.default_rng(3).permutation(len(sets))
    return hm.subset_rows(np.array([[bool(sets[i] >> v & 1)
                                     for v in range(count)] for i in order]))


class TestExpansionSaturation:
    @pytest.mark.parametrize("dims,q", [(4, 3), (6, 2), (2, 4)])
    def test_sizes_equal_expand_k(self, dims, q):
        graph = hm.GraphParams(dims, q)
        rows = saturating_rows(graph)
        want = [[hm.expand_k(hm.HammingSubset(graph, hm.pack_slots(row)),
                             k).size for k in range(4)] for row in rows]
        steps_to_full = {next((k for k, size in enumerate(sizes)
                               if size == graph.vertex_count), None)
                         for sizes in want if sizes[0]}
        assert {0, 1, 2} <= steps_to_full
        assert (None in steps_to_full) is (dims > 2)  # 2 is the diameter
        assert [0] * 4 in want
        for cut in (1, 100, len(rows)):
            got = np.concatenate([sizes for _, sizes in hm.expansion_sizes(
                graph, [rows[:cut], rows[cut:]], 3)])
            assert got.tolist() == want

    def test_full_rows_leave_the_packed_expansion(self, monkeypatch):
        graph = hm.GraphParams(4, 3)
        full = hm.full_row(graph.vertex_count)
        rows = next(hm.seeded_subset_rows(graph.vertex_count, hm.CHUNK, 1)) ^ full
        packed = []  # the slots of each _expand_bits call
        real = hm._expand_bits

        def expand_bits(dims, q, bits, slots=1, masks=None):
            packed.append(slots)
            return real(dims, q, bits, slots, masks)

        monkeypatch.setattr(hm, "_expand_bits", expand_bits)
        [(_, sizes)] = hm.expansion_sizes(graph, [rows], 6)
        live = ((sizes > 0) & (sizes < graph.vertex_count)).sum(axis=0)
        assert packed[1] < packed[0] == len(rows)
        # one call per step while a row is live, each packing those rows
        assert packed == live[:len(packed)].tolist()
        assert live[len(packed)] == 0 and len(packed) < 6
        assert (sizes[:, len(packed):] == graph.vertex_count).all()


class TestStepMasks:
    def test_memo_bounded_in_bytes(self, monkeypatch):
        graphs = [(6, 2), (4, 3), (2, 4)]
        hm._step_masks.cache_clear()
        fresh = {graph: hm._step_masks(*graph) for graph in graphs + [(8, 2)]}
        hm._step_masks.cache_clear()
        assert hm._MASKS == {}
        budget = hm._mask_bytes(6, 2) + hm._mask_bytes(4, 3)
        monkeypatch.setattr(hm, "MASK_BUDGET", budget)
        try:
            for graph in graphs:
                assert hm._step_masks(*graph) == fresh[graph]
            # the third graph pushed the oldest out
            assert list(hm._MASKS) == graphs[1:]
            assert sum(hm._mask_bytes(*g) for g in hm._MASKS) <= budget
            # masks larger than the whole budget are built, not kept
            assert hm._mask_bytes(8, 2) > budget
            assert hm._step_masks(8, 2) == fresh[8, 2]
            assert list(hm._MASKS) == graphs[1:]
            assert hm._step_masks(6, 2) == fresh[6, 2]
            assert list(hm._MASKS) == [(2, 4), (6, 2)]
        finally:
            hm._step_masks.cache_clear()


def graph_of(params):
    return hm.GraphParams(params.dimension, params.level_count)


class TestImageBijection:
    """Vertex r of H(n^2 h, 2^b) is the image of rank r."""

    def test_distance_preserved_exhaustively(self):
        params = SpaceParams(2, 1, 1)
        graph = graph_of(params)
        for u in range(graph.vertex_count):
            for v in range(u + 1, graph.vertex_count):
                assert graph.distance(u, v) == norm_distance(
                    image_from_rank(params, u), image_from_rank(params, v), 0)

    def test_binary_words_equal_levels(self):
        params = SpaceParams(2, 1, 1)
        image = image_from_rank(params, 0b0110)
        assert image.levels == graph_of(params).word_of(0b0110) == (0, 1, 1, 0)
        assert image.space_rank() == 0b0110

    def test_multichannel_space(self):
        params = SpaceParams(1, 2, 2)
        graph = graph_of(params)
        assert graph.vertex_count == params.total_images == 16
        for u in range(16):
            for v in range(16):
                assert graph.distance(u, v) == norm_distance(
                    image_from_rank(params, u), image_from_rank(params, v), 0)

    def test_round_trip(self):
        params = SpaceParams(2, 1, 2)
        graph = graph_of(params)
        for v in range(0, 256, 7):
            image = image_from_rank(params, v)
            assert graph.word_of(v) == image.levels
            assert graph.vertex_of(image.levels) == v


class TestClassSubset:
    def test_matches_decide(self):
        from robustness_envelope.classifiers import sum_classifier
        from robustness_envelope.robustness import labels_for
        params = SpaceParams(2, 1, 1)
        classifier = sum_classifier(params)
        bits = sum(1 << rank for rank, label in enumerate(labels_for(classifier))
                   if label == 0)
        zero_class = hm.HammingSubset(graph_of(params), bits)
        assert zero_class.size == 5
        for v in zero_class.members():
            assert classifier.decide(image_from_rank(params, v)) == 0
