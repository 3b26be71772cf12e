import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustness_envelope import hamming as hm
from robustness_envelope.errors import NotInterestingSubset, SpaceTooLarge
from robustness_envelope.image_space import (
    SpaceParams,
    image_from_rank,
    norm_distance,
)

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
