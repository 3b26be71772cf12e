import math
from fractions import Fraction

import numpy as np
import pytest

from robustness_envelope import bounds as bd
from robustness_envelope.errors import BitDepthTooLarge


def lower_bound_size(q):
    """The sum classifier's robust size of one query, as the table reports
    it (clamped at 0 when the guarantee is vacuous)."""
    return bd.evaluate_bounds(q).lower_size


class TestUpperBound:
    def test_reparametrized_unit_c(self):
        # r = 2 e^{-2}: the expansion term is c sqrt(h) n + 2 with c = 1
        q = bd.BoundQuery(r=2 * math.exp(-2), p=1, n=10, h=1, b=1)
        assert abs(bd.upper_bound_size(q) - 12.0) < 1e-12

    def test_limit_toward_formula_floor(self):
        # as ln(2/r) -> 0 the expansion term collapses to the additive 2;
        # within the legal domain r < 1 it is bounded by the r = 1 value
        floor_at_one = 2 + math.sqrt(0.5 * math.log(2)) * 10
        q = bd.BoundQuery(r=1 - 1e-12, p=1, n=10, h=1, b=1)
        assert bd.upper_bound_size(q) > floor_at_one > 2
        assert abs(bd.upper_bound_size(q) - floor_at_one) < 1e-6

    def test_p2_takes_min_of_terms(self):
        q = bd.BoundQuery(r=0.5, p=2, n=224, h=3, b=8)
        result = bd.evaluate_bounds(q)
        assert result.source_terms.dominating == "cell"
        assert abs(result.upper_size - 4.6962) < 1e-3
        # low bit depth flips the dominating term
        q_small_b = bd.BoundQuery(r=0.5, p=2, n=224, h=3, b=1)
        assert bd.evaluate_bounds(q_small_b).source_terms.dominating == "expansion"

    def test_monotone_in_n_and_r(self):
        sizes = [bd.upper_bound_size(bd.BoundQuery(r=0.5, p=1, n=n, h=3, b=8))
                 for n in (10, 100, 1000)]
        assert sizes[0] < sizes[1] < sizes[2]
        by_r = [bd.upper_bound_size(bd.BoundQuery(r=r, p=1, n=100, h=3, b=8))
                for r in (0.1, 0.5, 0.9)]
        assert by_r[0] > by_r[1] > by_r[2]


class TestLowerBound:
    def test_linear_case(self):
        q = bd.BoundQuery(r=0.6, p=1, n=100, h=1, b=1)
        assert abs(lower_bound_size(q) - 8.0) < 1e-12

    def test_clamped_at_zero(self):
        q = bd.BoundQuery(r=0.6, p=1, n=3, h=1, b=1)
        assert lower_bound_size(q) == 0.0

    def test_p2_scaling(self):
        q = bd.BoundQuery(r=0.6, p=2, n=100, h=1, b=1)
        assert abs(lower_bound_size(q) - math.sqrt(8)) < 1e-12

    def test_upper_dominates_lower_for_large_n(self):
        for p in (0, 1, 2):
            q = bd.BoundQuery(r=0.5, p=p, n=10 ** 4, h=3, b=8)
            assert bd.upper_bound_size(q) >= lower_bound_size(q)


class TestAsymptoticShape:
    def test_scaled_sizes_converge(self):
        # upper/n^(1/max(p,1)) and lower/n^(1/max(p,1)) approach constants
        for p in (1, 2):
            scaled_upper = []
            scaled_lower = []
            for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
                scale = n ** (1 / max(p, 1))
                q = bd.BoundQuery(r=0.5, p=p, n=n, h=3, b=8)
                scaled_upper.append(bd.upper_bound_size(q) / scale)
                scaled_lower.append(lower_bound_size(q) / scale)
            assert scaled_lower[-1] > 0
            assert abs(scaled_upper[-1] - scaled_upper[-2]) < 0.05 * scaled_upper[-1]
            assert abs(scaled_lower[-1] - scaled_lower[-2]) < 0.05 * scaled_lower[-1]

    def test_empirical_crossover_reported(self):
        for p in (0, 1, 2):
            threshold = bd.empirical_crossover_n(0.5, 3, 8, p)
            assert threshold is not None
            q = bd.BoundQuery(r=0.5, p=p, n=threshold, h=3, b=8)
            assert bd.upper_bound_size(q) >= lower_bound_size(q)

    def test_crossover_in_bit_depth(self):
        # at p >= 2 and fixed n, the cell term wins for large b, while the
        # expansion term wins as n grows at fixed b
        dominating_by_b = [bd.evaluate_bounds(
            bd.BoundQuery(r=0.5, p=2, n=224, h=3, b=b)).source_terms.dominating
            for b in (1, 4, 8, 12)]
        assert dominating_by_b[0] == "expansion"
        assert dominating_by_b[-1] == "cell"
        dominating_by_n = [bd.evaluate_bounds(
            bd.BoundQuery(r=0.5, p=2, n=n, h=3, b=8)).source_terms.dominating
            for n in (10, 10 ** 4)]
        assert dominating_by_n[0] == "cell" or dominating_by_n[-1] == "expansion"


class TestAvgDistance:
    def test_binary_first_moment(self):
        constants = bd.avg_distance_constant(1, 1, 1)
        assert constants.k_bp == Fraction(1, 2)
        assert abs(constants.k_hbp - 1 / 12) < 1e-12

    def test_binary_second_moment(self):
        constants = bd.avg_distance_constant(1, 1, 2)
        assert constants.k_bp == Fraction(1, 2)
        assert abs(constants.k_hbp - 1 / 6) < 1e-12

    def test_p0_equals_p1_constants(self):
        assert bd.avg_distance_constant(2, 3, 0) == bd.avg_distance_constant(2, 3, 1)

    def test_collapsed_sum_matches_double_loop(self):
        for b in (1, 2, 3):
            for p in (1, 2, 3):
                q = 1 << b
                m = max(1, p)
                direct = sum(Fraction(abs(x - y), q - 1) ** m
                             for x in range(q) for y in range(q)) / q ** 2
                assert bd.avg_distance_constant(1, b, p).k_bp == direct

    def test_lower_bound_values(self):
        assert abs(bd.avg_distance_lower_bound(10, 1, 1, 1) - 100 / 12) < 1e-9
        assert abs(bd.avg_distance_lower_bound(1, 1, 1, 1) - 1 / 12) < 1e-12
        assert abs(bd.avg_distance_lower_bound(10, 1, 1, 2) - 10 / 6) < 1e-9

    def test_bit_depth_cap(self):
        with pytest.raises(BitDepthTooLarge):
            bd.avg_distance_constant(1, 17, 1)

    def test_monte_carlo_respects_bound(self):
        rng = np.random.default_rng(3)
        n, h, b = 4, 1, 2
        dim, top = n * n * h, 3
        x = rng.integers(0, 4, size=(20000, dim))
        y = rng.integers(0, 4, size=(20000, dim))
        diff = np.abs(x - y)
        l0 = (diff != 0).sum(axis=1).mean()
        l1 = (diff / top).sum(axis=1).mean()
        l2 = np.sqrt(((diff / top) ** 2).sum(axis=1)).mean()
        assert l0 >= bd.avg_distance_lower_bound(n, h, b, 0)
        assert l1 >= bd.avg_distance_lower_bound(n, h, b, 1)
        assert l2 >= bd.avg_distance_lower_bound(n, h, b, 2)


class TestTable:
    def test_rows_match_single_ops(self):
        rows = bd.bounds_table(0.5, 224, 3, 8, [0, 1, 2])
        for row in rows:
            q = bd.BoundQuery(r=0.5, p=row.p, n=224, h=3, b=8)
            assert row.upper_size == bd.upper_bound_size(q)
            assert row.lower_size == lower_bound_size(q)

    def test_six_digit_texts(self):
        rows = bd.bounds_table(0.5, 224, 3, 8, [0, 1, 2])
        texts = [(r.upper_text, r.lower_text) for r in rows]
        assert texts[0] == ("325.014", "46.4974")
        assert texts[1] == ("325.014", "46.4974")
        assert texts[2] == ("4.69620", "0.0267408")

    def test_query_validation(self):
        with pytest.raises(ValueError):
            bd.BoundQuery(r=1.5, p=0, n=4, h=1, b=1)
