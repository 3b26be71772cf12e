import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robustness_envelope import exactmath as em
from robustness_envelope import hamming as hm
from robustness_envelope.errors import (
    AsymmetricY,
    NoSolution,
    PrecisionInsufficient,
    PreconditionViolated,
    SupportCapExceeded,
    ZeroDenominator,
)

HALF = Fraction(1, 2)


class TestBinom:
    def test_small_direct(self):
        assert em.binom(4, 2) == 6

    def test_out_of_range_is_zero(self):
        assert em.binom(5, 7) == 0
        assert em.binom(5, -1) == 0

    def test_factorial_formula(self):
        assert em.binom(10, 3) == 120

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            em.binom(0, 0)

    def test_pascal_identity_exhaustive(self):
        for n in range(2, 80):
            for k in range(1, n):
                assert em.binom(n, k) == em.binom(n - 1, k - 1) + em.binom(n - 1, k)

    def test_row_sums(self):
        for n in range(1, 80):
            assert sum(em.binom(n, k) for k in range(n + 1)) == 1 << n


def tail_table_oracle(n, p):
    """The Fraction recurrence: ``U_{n,p}(k)`` for k = 0..n, each term of
    the binomial sum from the previous one."""
    q = 1 - p
    term = q ** n
    acc = term
    out = [acc]
    for i in range(n):
        term = term * (n - i) * p / ((i + 1) * q)
        acc += term
        out.append(acc)
    assert out[-1] == 1
    return tuple(out)


def lower_tail_oracle(n, k, p):
    """``U_{n,p}(k)`` as one integer sum over ``b^n``, with ``p = a/b``."""
    a, b = p.numerator, p.denominator
    return Fraction(sum(math.comb(n, i) * a ** i * (b - a) ** (n - i)
                        for i in range(k + 1)), b ** n)


def solve_p_oracle(n, r, target, tol):
    """Fraction bisection on the single-tail oracle."""
    target, tol = Fraction(target), Fraction(tol)
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(1000):
        mid = (lo + hi) / 2
        value = lower_tail_oracle(n, r, mid)
        if abs(value - target) <= tol:
            return mid
        if value > target:
            lo = mid
        else:
            hi = mid
    raise NoSolution("oracle bisection did not converge")


def harper_rhs_oracle(n, k, frac, tol):
    values = []
    for r in range(0, n - k):
        p_r = solve_p_oracle(n, r, frac, Fraction(tol) / 1024)
        values.append(lower_tail_oracle(n, r + k, p_r))
    return min(values)


def random_p(rng, max_denominator=10 ** 6):
    b = rng.randint(2, max_denominator)
    return Fraction(rng.randint(1, b - 1), b)


class TestBinomialTail:
    def test_enumerated_coin_pair(self):
        # 4 equiprobable outcomes; 3 have at most one head.
        assert em.tail_table(2, HALF).cdf_at(1) == Fraction(3, 4)

    def test_negative_cutoff(self):
        assert em.tail_table(5, Fraction(1, 3)).cdf_at(-1) == 0

    def test_full_support(self):
        table = em.tail_table(5, HALF)
        assert table.cdf_at(5) == 1 and table.cdf_at(9) == 1

    def test_monotone_in_k(self):
        table = em.tail_table(9, Fraction(2, 7))
        values = [table.cdf_at(k) for k in range(-1, 11)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_rejects_degenerate_p(self):
        for p in (Fraction(1), Fraction(0), Fraction(-1, 2), Fraction(3, 2)):
            with pytest.raises(ValueError):
                em.tail_table(4, p)
        with pytest.raises(ValueError):
            em.tail_table(0, HALF)

    def test_closed_form_counts(self):
        # p = 1/3: C(3,i) 1^i 2^(3-i) over 3^3
        table = em.tail_table(3, Fraction(2, 6))
        assert (table.offset, table.counts, table.denominator) == (
            0, (8, 12, 6, 1), 27)
        assert table.prefix == (8, 20, 26, 27)

    def test_equals_fraction_recurrence(self):
        rng = random.Random(9)
        cases = [(n, Fraction(j, 10)) for n in (1, 2, 7, 40) for j in range(1, 10)]
        cases += [(rng.randint(1, 64), random_p(rng)) for _ in range(200)]
        for n, p in cases:
            table = em.tail_table(n, p)
            assert tuple(table.cdf_at(k) for k in range(n + 1)) == \
                tail_table_oracle(n, p)

    @given(st.integers(1, 40), st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_matches_bernoulli_convolution(self, n, tens):
        p = Fraction(tens, 10)
        total = em.pmf_iid_sum(em.pmf_bernoulli(p), n)
        table = em.tail_table(n, p)
        for k in (0, n // 3, n // 2, n - 1):
            assert total.cdf_at(k) == table.cdf_at(k)


def mode_bound_sweep_oracle(n_max):
    """The sweep that squares the central coefficient at every n, kept as
    a test oracle for the float-filtered sweep."""
    c = 1
    min_gap = math.inf
    first_violation = None
    ln2 = math.log(2)
    for n in range(1, n_max + 1):
        if n > 1:
            if n % 2 == 0:
                c = 2 * c
            else:
                c = c * n // ((n + 1) // 2)
        if c * c * n >= 1 << (2 * n):
            if first_violation is None:
                first_violation = n
        gap = 2 * n * ln2 - (2 * math.log(c) + math.log(n))
        if gap < min_gap:
            min_gap = gap
    return first_violation, min_gap


class TestModeBound:
    @pytest.mark.parametrize("guard", [None, math.inf])
    @pytest.mark.parametrize("n_max", [1, 2, 3, 10, 101, 3000])
    def test_sweep_equals_oracle(self, monkeypatch, guard, n_max):
        # guard inf makes the exact comparison run at every n
        if guard is not None:
            monkeypatch.setattr(em, "MODE_GAP_GUARD", guard)
        assert em.mode_bound_sweep(n_max) == mode_bound_sweep_oracle(n_max)

    def test_tiny_cases(self):
        assert em.mode_bound_holds(1)
        assert em.mode_bound_holds(4)  # 144 < 256
        assert em.mode_bound_holds(9)  # 142884 < 262144

    def test_sweep_matches_direct(self):
        violation, _ = em.mode_bound_sweep(300)
        assert violation is None
        assert all(em.mode_bound_holds(n) for n in (1, 2, 3, 17, 100, 299))


class TestTailRatio:
    def test_exact_value(self):
        assert em.tail_ratio(16, 3, HALF, 7) == Fraction(2517, 26333)

    def test_zero_numerator(self):
        assert em.tail_ratio(8, 9, HALF, 8) == 0

    def test_full_tail_denominator(self):
        assert em.tail_ratio(4, 1, HALF, 4) == Fraction(15, 16)

    def test_monotone_small_sweep(self):
        violations, min_step = em.tail_ratio_monotone_violations(
            12, 3, [Fraction(j, 10) for j in range(1, 10)])
        assert violations == []
        assert min_step >= 0

    def test_zero_denominator_guard(self):
        with pytest.raises(ZeroDenominator):
            em.tail_ratio(8, 2, HALF, -1)


class TestHoeffdingRatio:
    def test_known_true_case(self):
        assert em.hoeffding_ratio_holds(16, 3, HALF, 7)

    def test_k1_bound_exceeds_one(self):
        assert em.hoeffding_ratio_holds(16, 1, HALF, 7)

    def test_precondition_enforced(self):
        # U_{16,1/2}(8) > 1/2
        with pytest.raises(PreconditionViolated):
            em.hoeffding_ratio_holds(16, 2, HALF, 8)

    def test_small_admissible_sweep(self):
        violations, margin = em.hoeffding_sweep_violations(
            24, [Fraction(1, 4), HALF, Fraction(3, 4)])
        assert violations == []
        assert margin > 0


class TestSingleTail:
    def test_equals_tail_table(self):
        rng = random.Random(5)
        for _ in range(400):
            n = rng.randint(1, 60)
            k = rng.randint(0, n - 1)
            p = random_p(rng)
            assert lower_tail_oracle(n, k, p) == em.tail_table(n, p).cdf_at(k)


class TestSolveP:
    def test_recovers_half(self):
        p = em.solve_p_for_tail(10, 5, Fraction(638, 1024))
        assert em.tail_table(10, p).cdf_at(5) == Fraction(638, 1024)

    def test_round_trip_within_tol(self):
        tol = Fraction(1, 10 ** 9)
        p = em.solve_p_for_tail(6, 3, HALF, tol)
        assert abs(em.tail_table(6, p).cdf_at(3) - HALF) <= tol

    def test_target_outside_open_interval(self):
        with pytest.raises(NoSolution):
            em.solve_p_for_tail(5, 2, Fraction(1))

    def test_small_target_gives_large_p(self):
        # (1-p)^10 = 1e-6 puts p near 1 - 10^(-0.6)
        p = em.solve_p_for_tail(10, 0, Fraction(1, 10 ** 6))
        assert Fraction(7, 10) < p < Fraction(4, 5)

    def test_equals_fraction_bisection(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 24)
            r = rng.randint(0, n - 1)
            target = random_p(rng, 10 ** 9)
            tol = rng.choice([Fraction(1, 10 ** 12), Fraction(1, 10 ** 3),
                              1e-9, Fraction(1, 2 ** 40) / 1024])
            assert em.solve_p_for_tail(n, r, target, tol) == \
                solve_p_oracle(n, r, target, tol)

    def test_tolerance_boundary_is_inclusive(self):
        # at p = 1/2, U_{4,1/2}(1) = 5/16; a tolerance of exactly the gap
        # to the target accepts the first midpoint
        assert em.solve_p_for_tail(4, 1, Fraction(1, 4), Fraction(1, 16)) == HALF
        assert em.solve_p_for_tail(4, 1, Fraction(1, 4), Fraction(1, 17)) != HALF


# The (n, k, |S|/q^n) bounds of the hamming suite's expansion-lower-bound
# checks: H(4,2) with k in 1..3 and H(2,3) with k = 1.
HARPER_SUITE_CASES = ([(4, k, Fraction(size, 16)) for k in (1, 2, 3)
                       for size in range(1, 16)]
                      + [(2, 1, Fraction(size, 9)) for size in range(1, 9)])


class TestHarperRhs:
    def test_degenerate_k0(self):
        assert em.harper_rhs(4, 0, Fraction(1, 3)) == Fraction(1, 3)

    def test_minimum_not_above_first_shell(self):
        # The r = 0 shell for a singleton fraction solves exactly at p = 1/2.
        rhs = em.harper_rhs(4, 1, Fraction(1, 16))
        assert rhs <= Fraction(5, 16)
        assert rhs > Fraction(1, 4)

    def test_large_fraction_bounded_by_one(self):
        assert em.harper_rhs(4, 2, HALF) <= 1

    def test_suite_cases_equal_oracle(self):
        assert len(HARPER_SUITE_CASES) == 53
        tol = Fraction(1e-9)
        for n, k, frac in HARPER_SUITE_CASES:
            assert em.harper_rhs(n, k, frac, tol) == \
                harper_rhs_oracle(n, k, frac, tol)

    def test_random_cases_equal_oracle(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(2, 12)
            k = rng.randint(1, n - 1)
            frac = random_p(rng, 4096)
            assert em.harper_rhs(n, k, frac) == \
                harper_rhs_oracle(n, k, frac, Fraction(1, 10 ** 12))


def monotone_sweep_oracle(n_max, k_max, p_values, table_of):
    """The Fraction sweep over tail tuples ``table_of(n, p)``."""
    violations, min_step = [], math.inf
    for n in range(1, n_max + 1):
        for p in p_values:
            table = table_of(n, Fraction(p))
            for k in range(1, min(k_max, n) + 1):
                previous = None
                for x in range(0, n + 1):
                    numerator = table[x - k] if x - k >= 0 else Fraction(0)
                    ratio = numerator / table[x]
                    # skip the first point and steps from ratio 0 to 0
                    if previous is not None and (previous or ratio):
                        min_step = min(min_step, float(ratio - previous))
                        if ratio < previous:
                            violations.append((n, k, Fraction(p), x))
                    previous = ratio
    return violations, min_step


def hoeffding_sweep_oracle(n_max, p_values, table_of):
    """The Fraction sweep over tail tuples ``table_of(n, p)``."""
    violations, min_margin = [], math.inf
    for n in range(2, n_max + 1):
        for p in p_values:
            p = Fraction(p)
            table = table_of(n, p)
            for r in range(1, n):
                if table[r] > HALF:
                    break
                for k in range(1, r + 1):
                    ratio = table[r - k] / table[r]
                    exponent = em.hoeffding_exponent(n, k)
                    margin = 2.0 * math.exp(float(exponent)) - float(ratio)
                    min_margin = min(min_margin, margin)
                    if margin < 1e-9 and em.compare_scaled_exp(
                            ratio, Fraction(2), exponent) > 0:
                        violations.append((n, k, p, r))
    return violations, min_margin


def scrambled_table(n, p):
    """A seeded non-binomial distribution on 0..n with small early tails,
    so the sweeps meet violations."""
    rng = random.Random(repr((n, p)))
    counts = tuple(rng.randint(1, 9) * (i + 1) ** 3 for i in range(n + 1))
    return em.DiscretePMF(0, counts, sum(counts))


def as_tuple(table_of):
    return lambda n, p: tuple(table_of(n, p).cdf_at(k) for k in range(n + 1))


class TestSweepsAgainstOracles:
    GRID = [Fraction(j, 10) for j in range(1, 10)] + [Fraction(1, 3),
                                                     Fraction(7, 999)]

    def test_monotone_sweep(self):
        assert em.tail_ratio_monotone_violations(20, 5, self.GRID) == \
            monotone_sweep_oracle(20, 5, self.GRID, tail_table_oracle)

    def test_hoeffding_sweep(self):
        grid = [Fraction(1, 4), HALF, Fraction(3, 4), Fraction(2, 7)]
        assert em.hoeffding_sweep_violations(24, grid) == \
            hoeffding_sweep_oracle(24, grid, tail_table_oracle)

    def test_tail_of_exactly_half_is_admissible(self):
        # U_{3,1/2}(1) = 1/2: the one admissible query is k = 1, r = 1,
        # with ratio U(0)/U(1) = 1/4 against the bound 2
        assert em.hoeffding_sweep_violations(3, [HALF]) == ([], 1.75)

    def test_acceptance_sweep_certifies_nothing(self, monkeypatch):
        # every float margin of the suite's sweep clears 1e-9 of its bound
        calls = []
        certify = em.compare_scaled_exp
        monkeypatch.setattr(em, "compare_scaled_exp",
                            lambda *args: calls.append(args) or certify(*args))
        got = em.hoeffding_sweep_violations(
            64, [Fraction(1, 4), HALF, Fraction(3, 4)])
        assert got == ([], 3.8309579032561554e-29)
        assert calls == []

    def test_faulty_bound_violations_like_oracle(self, monkeypatch):
        # a bound three halves as steep in its exponent is violated
        monkeypatch.setattr(em, "hoeffding_exponent",
                            lambda n, k: Fraction(-3 * (k - 1) ** 2, n))
        grid = [Fraction(1, 4), HALF, Fraction(3, 4)]
        got = em.hoeffding_sweep_violations(24, grid)
        assert got[0] and got == hoeffding_sweep_oracle(24, grid,
                                                        tail_table_oracle)

    def test_float_bound_within_two_to_minus_45(self):
        # the relative error the sweep's guard band rests on, for n <= 64
        with mpmath.workdps(40):
            for n in range(2, 65):
                for k in range(1, n):
                    exponent = em.hoeffding_exponent(n, k)
                    exact = 2 * mpmath.exp(mpmath.mpf(exponent.numerator)
                                           / exponent.denominator)
                    bound = 2.0 * math.exp(-2 * (k - 1) ** 2 / n)
                    assert abs(bound - exact) <= exact * 2.0 ** -45, (n, k)

    def test_violations_found_like_oracle(self, monkeypatch):
        monkeypatch.setattr(em, "tail_table", scrambled_table)
        oracle = as_tuple(scrambled_table)
        got = em.tail_ratio_monotone_violations(12, 4, self.GRID[:3])
        assert got[0] and got == monotone_sweep_oracle(12, 4, self.GRID[:3],
                                                       oracle)
        got = em.hoeffding_sweep_violations(16, self.GRID[:3])
        assert got[0] and got == hoeffding_sweep_oracle(16, self.GRID[:3],
                                                        oracle)


def convolve_oracle(a, b):
    """Fraction double loop over the masses: ``(offset, masses)`` of a + b."""
    out = [Fraction(0)] * (len(a.masses) + len(b.masses) - 1)
    for i, ma in enumerate(a.masses):
        for j, mb in enumerate(b.masses):
            out[i + j] += ma * mb
    return a.offset + b.offset, tuple(out)


def _pmf_from_counts(offset, counts):
    return em.DiscretePMF(offset, tuple(counts), sum(counts))


# zeros inside and at the edges of the support, single points, and counts
# large enough that product denominators pass 2^64 (multi-byte slots)
pmfs = st.builds(
    _pmf_from_counts,
    st.integers(-20, 20),
    st.one_of(st.lists(st.integers(0, 3), min_size=1, max_size=12),
              st.lists(st.integers(0, 2 ** 70), min_size=1, max_size=6)).filter(any),
)


class TestDiscretePMF:
    def test_uniform_levels(self):
        assert em.pmf_uniform_levels(2).masses == (HALF, HALF)
        assert em.pmf_uniform_levels(4).masses == (Fraction(1, 4),) * 4
        assert em.pmf_uniform_levels(1).masses == (Fraction(1),)
        assert em.pmf_uniform_levels(4).counts == (1, 1, 1, 1)
        assert em.pmf_uniform_levels(4).denominator == 4

    def test_bernoulli_counts(self):
        pmf = em.pmf_bernoulli(Fraction(2, 6))
        assert (pmf.counts, pmf.denominator) == ((2, 1), 3)
        assert em.pmf_bernoulli(0).counts == (1, 0)

    def test_masses_must_sum_to_one(self):
        with pytest.raises(ValueError):
            em.DiscretePMF(0, (1, 1), 3)
        with pytest.raises(ValueError):
            em.DiscretePMF(0, (2, -1), 1)
        with pytest.raises(ValueError):
            em.DiscretePMF(0, (HALF, HALF), 1)
        with pytest.raises(ValueError):
            em.DiscretePMF(0, (0,), 0)
        with pytest.raises(ValueError):
            em.DiscretePMF(0, (), 1)

    def test_iid_sum_fair_coin(self):
        total = em.pmf_iid_sum(em.pmf_bernoulli(HALF), 2)
        assert total.masses == (Fraction(1, 4), HALF, Fraction(1, 4))

    def test_iid_sum_point_mass(self):
        total = em.pmf_iid_sum(em.pmf_point(3), 5)
        assert total.offset == 15 and total.masses == (Fraction(1),)

    def test_iid_sum_large_matches_tail(self):
        total = em.pmf_iid_sum(em.pmf_bernoulli(HALF), 256)
        assert total.cdf_at(128) == em.tail_table(256, HALF).cdf_at(128)

    def test_support_cap(self, monkeypatch):
        monkeypatch.setattr(em, "DEFAULT_SUPPORT_CAP", 8)
        with pytest.raises(SupportCapExceeded):
            em.pmf_iid_sum(em.pmf_uniform_levels(3), 10)
        with pytest.raises(SupportCapExceeded):
            em.pmf_convolve(em.pmf_uniform_levels(5), em.pmf_uniform_levels(5))
        assert len(em.pmf_iid_sum(em.pmf_uniform_levels(3), 3).counts) == 7

    @given(st.integers(1, 6), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_iid_sum_mass_and_width(self, levels, count):
        base = em.pmf_uniform_levels(levels)
        total = em.pmf_iid_sum(base, count)
        assert sum(total.masses) == 1
        assert len(total.masses) == count * (levels - 1) + 1

    @given(st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_convolution_commutes(self, a_levels, b_levels):
        a = em.pmf_uniform_levels(a_levels)
        b = em.pmf_uniform_levels(b_levels)
        assert em.pmf_convolve(a, b) == em.pmf_convolve(b, a)

    @given(pmfs, pmfs)
    @example(em.pmf_bernoulli(Fraction(1, 3)), em.pmf_uniform_levels(5))
    @example(em.pmf_point(-4), em.DiscretePMF(-1, (0, 2, 0, 1, 0), 3))
    @example(em.DiscretePMF(-3, (2 ** 65, 0, 1), 2 ** 65 + 1),
             em.DiscretePMF(7, (0, 3 ** 41, 5), 3 ** 41 + 5))
    @settings(max_examples=200, deadline=None)
    def test_convolution_matches_fraction_oracle(self, a, b):
        c = em.pmf_convolve(a, b)
        offset, masses = convolve_oracle(a, b)
        assert (c.offset, c.masses) == (offset, masses)
        assert c.denominator == a.denominator * b.denominator
        cdf = [Fraction(0)] + list(itertools.accumulate(masses))
        cdf.append(cdf[-1])
        assert [c.cdf_at(v) for v in range(offset - 1, offset + len(masses) + 1)] == cdf


class TestBinomialSpread:
    def test_degenerate_y_equality(self):
        # t at the mean: both sides are exactly 1/2
        assert em.binomial_spread_holds(3, em.pmf_point(0), Fraction(3, 2))

    def test_rejects_t_above_mean(self):
        with pytest.raises(ValueError):
            em.binomial_spread_holds(3, em.pmf_point(0), Fraction(5, 2))

    def test_uniform_y_exact_values(self):
        y = em.pmf_uniform_symmetric(1)
        # Pr[X+Y <= 1.5] = 17/48 vs Pr[X < 1.5] = 5/16
        x = em.pmf_iid_sum(em.pmf_bernoulli(HALF), 4)
        s = em.pmf_convolve(x, y)
        assert s.cdf_at(1) == Fraction(17, 48)
        assert x.cdf_at(1) == Fraction(5, 16)
        assert em.binomial_spread_holds(4, y, Fraction(3, 2))

    def test_asymmetric_rejected(self):
        skew = em.DiscretePMF(-1, (1, 1, 2), 4)
        with pytest.raises(AsymmetricY):
            em.binomial_spread_holds(4, skew, Fraction(3, 2))

    def test_requires_half_integer_t(self):
        with pytest.raises(ValueError):
            em.binomial_spread_holds(4, em.pmf_point(0), Fraction(1))


class TestAntiConcentration:
    def test_binary_case_exact(self):
        # Pr[B(4,1/2) <= 2] = 11/16 > -1/2
        assert em.anti_concentration_holds(4, 2, 1)

    def test_four_level_case(self):
        assert em.anti_concentration_holds(9, 4, Fraction(1, 2))

    def test_trivial_when_t_large(self):
        # right side at most -1/2 once t >= sqrt(n)/2
        assert em.anti_concentration_holds(16, 2, 3)

    def test_rejects_odd_levels(self):
        with pytest.raises(ValueError):
            em.anti_concentration_holds(4, 3, 1)


class TestCertifiedCompare:
    def test_exact_when_exponent_zero(self):
        assert em.compare_scaled_exp(Fraction(2), Fraction(2), Fraction(0)) == 0
        assert em.compare_scaled_exp(Fraction(3), Fraction(2), Fraction(0)) == 1

    def test_orders_transcendental_side(self):
        # e^1 = 2.718...: 2.7 < e < 2.8
        assert em.compare_scaled_exp(Fraction(27, 10), Fraction(1), Fraction(1)) == -1
        assert em.compare_scaled_exp(Fraction(28, 10), Fraction(1), Fraction(1)) == 1

    def test_gives_up_at_max_dps(self, monkeypatch):
        # e cut to 60 decimals: separated at 120 digits, not within 30
        with mpmath.workdps(80):
            close_to_e = Fraction(int(mpmath.floor(mpmath.e * 10 ** 60)),
                                  10 ** 60)
        assert em.compare_scaled_exp(close_to_e, Fraction(1), Fraction(1)) == -1
        monkeypatch.setattr(em, "MAX_DPS", 30)
        with pytest.raises(PrecisionInsufficient):
            em.compare_scaled_exp(close_to_e, Fraction(1), Fraction(1))


def radius(c, m):
    """Theorem 1's radius floor(c sqrt(m)) + 2 on m coordinates."""
    [(_, r, _)] = hm.interior_ratio_cases(m, [c])
    return r


class TestFloorPlusCSqrt:
    def test_matches_float_on_safe_cases(self):
        for c in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0):
            for m in (4, 6, 16, 81):
                assert radius(c, m) == int(math.floor(c * math.sqrt(m) + 2))

    def test_exact_on_boundary(self):
        # 1.0 * sqrt(4) + 2 = 4 exactly
        assert radius(1.0, 4) == 4
        assert radius(Fraction(3, 2), 4) == 5
