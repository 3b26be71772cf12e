import math

import mpmath
import pytest

from robustness_envelope import gaussian
from robustness_envelope.errors import PrecisionInsufficient


def test_cdf_reference_points():
    assert abs(gaussian.std_normal_cdf(0) - 0.5) < 1e-25
    assert abs(gaussian.std_normal_cdf(0.5) - mpmath.mpf("0.691462461274013")) < 1e-14
    assert abs(gaussian.std_normal_cdf(-0.5) - mpmath.mpf("0.308537538725987")) < 1e-14


def test_grid_range_endpoints_exact():
    grid = gaussian.grid_range(-6.0, 0.5, 0.01)
    assert grid[0] == -6.0
    assert grid[-1] == 0.5
    assert len(grid) == 651


def test_checks_pass_on_coarse_grid():
    report = gaussian.gaussian_checks(
        gaussian.grid_range(-4.0, 0.5, 0.1),
        gaussian.grid_range(0.5, 3.0, 0.5))
    assert report.all_ok
    assert not report.failures
    assert report.min_margins["monotone"] > 0


def test_tail_bound_examples():
    # Phi(0) = 1/2 < 1 and Phi(0.5) ~ 0.6915 < e^{-0.125} ~ 0.8825
    report = gaussian.gaussian_checks([0.0, 0.5], [1.0])
    assert report.tail_bound_ok
    # c = 1 ratio: 0.4462 < 2 e^{-0.5} ~ 1.2131
    assert report.ratio_at_half_ok


def test_precision_guard_raises_instead_of_guessing(monkeypatch):
    # An absurdly loose certified error makes every margin undecidable.
    monkeypatch.setattr(gaussian, "PRECISION", 0.5)
    with pytest.raises(PrecisionInsufficient):
        gaussian.gaussian_checks([-1.0, 0.0], [1.0])


def test_empty_grid_rejected():
    with pytest.raises(ValueError):
        gaussian.gaussian_checks([], [1.0])


def oracle_gaussian_checks(grid, k_grid, precision=1e-12):
    """The four-loop implementation, kept as a test oracle: one loop per
    check, each ratio Phi(x-k)/Phi(x) computed again where it is used."""
    if not grid:
        raise ValueError("grid must be nonempty")
    dps = max(25, int(math.ceil(-math.log10(precision))) + 15)
    xs = sorted(float(v) for v in grid)
    ks = [float(v) for v in k_grid]
    eps = mpmath.mpf(precision)

    with mpmath.workdps(dps):
        half = mpmath.mpf("0.5")
        phi_cache: dict = {}

        def phi(v):
            got = phi_cache.get(v)
            if got is None:
                got = mpmath.erfc(-v / mpmath.sqrt(2)) / 2
                phi_cache[v] = got
            return got

        def separated(margin, scale, label, allow_equal=False):
            # Margin must clear twice the certified evaluation error at
            # this scale; otherwise the comparison is not decided.  Exact
            # equality of the computed values is accepted only for
            # non-strict inequalities (identical cached evaluations).
            if allow_equal and margin == 0:
                return True
            guard = 2 * eps * scale
            if margin > guard:
                return True
            if margin < -guard:
                return False
            raise PrecisionInsufficient(
                f"{label}: margin {mpmath.nstr(margin, 6)} within guard "
                f"{mpmath.nstr(guard, 6)}")

        failures = []
        min_margins = {"monotone": mpmath.inf, "tail": mpmath.inf,
                       "ratio_half": mpmath.inf, "ratio_general": mpmath.inf}
        points = 0

        monotone_ok = True
        for k in ks:
            mk = mpmath.mpf(k)
            previous = None
            for x in xs:
                mx = mpmath.mpf(x)
                ratio = phi(mx - mk) / phi(mx)
                if previous is not None:
                    diff = ratio - previous
                    scale = ratio + previous
                    rel = diff / scale
                    if rel < min_margins["monotone"]:
                        min_margins["monotone"] = rel
                    if not separated(diff, scale, f"monotone k={k} x={x}",
                                     allow_equal=True):
                        monotone_ok = False
                        failures.append(("monotone", k, x))
                previous = ratio
                points += 1

        tail_ok = True
        for x in xs:
            if x > 0.5:
                continue
            mx = mpmath.mpf(x)
            lhs = phi(mx)
            rhs = mpmath.exp(-mx * mx / 2)
            margin = rhs - lhs
            rel = margin / (lhs + rhs)
            if rel < min_margins["tail"]:
                min_margins["tail"] = rel
            if not separated(margin, lhs + rhs, f"tail x={x}"):
                tail_ok = False
                failures.append(("tail", x))
            points += 1

        ratio_half_ok = True
        phi_half = phi(half)
        for k in ks:
            mk = mpmath.mpf(k)
            lhs = phi(half - mk) / phi_half
            rhs = 2 * mpmath.exp(-mk * mk / 2)
            margin = rhs - lhs
            rel = margin / (lhs + rhs)
            if rel < min_margins["ratio_half"]:
                min_margins["ratio_half"] = rel
            if not separated(margin, lhs + rhs, f"ratio_half c={k}"):
                ratio_half_ok = False
                failures.append(("ratio_half", k))
            points += 1

        # Stricter variant: the same bound with the ratio anchored at any
        # grid point at or below 1/2, not just at 1/2 itself.
        ratio_general_ok = True
        anchors = [x for x in xs if x <= 0.5]
        for k in ks if anchors else []:
            mk = mpmath.mpf(k)
            rhs = 2 * mpmath.exp(-mk * mk / 2)
            worst = None
            for x in anchors:
                mx = mpmath.mpf(x)
                ratio = phi(mx - mk) / phi(mx)
                if worst is None or ratio > worst:
                    worst = ratio
            margin = rhs - worst
            rel = margin / (worst + rhs)
            if rel < min_margins["ratio_general"]:
                min_margins["ratio_general"] = rel
            if not separated(margin, worst + rhs, f"ratio_general c={k}"):
                ratio_general_ok = False
                failures.append(("ratio_general", k))
            points += 1

        report = gaussian.GaussianChecksReport(
            ratio_monotone_ok=monotone_ok,
            tail_bound_ok=tail_ok,
            ratio_at_half_ok=ratio_half_ok,
            ratio_general_ok=ratio_general_ok,
            points_checked=points,
            min_margins={name: float(v) for name, v in min_margins.items()},
            failures=failures,
        )
    return report


ORACLE_GRIDS = {
    "acceptance": (gaussian.grid_range(-6.0, 0.5, 0.01),
                   gaussian.grid_range(0.1, 4.0, 0.1)),
    "coarse": (gaussian.grid_range(-4.0, 0.5, 0.1),
               gaussian.grid_range(0.5, 3.0, 0.5)),
    "without-half": (gaussian.grid_range(-4.0, 0.4, 0.2), [0.5, 1.0, 2.5]),
    "above-half": (gaussian.grid_range(-2.0, 2.0, 0.25), [0.3, 1.0, 3.0]),
    "single-k": (gaussian.grid_range(-3.0, 0.5, 0.05), [1.5]),
    "no-anchors": ([2.0, 0.75, 1.0], [0.5, 1.0]),
}


@pytest.mark.parametrize("name", ORACLE_GRIDS)
def test_report_equals_oracle(name):
    grid, k_grid = ORACLE_GRIDS[name]
    assert gaussian.gaussian_checks(grid, k_grid) == \
        oracle_gaussian_checks(grid, k_grid)


REAL_ERFC = mpmath.erfc
REAL_MATH_ERFC = math.erfc


def patch_erfc(monkeypatch, fault):
    """Apply one fault to both evaluators, mpmath's erfc and the float
    filter's ``math.erfc``, so that both see it."""
    monkeypatch.setattr(mpmath, "erfc", fault(REAL_ERFC, mpmath))
    monkeypatch.setattr(math, "erfc", fault(REAL_MATH_ERFC, math))


def bumped_erfc(z0, height, width):
    """erfc times a Gaussian bump at ``z0``: Phi(v) lifted near
    v = -z0 sqrt(2) only."""
    return lambda erfc, lib: lambda z: erfc(z) * (
        1 + height * lib.exp(-width * (z - z0) ** 2))


def unchanged(erfc, lib):
    return erfc


# Each faulty erfc, built from an erfc and its library's exp and sin,
# makes (at least) the named check fail.
FAULTY_ERFC = {
    # Phi times a wobble is not log-concave, so shifted ratios dip
    "monotone": lambda erfc, lib: lambda z: erfc(z) * (1 + lib.sin(20 * z) / 2),
    # Phi tripled leaves every ratio alone, but Phi(0) = 3/2 > 1
    "tail": lambda erfc, lib: lambda z: erfc(z) * 3,
    # Phi tilted by exp(-5v/sqrt(2)) multiplies each ratio by exp(5k/sqrt(2))
    "ratio_half": lambda erfc, lib: lambda z: erfc(z) * lib.exp(5 * z),
    # a bump near v = -2.1 lifts ratios anchored below 1/2 only
    "ratio_general": bumped_erfc(1.5, 50, 50),
}


@pytest.mark.parametrize("check", FAULTY_ERFC)
def test_forced_failures_equal_oracle(monkeypatch, check):
    patch_erfc(monkeypatch, FAULTY_ERFC[check])
    grid, k_grid = gaussian.grid_range(-3.0, 1.0, 0.25), [0.5, 1.0, 2.0]
    report = gaussian.gaussian_checks(grid, k_grid)
    assert check in {name for name, *_ in report.failures}
    assert report == oracle_gaussian_checks(grid, k_grid)


# (grid, k grid, certified precision, erfc fault) whose first undecided
# margin belongs to the named check.
GUARD_CASES = {
    "monotone": ([-1.0, 0.0], [1.0], 0.5, unchanged),
    "tail": ([-2.0, 0.5], [2.0], 0.1, unchanged),
    "ratio_half": ([-2.0], [1.0], 0.3, unchanged),
    # Phi(-2) lifted 8.4-fold: the ratio anchored at -1 nears its bound
    # while the monotone step from it fails outright
    "ratio_general": ([-1.0, 0.25], [1.0], 0.1,
                      bumped_erfc(math.sqrt(2), 7.4, 1000)),
}


@pytest.mark.parametrize("check", GUARD_CASES)
def test_guard_raises_like_oracle(monkeypatch, check):
    grid, k_grid, precision, fault = GUARD_CASES[check]
    patch_erfc(monkeypatch, fault)
    monkeypatch.setattr(gaussian, "PRECISION", precision)
    with pytest.raises(PrecisionInsufficient) as got:
        gaussian.gaussian_checks(grid, k_grid)
    with pytest.raises(PrecisionInsufficient) as want:
        oracle_gaussian_checks(grid, k_grid, precision)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(check + " ")


def suite_arguments():
    """Every (float, exact) argument pair at which the gaussian suite
    evaluates Phi: the grid, x - k for every x and k, 1/2 - k and 1/2."""
    grid, k_grid = ORACLE_GRIDS["acceptance"]
    pairs = {(x, mpmath.mpf(x)) for x in grid + [0.5]}
    for k in k_grid:
        pairs |= {(x - k, mpmath.mpf(x) - mpmath.mpf(k)) for x in grid + [0.5]}
    return pairs


def test_float_phi_within_bound_on_suite_arguments():
    dps = 27
    worst = 0.0
    arguments = suite_arguments()
    with mpmath.workdps(dps):
        for v, exact in arguments:
            want = gaussian.std_normal_cdf(exact, dps)
            worst = max(worst, float(abs(gaussian.float_phi(v) / want - 1)))
    assert worst <= gaussian.FLOAT_ERR
    assert len(arguments) > 1900


def test_float_phi_within_bound_down_to_underflow():
    with mpmath.workdps(27):
        for i in range(2001):
            v = -37.5 + i * 45.5 / 2000
            want = gaussian.std_normal_cdf(v, 27)
            assert abs(gaussian.float_phi(v) / want - 1) <= gaussian.FLOAT_ERR, v
    # below the normal floats the filter gets NaN and defers to mpmath
    assert math.isnan(gaussian.float_phi(-38.5))
    assert math.isnan(gaussian.float_phi(-1e3))


@pytest.mark.parametrize("name", ["coarse", "above-half", "no-anchors"])
def test_filter_off_gives_the_same_report(monkeypatch, name):
    # a float error bound of 1 sends every comparison and every margin to
    # mpmath
    grid, k_grid = ORACLE_GRIDS[name]
    filtered = gaussian.gaussian_checks(grid, k_grid)
    monkeypatch.setattr(gaussian, "FLOAT_ERR", 1.0)
    assert gaussian.gaussian_checks(grid, k_grid) == filtered


def test_filter_leaves_few_certified_evaluations(monkeypatch):
    calls = []

    def counting(z):
        calls.append(z)
        return REAL_ERFC(z)

    monkeypatch.setattr(mpmath, "erfc", counting)
    gaussian.gaussian_checks(*ORACLE_GRIDS["acceptance"])
    assert len(calls) <= 10  # 7073 without the filter
