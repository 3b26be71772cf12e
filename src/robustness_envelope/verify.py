"""Named verification suites: every supporting inequality machine-checked
at desk scale, with margins.

Each suite returns a deterministic, canonically ordered report; a failed
check names its first counterexample.  The suites are what the command
line's ``verify`` command runs and what the acceptance tests assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import exactmath, gaussian, hamming, perturb, robustness
from .classifiers import (
    ClassifierHandle,
    parse_classifier_spec,
    random_classifier,
    sum_classifier,
)
from .exactmath import DiscretePMF
from .image_space import (
    PerturbationBudget,
    SpaceParams,
    image_from_rank,
    level_diff_pow_sum,
    norm_distance,
    philox_rng,
)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    margin: Optional[float]
    detail: str


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class VerifyConfig:
    """Scale knobs; the defaults are the acceptance-criteria scales."""

    seed: int = 7
    samples: int = 10_000
    random_subsets: int = 100_000
    balanced_small: int = 1000
    balanced_large: int = 100

    def __post_init__(self):
        # a sweep over no subsets or classifiers passes with margin inf;
        # no samples fails only in theorem3, after the other suites ran
        for name in ("samples", "random_subsets", "balanced_small",
                     "balanced_large"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


# --- binomial suite ----------------------------------------------------------

# largest n of the mode-bound, tail-ratio and Hoeffding sweeps
MODE_BOUND_N = 10_000
TAIL_RATIO_N = 40
HOEFFDING_N = 64


def suite_binomial(cfg: VerifyConfig) -> SuiteReport:
    checks = []

    bad = [(n, k) for n in range(2, 201) for k in range(1, n)
           if exactmath.binom(n, k) != exactmath.binom(n - 1, k - 1)
           + exactmath.binom(n - 1, k)]
    checks.append(CheckResult("binomial/pascal-identity", not bad, None,
                              f"n <= 200; first violation {bad[0]}" if bad
                              else "n <= 200, exhaustive"))

    bad = [n for n in range(1, 201)
           if sum(exactmath.binom(n, k) for k in range(n + 1)) != 1 << n]
    checks.append(CheckResult("binomial/row-sum", not bad, None,
                              f"first violation n={bad[0]}" if bad
                              else "n <= 200, exhaustive"))

    violation, min_gap = exactmath.mode_bound_sweep(MODE_BOUND_N)
    spot_ok = all(exactmath.mode_bound_holds(n) for n in (1, 2, 7, 100, 9999))
    checks.append(CheckResult(
        "binomial/mode-bound", violation is None and spot_ok, min_gap,
        f"n <= {MODE_BOUND_N}, min log gap {min_gap:.6f}"
        + ("" if violation is None else f"; violated at n={violation}")))

    p_grid = [Fraction(j, 10) for j in range(1, 10)]
    violations, min_diff = exactmath.tail_ratio_monotone_violations(
        TAIL_RATIO_N, 5, p_grid)
    checks.append(CheckResult(
        "binomial/tail-ratio-monotone", not violations, min_diff,
        f"n <= {TAIL_RATIO_N}, k <= 5, p in j/10; "
        + (f"first violation {violations[0]}" if violations else "exhaustive")))

    p_sweep = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    violations, min_margin = exactmath.hoeffding_sweep_violations(
        HOEFFDING_N, p_sweep)
    checks.append(CheckResult(
        "binomial/hoeffding-ratio", not violations, min_margin,
        f"admissible sweep n <= {HOEFFDING_N}, p in (1/4,1/2,3/4); "
        + (f"first violation {violations[0]}" if violations else "exhaustive")))

    bad = []
    for p in p_sweep:
        base = exactmath.pmf_bernoulli(p)
        acc = base
        for n in range(1, 65):
            if n > 1:
                acc = exactmath.pmf_convolve(acc, base)
            table = exactmath.tail_table(n, p)
            for k in (0, n // 2, n - 1):
                if acc.cdf_at(k) != table.cdf_at(k):
                    bad.append((n, k, p))
    checks.append(CheckResult(
        "binomial/tail-vs-convolution", not bad, None,
        "n <= 64, tails equal exact convolution CDFs"
        + (f"; first mismatch {bad[0]}" if bad else "")))

    return SuiteReport("binomial", tuple(checks))


# --- hamming suite -----------------------------------------------------------

_C_GRID = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]


def _first_failure(margins: np.ndarray, failed) -> tuple[float, Optional[tuple]]:
    """Worst margin of the entries up to the first failed one in row-major
    order, and that entry's (row, column) or None."""
    first = next(iter(failed), None)
    if first is None:
        return float(margins.min(initial=math.inf)), None
    row, col = int(first[0]), int(first[1])
    seen = min(margins[:row].min(initial=math.inf), margins[row, :col + 1].min())
    return float(seen), (row, col)


def _sweep(check_id: str, chunks, columns, detail: str) -> CheckResult:
    """First failure over chunks ``(rows, ..., margins, holds)`` of slot
    rows, its counterexample the failing row and its column's label."""
    worst = math.inf
    for rows, *_, margins, holds in chunks:
        seen, bad = _first_failure(margins, np.argwhere(~holds))
        worst = min(worst, seen)
        if bad is not None:
            return CheckResult(check_id, False, worst, "counterexample bits="
                               f"{hamming.pack_slots(rows[bad[0]]):#x}"
                               f"{columns[bad[1]]}")
    return CheckResult(check_id, True, worst, detail)


def _sweep_interior_ratio(dims: int, q: int, kind: str, blocks,
                          detail: str) -> CheckResult:
    cases = hamming.interior_ratio_cases(dims, _C_GRID)
    chunks = hamming.interior_ratios(hamming.GraphParams(dims, q), blocks, cases)
    return _sweep(f"hamming/interior-ratio-H({dims},{q})-{kind}", chunks,
                  [f" at c={c}" for c, _, _ in cases], f"{detail}, c in {_C_GRID}")


def _sweep_hamgraph_exhaustive(dims: int, q: int) -> CheckResult:
    half = q ** dims // 2
    return _sweep_interior_ratio(dims, q, "exhaustive", hamming.proper_subset_rows(
        q ** dims, half), f"all subsets with 1 <= |S| <= {half}")


def _sweep_hamgraph_random(dims: int, q: int, count_subsets: int,
                           seed: int) -> CheckResult:
    return _sweep_interior_ratio(dims, q, "random", hamming.seeded_subset_rows(
        q ** dims, count_subsets, seed), f"{count_subsets} seeded subsets")


def _sweep_harper(dims: int, q: int, k_values) -> CheckResult:
    ks, count = sorted(k_values), q ** dims
    return _sweep(
        f"hamming/expansion-lower-bound-H({dims},{q})", hamming.harper_bounds(
            hamming.GraphParams(dims, q),
            hamming.proper_subset_rows(count, count - 1), ks),
        [f", k={k}" for k in ks],
        f"all proper subsets, k in {ks}, tol {hamming.HARPER_TOL}; "
        "integer shell parameter convention")


def _operator_invariants(seed: int) -> CheckResult:
    rng = philox_rng(seed, 1)
    for dims, q in ((4, 2), (3, 3)):
        graph = hamming.GraphParams(dims, q)
        count = graph.vertex_count
        full = (1 << count) - 1
        for _ in range(300):
            bits = int.from_bytes(rng.bytes((count + 7) // 8), "little") & full
            s = hamming.HammingSubset(graph, bits)
            fast = hamming.expand(s)
            a, b, k = (int(rng.integers(0, 3)) for _ in range(3))
            interior = hamming.interior_k(s, k)
            for failed, what in (
                    (fast != hamming.expand_by_neighbors(s),
                     f"expand mismatch on H({dims},{q})"),
                    (not s.issubset(fast), "expansion not extensive on"),
                    (hamming.expand_k(s, a + b) != hamming.expand_k(
                        hamming.expand_k(s, a), b),
                     f"composition failed a={a} b={b} on"),
                    (interior != hamming.expand_k(s.complement(), k).complement(),
                     f"duality failed k={k} on"),
                    (interior != hamming.interior_by_balls(s, k),
                     f"interior oracle mismatch k={k} on")):
                if failed:
                    return CheckResult("hamming/operator-invariants", False,
                                       None, f"{what} {bits:#x}")
    return CheckResult("hamming/operator-invariants", True, None,
                       "expand cross-check, extensivity, composition, duality "
                       "on 600 random subsets")


def suite_hamming(cfg: VerifyConfig) -> SuiteReport:
    checks = [
        _sweep_hamgraph_exhaustive(4, 2),
        _sweep_hamgraph_exhaustive(2, 4),
        _sweep_hamgraph_random(6, 2, cfg.random_subsets, cfg.seed),
        _sweep_hamgraph_random(4, 3, cfg.random_subsets, cfg.seed + 1),
        _sweep_harper(4, 2, {1, 2, 3}),
        _sweep_harper(2, 3, {1}),
        _operator_invariants(cfg.seed),
    ]
    return SuiteReport("hamming", tuple(checks))


# --- anti-concentration suite ------------------------------------------------

def _symmetric_family() -> list[tuple[str, DiscretePMF]]:
    family = [("point0", exactmath.pmf_point(0))]
    for radius in (1, 2, 3):
        family.append((f"uniform±{radius}",
                       exactmath.pmf_uniform_symmetric(radius)))
    for m in (1, 2, 3):
        counts = [0] * (2 * m + 1)
        counts[0] = counts[-1] = 1
        family.append((f"twopoint±{m}", DiscretePMF(-m, tuple(counts), 2)))
    return family


def suite_anticonc(cfg: VerifyConfig) -> SuiteReport:
    checks = []

    worst = math.inf
    counterexample = None
    family = _symmetric_family()
    for n in range(2, 21):
        x = exactmath.pmf_iid_sum(exactmath.pmf_bernoulli(Fraction(1, 2)), n)
        for name, y in family:
            s = exactmath.pmf_convolve(x, y)
            # t = j + 1/2 < n/2: Pr[X + Y <= t] >= Pr[X < t] reads the CDFs
            # of s = x + y and x at j.  The margin skips point0 (Y = 0, equal
            # sides at every t) and steps where both sides are 0.
            for j in range(-2, n // 2):
                lhs, rhs = s.cdf_at(j), x.cdf_at(j)
                margin = float(lhs - rhs)
                if margin < worst and name != "point0" and (lhs or rhs):
                    worst = margin
                if lhs < rhs:
                    counterexample = (n, name, Fraction(2 * j + 1, 2))
                    break
            if counterexample:
                break
        if counterexample:
            break
    checks.append(CheckResult(
        "anticonc/binomial-spread", counterexample is None, worst,
        "n in 2..20, symmetric family, all admissible half-integer t"
        + (f"; counterexample {counterexample}" if counterexample else "")))

    worst = math.inf
    counterexample = None
    t_grid = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2),
              Fraction(4), Fraction(8)]
    for levels in (2, 4, 8):
        base = exactmath.pmf_uniform_levels(levels)
        acc = base
        for n in range(2, 65):
            acc = exactmath.pmf_convolve(acc, base)
            for t in t_grid:
                threshold = (Fraction(n, 2) - t + 1) * (levels - 1)
                lhs = acc.cdf_at(math.floor(threshold))
                rhs = 0.5 - 2 * float(t) / math.sqrt(n)
                margin = float(lhs) - rhs
                if margin < worst:
                    worst = margin
                gap = Fraction(1, 2) - lhs
                if gap >= 0 and gap * gap * n >= 4 * t * t:
                    counterexample = (n, levels, t)
                    break
            if counterexample:
                break
        if counterexample:
            break
    checks.append(CheckResult(
        "anticonc/sum-left-tail", counterexample is None, worst,
        "n in 2..64, 2k in (2,4,8), t grid"
        + (f"; counterexample {counterexample}" if counterexample else "")))

    spot = all(exactmath.anti_concentration_holds(n, levels, t)
               for n in (2, 16, 64) for levels in (2, 4, 8) for t in t_grid)
    spot = spot and all(
        exactmath.binomial_spread_holds(n, y, Fraction(2 * j + 1, 2))
        for n in (4, 11, 20) for _, y in family for j in (-2, 0, n // 2 - 1))
    checks.append(CheckResult("anticonc/operation-spot-check", spot, None,
                              "direct operation calls agree on spot grid"))

    return SuiteReport("anticonc", tuple(checks))


# --- gaussian suite ----------------------------------------------------------

def suite_gaussian(cfg: VerifyConfig) -> SuiteReport:
    grid = gaussian.grid_range(-6.0, 0.5, 0.01)
    k_grid = gaussian.grid_range(0.1, 4.0, 0.1)
    report = gaussian.gaussian_checks(grid, k_grid)
    checks = [
        CheckResult("gaussian/ratio-monotone", report.ratio_monotone_ok,
                    report.min_margins["monotone"],
                    "Phi(x-k)/Phi(x) nondecreasing on the grid"),
        CheckResult("gaussian/tail-bound", report.tail_bound_ok,
                    report.min_margins["tail"],
                    "Phi(x) < exp(-x^2/2) for x <= 1/2"),
        CheckResult("gaussian/ratio-bound-at-half", report.ratio_at_half_ok,
                    report.min_margins["ratio_half"],
                    "Phi(1/2-c)/Phi(1/2) < 2 exp(-c^2/2)"),
        CheckResult("gaussian/ratio-bound-general", report.ratio_general_ok,
                    report.min_margins["ratio_general"],
                    "same bound anchored at every grid x <= 1/2"),
    ]
    if report.failures:
        checks = [replace(c, detail=c.detail + f"; failures {report.failures[:3]}")
                  for c in checks]
    return SuiteReport("gaussian", tuple(checks))


# --- theorem suites ----------------------------------------------------------

_THEOREM1_C = (0.5, 0.75, 1.0)


def _theorem1_batch(check_id: str, classifiers, c_values) -> CheckResult:
    worst = math.inf
    for report in robustness.theorem1_reports(classifiers, c_values):
        for entry in report.entries:
            if entry.margin < worst:
                worst = entry.margin
            if not entry.holds:
                return CheckResult(check_id, False, worst,
                                   f"violated by {report.classifier} label "
                                   f"{entry.label} at c={entry.c}")
    return CheckResult(check_id, True, worst, f"c grid {tuple(c_values)}")


def suite_theorem1(cfg: VerifyConfig) -> SuiteReport:
    small = SpaceParams(2, 1, 1)
    large = SpaceParams(2, 1, 2)
    checks = [
        _theorem1_batch("theorem1/sum-(2,1,1)", [sum_classifier(small)],
                        _THEOREM1_C),
        _theorem1_batch(
            f"theorem1/balanced-x{cfg.balanced_small}-(2,1,1)",
            (random_classifier(small, 2, "balanced", seed)
             for seed in range(cfg.balanced_small)), _THEOREM1_C),
        _theorem1_batch(
            f"theorem1/balanced-x{cfg.balanced_large}-(2,1,2)",
            (random_classifier(large, 2, "balanced", seed)
             for seed in range(cfg.balanced_large)), _THEOREM1_C),
        _theorem1_batch("theorem1/sum-(2,1,2)", [sum_classifier(large)],
                        _THEOREM1_C),
    ]
    return SuiteReport("theorem1", tuple(checks))


def suite_theorem2(cfg: VerifyConfig) -> SuiteReport:
    checks = []
    params = SpaceParams(16, 1, 1)
    worst = math.inf
    bad = None
    for j in range(1, 5):
        c = Fraction(j, 20)
        size = c * 16 - 2  # sqrt(h) * n = 16 here
        fraction = robustness.sum_exact_fraction_L1(params, size)
        target = 1 - 4 * c
        margin = float(fraction - target)
        worst = min(worst, margin)
        if fraction < target:
            bad = c
            break
    checks.append(CheckResult(
        "theorem2/exact-fractions-(16,1,1)", bad is None, worst,
        "c in {0.05..0.20}, exact tail ratios"
        + (f"; violated at c={bad}" if bad else "")))

    for shape in ((2, 1, 1), (3, 1, 1)):
        params = SpaceParams(*shape)
        classifier = sum_classifier(params)
        mismatch = None
        for d in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2),
                  Fraction(2), Fraction(3)):
            analytic = robustness.sum_exact_fraction_L1(params, d)
            exhaustive = robustness.class_robust_fraction(
                classifier, 0, PerturbationBudget(1, d)).fraction
            if analytic != exhaustive:
                mismatch = (d, analytic, exhaustive)
                break
        checks.append(CheckResult(
            f"theorem2/analytic-vs-exhaustive-{shape}", mismatch is None, None,
            "exact agreement on d grid"
            + (f"; mismatch {mismatch}" if mismatch else "")))
    return SuiteReport("theorem2", tuple(checks))


# walk-equals-oracle: (shape, classifier spec) cases, draws and radii; at
# these radii 1-35 % of the walks fail
WALK_ORACLE_CASES = (((2, 1, 2), "sum"), ((3, 1, 1), "linthresh:0"),
                     ((1, 3, 1), "sum"))
WALK_ORACLE_SAMPLES = 500
WALK_ORACLE_RADII = (0.25, 0.5)


def _walk_against_oracle(walk: perturb._CellWalk, ranks: np.ndarray,
                         coords: np.ndarray, radii) -> tuple[np.ndarray, ...]:
    """The walk's ``hits`` at each of ``radii`` for class-0 draws (rows of
    member ``ranks`` and cell points ``coords``), walked once at the
    largest radius, with each draw's cell and where the hits differ from
    the full-enumeration oracle's."""
    nearest = perturb.nearest_cell_exhaustive(
        walk.classifier,
        [perturb.ContinuousPoint(point) for point in coords.tolist()], 0)
    d2, cells = walk.walks(ranks, coords, 0, max(radii))
    hits = walk.hits(ranks, coords, d2, cells, 0, radii)
    oracle = np.array([d2 for d2, _ in nearest])[:, None] <= np.square(radii)
    return hits, cells, hits != oracle


def suite_theorem3(cfg: VerifyConfig) -> SuiteReport:
    checks = []
    params = SpaceParams(2, 1, 2)
    classifier = sum_classifier(params)
    radii = (1.5, 2.0)

    # Walk contracts against the independent full-enumeration oracle, with
    # the length bound compared exactly on integer level differences.
    members, points = [], []  # one row per (member, radius), radius-minor
    for index in range(300):
        member = robustness.sample_sum_class_member(
            params, 0, philox_rng(cfg.seed, index))
        for at in range(len(radii)):
            members.append(member)
            points.append(perturb.sample_point_in_cell(member, philox_rng(
                cfg.seed ^ 0x5EED, index * len(radii) + at)).coords)
    hits, cells, wrong = _walk_against_oracle(
        perturb._CellWalk(classifier, classifier.labels()),
        np.array([member.space_rank() for member in members]),
        np.array(points), radii)
    contract_bad = None
    worst = math.inf
    for row, member in enumerate(members):
        index, at = divmod(row, len(radii))
        radius = radii[at]
        if wrong[row, at]:
            contract_bad = (index, radius, "completeness")
            break
        if hits[row, at]:
            # Exact length check: (||i - i'||_2)^2 <= (radius + 2n sqrt(h)/2^b)^2,
            # both sides rational here (h = 1).
            result = image_from_rank(params, int(cells[row]))
            pow_sum = level_diff_pow_sum(member, result, 2)
            bound = Fraction(radius) + Fraction(2 * params.n, params.level_count)
            if Fraction(pow_sum, params.max_level ** 2) > bound * bound:
                contract_bad = (index, radius, "length-bound")
                break
            worst = min(worst,
                        float(bound) - float(norm_distance(member, result, 2)))
    checks.append(CheckResult(
        "theorem3/walk-contracts-(2,1,2)", contract_bad is None, worst,
        "300 seeded members, radii (1.5, 2.0): success iff a different-class "
        "cell intersects the ball; exact length bound"
        + (f"; failed {contract_bad}" if contract_bad else "")))

    # The same completeness on failure_rate's own draws, at radii where
    # walks fail: each sample's success must be the oracle's, exactly.
    mismatch = None
    failures = []  # per case: its failure counts at each radius
    for shape, spec in WALK_ORACLE_CASES:
        case = parse_classifier_spec(spec, SpaceParams(*shape))
        case_walk = perturb._CellWalk(case, case.labels())
        ranks, points = map(np.concatenate, zip(*perturb._class_draws(
            case_walk, 0, WALK_ORACLE_SAMPLES, cfg.seed)))
        hits, _, wrong = _walk_against_oracle(case_walk, ranks, points,
                                              WALK_ORACLE_RADII)
        if mismatch is None and wrong.any():
            index, at = divmod(int(wrong.argmax()), len(WALK_ORACLE_RADII))
            mismatch = (shape, spec, WALK_ORACLE_RADII[at], index)
        failed = (len(hits) - np.count_nonzero(hits, axis=0)).tolist()
        failures.append(f"{shape} {spec} {', '.join(map(str, failed))}")
    checks.append(CheckResult(
        "theorem3/walk-equals-oracle", mismatch is None, None,
        f"{WALK_ORACLE_SAMPLES} failure_rate draws per case, radii "
        f"{WALK_ORACLE_RADII}: walk success iff the oracle's nearest "
        "different-class cell is within the radius; failures "
        + "; ".join(failures)
        + (f"; mismatch {mismatch}" if mismatch else "")))

    for radius, report in zip(radii, perturb.failure_rates(
            classifier, 0, radii, cfg.samples, cfg.seed)):
        bound = 2.0 * math.exp(-radius * radius / 2) + 0.02
        margin = bound - report.ci95[1]
        checks.append(CheckResult(
            f"theorem3/failure-rate-r{radius}", report.ci95[1] < bound, margin,
            f"{report.failures}/{report.samples} failures, CI "
            f"({report.ci95[0]:.4f}, {report.ci95[1]:.4f}), bound {bound:.4f}"))

    # Measured L2 robustness at size c + 2 n sqrt(h) / 2^b stays below the
    # failure bound (the discretization consequence), checked exhaustively.
    worst = math.inf
    bad = None
    for c in radii:
        size = Fraction(c) + Fraction(2 * params.n, params.level_count)
        budget = PerturbationBudget(2, float(size), size_pow=size * size)
        report = robustness.class_robust_fraction(classifier, 0, budget)
        bound = 2.0 * math.exp(-c * c / 2)
        margin = bound - float(report.fraction)
        worst = min(worst, margin)
        if not float(report.fraction) < bound:
            bad = c
    checks.append(CheckResult(
        "theorem3/l2-robust-fraction-(2,1,2)", bad is None, worst,
        "exhaustive class-0 fraction at size c + 2n sqrt(h)/2^b below "
        "2 exp(-c^2/2)" + (f"; violated at c={bad}" if bad else "")))

    # Higher-p reduction: robust at Lp size d^(2/p) implies robust at L2
    # size d, budgets carried as exact squared sizes.
    bad = None
    for d in (Fraction(3, 2), Fraction(5, 2)):
        l2 = robustness.robust_flags(classifier, PerturbationBudget(
            2, float(d), size_pow=d * d))
        for p in (3, 4):
            lp = robustness.robust_flags(classifier, PerturbationBudget(
                p, float(d) ** (2 / p), size_pow=d * d))
            if not (~lp | l2).all():
                bad = (d, p)
                break
        if bad:
            break
    checks.append(CheckResult(
        "theorem3/higher-p-reduction-(2,1,2)", bad is None, None,
        "robust at Lp size d^(2/p) implies robust at L2 size d, p in (3,4)"
        + (f"; violated at {bad}" if bad else "")))

    return SuiteReport("theorem3", tuple(checks))


def classifier_zoo(params: SpaceParams) -> list[ClassifierHandle]:
    """The desk-scale battery: the sum classifier plus seeded random kinds."""
    return [
        sum_classifier(params),
        random_classifier(params, 2, "balanced", 11),
        random_classifier(params, 2, "balanced", 12),
        random_classifier(params, 2, "uniform", 21),
        random_classifier(params, 3, "uniform", 22),
        random_classifier(params, 2, "linear_threshold", 31),
    ]


def suite_reductions(cfg: VerifyConfig) -> SuiteReport:
    checks = []
    for shape in ((2, 1, 1), (2, 1, 2), (3, 1, 1)):
        bad = None
        for classifier in classifier_zoo(SpaceParams(*shape)):
            found = robustness.first_reduction_violation(classifier, (1, 2, 3),
                                                         (2, 3))
            if found:
                bad = (classifier.spec, *found)
                break
        checks.append(CheckResult(
            f"reductions/zoo-{shape}", bad is None, None,
            "d in (1,2,3), p in (2,3), exhaustive"
            + (f"; violated {bad}" if bad else "")))
    return SuiteReport("reductions", tuple(checks))


SUITES: dict[str, Callable[[VerifyConfig], SuiteReport]] = {
    "binomial": suite_binomial,
    "hamming": suite_hamming,
    "anticonc": suite_anticonc,
    "gaussian": suite_gaussian,
    "theorem1": suite_theorem1,
    "theorem2": suite_theorem2,
    "theorem3": suite_theorem3,
    "reductions": suite_reductions,
}


def run_suites(names, cfg: VerifyConfig) -> list[SuiteReport]:
    """Run the named suites in canonical (sorted) order."""
    names = sorted(names)
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
    return [SUITES[name](cfg) for name in names]
