"""Certified scalar checks on the standard normal CDF.

The inequalities verified here are the continuous counterparts of the
exact binomial-tail facts in :mod:`exactmath`: monotonicity of shifted
CDF ratios, the ``e^{-x^2/2}`` tail bound on the left half-line, and the
``2 e^{-c^2/2}`` bound on CDF ratios anchored at 1/2 (and, more
stringently, at every grid point at or below 1/2).

Evaluation uses mpmath's ``erfc`` at a working precision far beyond the
certified error bound ``PRECISION``; a comparison whose observed margin
does not clear twice that bound raises instead of guessing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import mpmath

from .errors import PrecisionInsufficient


PRECISION = 1e-12  # certified relative error of each CDF evaluation
# relative error bound of float_phi; a float ratio of two such values, or a
# float bound 2 exp(-k^2/2) that is a normal float, is within 3 FLOAT_ERR
FLOAT_ERR = 2.0 ** -40
_CHECKS = ("monotone", "tail", "ratio_half", "ratio_general")
_SQRT2 = math.sqrt(2)


def std_normal_cdf(x, dps: int = 30):
    """Standard normal CDF as an mpmath float at ``dps`` digits."""
    with mpmath.workdps(dps):
        return mpmath.erfc(-mpmath.mpf(x) / mpmath.sqrt(2)) / 2


def float_phi(v: float) -> float:
    """Standard normal CDF in double precision, within relative error
    ``FLOAT_ERR`` wherever the value is a normal float (NaN elsewhere, so
    the filter defers to mpmath there)."""
    got = math.erfc(-v / _SQRT2) / 2
    return got if got >= sys.float_info.min else math.nan


@dataclass
class GaussianChecksReport:
    """Outcome of the scalar normal-CDF inequality suite."""

    ratio_monotone_ok: bool
    tail_bound_ok: bool
    ratio_at_half_ok: bool
    ratio_general_ok: bool
    points_checked: int
    min_margins: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return (self.ratio_monotone_ok and self.tail_bound_ok
                and self.ratio_at_half_ok and self.ratio_general_ok)


def grid_range(start: float, stop: float, step: float) -> list[float]:
    """Inclusive float grid built from integer multiples of ``step``.

    Values are rounded to 12 decimals so nominal endpoints like 0.5 stay
    exact under float accumulation.
    """
    count = int(round((stop - start) / step))
    return [round(start + i * step, 12) for i in range(count + 1)]


def _float_rel(lhs: float, rhs: float) -> float:
    """``(rhs - lhs) / (lhs + rhs)``, NaN unless both sides are positive."""
    if lhs > 0 and rhs > 0:
        return (rhs - lhs) / (lhs + rhs)
    return math.nan


def _float_max(values) -> float:
    """Largest non-NaN value, NaN if there is none."""
    return max((v for v in values if v == v), default=math.nan)


def _float_row(xs: Sequence[float], phi_xs: Sequence[float],
               k: float) -> list[float]:
    """Float ratios ``Phi(x-k)/Phi(x)`` over the grid."""
    return [float_phi(x - k) / px for x, px in zip(xs, phi_xs)]


def _float_entries(xs: Sequence[float], phi_xs: Sequence[float],
                   ks: Sequence[float], anchors: int):
    """Yield ``(check, key, float relative margin)`` for every comparison,
    in the order the checks run; ``key`` locates the comparison for its
    certified evaluation.  Nothing is kept per comparison."""
    tops = []
    for j, k in enumerate(ks):
        row = _float_row(xs, phi_xs, k)
        for i in range(1, len(xs)):
            yield "monotone", (j, i), _float_rel(row[i - 1], row[i])
        tops.append(_float_max(row[:anchors]))
    for i, x in enumerate(xs[:anchors]):
        yield "tail", i, _float_rel(phi_xs[i], math.exp(-x * x / 2))
    half = float_phi(0.5)
    for j, k in enumerate(ks):
        yield "ratio_half", j, _float_rel(float_phi(0.5 - k) / half,
                                          2 * math.exp(-k * k / 2))
    if anchors:
        for j, (k, top) in enumerate(zip(ks, tops)):
            yield "ratio_general", j, _float_rel(top, 2 * math.exp(-k * k / 2))


def gaussian_checks(grid: Sequence[float],
                    k_grid: Sequence[float]) -> GaussianChecksReport:
    """Run the scalar normal-CDF checks on a grid of evaluation points.

    Per grid point x (ascending) and shift k in ``k_grid``:

    * ``Phi(x-k)/Phi(x)`` is nondecreasing in x;
    * ``Phi(x) < exp(-x^2/2)`` wherever ``x <= 1/2``;
    * ``Phi(1/2-k)/Phi(1/2) < 2 exp(-k^2/2)``, and the same bound for the
      largest ratio anchored at a grid point ``x <= 1/2``.

    Any certified margin below twice the certified error ``PRECISION`` of
    a CDF evaluation raises :class:`PrecisionInsufficient`.

    A float filter runs first.  Both sides of each comparison are within
    ``3 FLOAT_ERR`` of their values, so its float relative margin
    ``(rhs - lhs) / (lhs + rhs)`` is within ``3 FLOAT_ERR`` of the
    certified one, and a float margin above ``2 PRECISION + 8 FLOAT_ERR``
    passes.  Every other comparison is evaluated and decided in mpmath, in
    the same order as without the filter, so failures and
    :class:`PrecisionInsufficient` come out the same.  A second float pass
    evaluates in mpmath only the margins within ``16 FLOAT_ERR`` of each
    check's smallest float margin; these include the smallest certified
    margin, so ``min_margins`` are the certified minima.
    """
    if not grid:
        raise ValueError("grid must be nonempty")
    dps = max(25, int(math.ceil(-math.log10(PRECISION))) + 15)
    xs = sorted(float(v) for v in grid)
    ks = [float(v) for v in k_grid]
    anchors = sum(x <= 0.5 for x in xs)  # a prefix: xs ascends
    phi_xs = [float_phi(x) for x in xs]
    eps = mpmath.mpf(PRECISION)

    with mpmath.workdps(dps):
        phi_cache: dict = {}

        def phi(v):
            got = phi_cache.get(v)
            if got is None:
                got = phi_cache[v] = std_normal_cdf(v, dps)
            return got

        def ratio(x, mk):
            mx = mpmath.mpf(x)
            return phi(mx - mk) / phi(mx)

        half = mpmath.mpf("0.5")
        mks = [mpmath.mpf(k) for k in ks]
        bounds = [2 * mpmath.exp(-mk * mk / 2) for mk in mks]

        def certified(name, key):
            """(lhs, rhs, where) of one comparison, in mpmath."""
            if name == "monotone":
                j, i = key
                return (ratio(xs[i - 1], mks[j]), ratio(xs[i], mks[j]),
                        {"k": ks[j], "x": xs[i]})
            if name == "tail":
                mx = mpmath.mpf(xs[key])
                return phi(mx), mpmath.exp(-mx * mx / 2), {"x": xs[key]}
            if name == "ratio_half":
                return (phi(half - mks[key]) / phi(half), bounds[key],
                        {"c": ks[key]})
            # ratio_general: the largest ratio is among the anchors whose
            # float ratio is within 8 FLOAT_ERR of the largest float ratio
            row = _float_row(xs[:anchors], phi_xs, ks[key])
            cut = _float_max(row) * (1 - 8 * FLOAT_ERR)
            top = max(ratio(x, mks[key]) for x, r in zip(xs, row)
                      if not r < cut)
            return top, bounds[key], {"c": ks[key]}

        failures = []
        float_min = dict.fromkeys(_CHECKS, math.inf)
        clear = 2 * PRECISION + 8 * FLOAT_ERR
        for name, key, rel in _float_entries(xs, phi_xs, ks, anchors):
            if rel < float_min[name]:
                float_min[name] = rel
            if rel > clear:
                continue
            # lhs < rhs (lhs <= rhs for monotone) is decided only when the
            # margin clears twice the certified error at this scale
            lhs, rhs, where = certified(name, key)
            margin, scale = rhs - lhs, lhs + rhs
            guard = 2 * eps * scale
            if margin > guard or (name == "monotone" and margin == 0):
                continue
            if margin < -guard:
                failures.append((name, *where.values()))
                continue
            label = " ".join([name] + [f"{a}={v}" for a, v in where.items()])
            raise PrecisionInsufficient(
                f"{label}: margin {mpmath.nstr(margin, 6)} within guard "
                f"{mpmath.nstr(guard, 6)}")

        min_margins = dict.fromkeys(_CHECKS, mpmath.inf)
        for name, key, rel in _float_entries(xs, phi_xs, ks, anchors):
            if rel > float_min[name] + 16 * FLOAT_ERR:
                continue
            lhs, rhs, _ = certified(name, key)
            min_margins[name] = min(min_margins[name], (rhs - lhs) / (lhs + rhs))

        failed = {name for name, *_ in failures}
        return GaussianChecksReport(
            ratio_monotone_ok="monotone" not in failed,
            tail_bound_ok="tail" not in failed,
            ratio_at_half_ok="ratio_half" not in failed,
            ratio_general_ok="ratio_general" not in failed,
            # every row point, every tail point, one per k for each bound
            points_checked=len(ks) * (len(xs) + 1 + (anchors > 0)) + anchors,
            min_margins={name: float(v) for name, v in min_margins.items()},
            failures=failures,
        )
