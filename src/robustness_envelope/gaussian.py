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
from dataclasses import dataclass, field
from typing import Sequence

import mpmath

from .errors import PrecisionInsufficient


PRECISION = 1e-12  # certified relative error of each CDF evaluation


def std_normal_cdf(x, dps: int = 30):
    """Standard normal CDF as an mpmath float at ``dps`` digits."""
    with mpmath.workdps(dps):
        return mpmath.erfc(-mpmath.mpf(x) / mpmath.sqrt(2)) / 2


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


def gaussian_checks(grid: Sequence[float],
                    k_grid: Sequence[float]) -> GaussianChecksReport:
    """Run the scalar normal-CDF checks on a grid of evaluation points.

    Per grid point x (ascending) and shift k in ``k_grid``:

    * ``Phi(x-k)/Phi(x)`` is nondecreasing in x;
    * ``Phi(x) < exp(-x^2/2)`` wherever ``x <= 1/2``;
    * ``Phi(1/2-k)/Phi(1/2) < 2 exp(-k^2/2)``, and the same bound for the
      largest ratio anchored at a grid point ``x <= 1/2``.

    Each ratio is computed once, in one row per shift that feeds both
    checks on it.  Any margin below twice the certified error
    ``PRECISION`` of a CDF evaluation raises :class:`PrecisionInsufficient`.
    """
    if not grid:
        raise ValueError("grid must be nonempty")
    dps = max(25, int(math.ceil(-math.log10(PRECISION))) + 15)
    xs = sorted(float(v) for v in grid)
    ks = [float(v) for v in k_grid]
    eps = mpmath.mpf(PRECISION)

    with mpmath.workdps(dps):
        phi_cache: dict = {}

        def phi(v):
            got = phi_cache.get(v)
            if got is None:
                got = phi_cache[v] = std_normal_cdf(v, dps)
            return got

        min_margins = dict.fromkeys(
            ("monotone", "tail", "ratio_half", "ratio_general"), mpmath.inf)
        failures = []

        def check(name, lhs, rhs, strict=True, **where):
            # lhs < rhs (lhs <= rhs if not strict) is decided only when the
            # margin clears twice the certified error at this scale.
            margin, scale = rhs - lhs, lhs + rhs
            min_margins[name] = min(min_margins[name], margin / scale)
            guard = 2 * eps * scale
            if margin > guard or (not strict and margin == 0):
                return
            if margin < -guard:
                failures.append((name, *where.values()))
                return
            label = " ".join([name] + [f"{a}={v}" for a, v in where.items()])
            raise PrecisionInsufficient(
                f"{label}: margin {mpmath.nstr(margin, 6)} within guard "
                f"{mpmath.nstr(guard, 6)}")

        mxs = [mpmath.mpf(x) for x in xs]
        phi_xs = [phi(mx) for mx in mxs]
        anchors = sum(x <= 0.5 for x in xs)  # a prefix: xs ascends
        mks = [mpmath.mpf(k) for k in ks]
        bounds = [2 * mpmath.exp(-mk * mk / 2) for mk in mks]
        tops = []  # per k, the largest ratio anchored at x <= 1/2
        for k, mk in zip(ks, mks):
            row = [phi(mx - mk) / px for mx, px in zip(mxs, phi_xs)]
            for x, previous, ratio in zip(xs[1:], row, row[1:]):
                check("monotone", previous, ratio, strict=False, k=k, x=x)
            tops.append(max(row[:anchors], default=None))
        for x, mx, px in zip(xs[:anchors], mxs, phi_xs):
            check("tail", px, mpmath.exp(-mx * mx / 2), x=x)
        half = mpmath.mpf("0.5")
        for k, mk, bound in zip(ks, mks, bounds):
            check("ratio_half", phi(half - mk) / phi(half), bound, c=k)
        for k, top, bound in zip(ks, tops, bounds):
            if top is not None:
                check("ratio_general", top, bound, c=k)

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
