"""Exact combinatorics, binomial tails, and discrete distribution checks.

All probability values are `fractions.Fraction` instances, so comparisons
are exact; a :class:`DiscretePMF` keeps integer counts over one denominator
and returns Fractions at its edge.  The only transcendental quantities
that ever enter a comparison (bounds of the form ``coeff * exp(q)`` with
rational ``q``) go through :func:`compare_scaled_exp`, which escalates
working precision until the comparison is certified, rather than trusting
one float round.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import mpmath

from .errors import (
    AsymmetricY,
    NoFeasibleR,
    NoSolution,
    PrecisionInsufficient,
    SupportCapExceeded,
)

DEFAULT_SUPPORT_CAP = 1 << 24
# log gap below which mode_bound_sweep settles the bound with exact integers
MODE_GAP_GUARD = 1e-6
# decimal digits at which compare_scaled_exp gives up
MAX_DPS = 240


def binom(n: int, k: int) -> int:
    """Binomial coefficient extended to arbitrary integer ``k``.

    Returns ``n! / (k! (n-k)!)`` for ``0 <= k <= n`` and 0 otherwise,
    always as an exact integer.  ``n`` must be positive.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def tail_table(n: int, p: Fraction) -> DiscretePMF:
    """Binomial(n, p) as exact integer counts: with ``p = a/b``, the count
    of ``i`` is ``C(n,i) a^i (b-a)^(n-i)`` over the denominator ``b^n``.

    ``prefix[k]`` is the lower tail ``U_{n,p}(k)`` times ``b^n``, and
    ``cdf_at`` gives it as a Fraction (0 below the support, 1 above it).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    p = Fraction(p)
    if not (0 < p < 1):
        raise ValueError(f"p must be in (0, 1), got {p}")
    a, b = p.numerator, p.denominator
    a_pows = [1]
    c_pows = [1]
    for _ in range(n):
        a_pows.append(a_pows[-1] * a)
        c_pows.append(c_pows[-1] * (b - a))
    counts = tuple(math.comb(n, i) * a_pows[i] * c_pows[n - i]
                   for i in range(n + 1))
    return DiscretePMF(0, counts, b ** n)


def mode_bound_holds(n: int) -> bool:
    """Check ``C(n, floor(n/2))^2 * n < 4^n`` with exact integers.

    Squaring removes the square root from the analytic form of the bound,
    so no rounding is involved.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    c = math.comb(n, n // 2)
    return c * c * n < 1 << (2 * n)


def mode_bound_sweep(n_max: int) -> tuple[int | None, float]:
    """Check the central-coefficient bound for every n in 1..n_max.

    Maintains the central binomial coefficient incrementally so the sweep
    stays fast for large ``n_max``.  Returns ``(first_violation, min_log_gap)``
    where the gap is ``2n ln2 - ln(C^2 n)``; a violation would make the gap
    non-positive.  The float gap is within about ``n 2^-48`` of the exact
    one, so the exact integer comparison runs only where the gap does not
    clear ``MODE_GAP_GUARD`` plus that error.
    """
    c = 1  # C(1, 0)
    min_gap = math.inf
    first_violation = None
    ln2 = math.log(2)
    for n in range(1, n_max + 1):
        if n > 1:
            if n % 2 == 0:
                c = 2 * c
            else:
                c = c * n // ((n + 1) // 2)
        gap = 2 * n * ln2 - (2 * math.log(c) + math.log(n))
        if gap < min_gap:
            min_gap = gap
        if (first_violation is None and gap <= MODE_GAP_GUARD + n * 2.0 ** -40
                and c * c * n >= 1 << (2 * n)):
            first_violation = n
    return first_violation, min_gap


def compare_scaled_exp(lhs: Fraction, coeff: Fraction,
                       exponent: Fraction) -> int:
    """Certified comparison of a rational ``lhs`` against ``coeff * e^exponent``.

    Returns -1, 0 or +1 for less / equal / greater.  The transcendental
    side is evaluated at increasing precision until the interval around it
    excludes ``lhs``; equality is only possible when ``exponent == 0``, in
    which case the comparison is exact.
    """
    lhs = Fraction(lhs)
    coeff = Fraction(coeff)
    exponent = Fraction(exponent)
    if exponent == 0:
        rhs = coeff
        return (lhs > rhs) - (lhs < rhs)
    if lhs <= 0 < coeff:
        return -1
    dps = 30
    while dps <= MAX_DPS:
        with mpmath.workdps(dps):
            rhs = (mpmath.mpf(coeff.numerator) / coeff.denominator
                   * mpmath.exp(mpmath.mpf(exponent.numerator) / exponent.denominator))
            lf = mpmath.mpf(lhs.numerator) / lhs.denominator
            slack = rhs * mpmath.mpf(10) ** (8 - dps)
            if lf < rhs - slack:
                return -1
            if lf > rhs + slack:
                return 1
        dps *= 2
    raise PrecisionInsufficient(
        f"could not separate {lhs} from {coeff}*exp({exponent}) at {MAX_DPS} digits")


def hoeffding_exponent(n: int, k: int) -> Fraction:
    """Exponent of the tail-ratio bound ``2 e^{-2(k-1)^2/n}``."""
    return Fraction(-2 * (k - 1) ** 2, n)


def solve_p_for_tail(n: int, r: int, target: Fraction,
                     tol: Fraction | float = Fraction(1, 10 ** 12)) -> Fraction:
    """Find ``p`` with ``|U_{n,p}(r) - target| <= tol`` by bisection.

    ``U_{n,p}(r)`` is continuous and strictly decreasing in ``p`` on (0, 1)
    for ``0 <= r < n``, running from 1 down to 0, so any target in (0, 1)
    is attainable.  Each halving evaluates only ``U(r)`` at the dyadic
    midpoint ``a/2^j``, as the integer ``sum_{i<=r} C(n,i) a^i (2^j-a)^(n-i)``
    over ``2^(jn)``, and compares it with the target and ``tol`` by exact
    cross-multiplication.  The returned ``p`` is that exact dyadic rational,
    which makes round-trip verification of the tail exact.
    """
    if not (0 <= r < n):
        raise ValueError(f"need 0 <= r < n, got r={r}, n={n}")
    target = Fraction(target)
    if not (0 < target < 1):
        raise NoSolution(f"target {target} outside (0, 1)")
    tol = Fraction(tol)
    t, td = target.numerator, target.denominator
    e, ed = tol.numerator, tol.denominator
    coeffs = [math.comb(n, i) for i in range(r + 1)]
    # After j halvings the interval is [lo, lo + 1] / 2^(j-1) and its
    # midpoint (2 lo + 1) / 2^j.  The tail is Lipschitz in p with constant
    # under n * C(n-1, r), so the midpoint is within tol well before the
    # interval width reaches tol / that constant; 1000 halvings is far
    # beyond any valid input.
    lo = 0
    for j in range(1, 1001):
        a = 2 * lo + 1
        c = (1 << j) - a
        # U(r) 2^(jn) = c^(n-r) sum_{i<=r} C(n,i) a^i c^(r-i), by Horner in c
        count, a_pow = 0, 1
        for coeff in coeffs:
            count = count * c + coeff * a_pow
            a_pow *= a
        count *= c ** (n - r)
        # (U(r) - target) * 2^(jn) * td, compared without division
        gap = count * td - (t << j * n)
        if abs(gap) * ed <= (e * td) << j * n:
            return Fraction(a, 1 << j)
        # tail decreasing in p: too much mass means p too small
        lo = a if gap > 0 else 2 * lo
    raise NoSolution(f"bisection did not reach tol={tol} for n={n}, r={r}")


def harper_rhs(n: int, k: int, frac: Fraction,
               tol: Fraction | float = Fraction(1, 10 ** 12),
               roots: dict | None = None) -> Fraction:
    """Isoperimetric lower bound on the expanded fraction of a vertex set.

    Minimizes ``U_{n,p_r}(r+k)`` over integer ``r`` in ``[0, n-k)``, where
    ``p_r`` solves ``U_{n,p}(r) = frac``.  The root is solved three orders
    of magnitude tighter than ``tol`` so the propagated error stays well
    inside the caller's tolerance.  ``k = 0`` degenerates to the identity
    and returns ``frac``.  ``p_r`` does not depend on ``k``: calls for one
    ``frac`` and ``tol`` at several k can share ``roots``, a dict from r to
    ``p_r`` (None where there is none) that is filled as roots are solved.
    """
    frac = Fraction(frac)
    if not (0 < frac <= 1):
        raise ValueError(f"frac must be in (0, 1], got {frac}")
    if k == 0:
        return frac
    if not (1 <= k < n):
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    solver_tol = Fraction(tol) / 1024
    roots = {} if roots is None else roots
    best = None
    for r in range(0, n - k):
        if r not in roots:
            try:
                roots[r] = solve_p_for_tail(n, r, frac, solver_tol)
            except NoSolution:
                roots[r] = None
        if roots[r] is None:
            continue
        value = tail_table(n, roots[r]).cdf_at(r + k)
        if best is None or value < best:
            best = value
    if best is None:
        raise NoFeasibleR(f"no integer r in [0, {n - k}) admits U = {frac}")
    return best


# --- exact discrete distributions on an integer grid ------------------------

@dataclass(frozen=True)
class DiscretePMF:
    """Exact distribution on a contiguous integer grid.

    ``offset`` is the value of the first support point; the mass at
    ``offset + i`` is ``counts[i] / denominator``, where the counts are
    nonnegative integers summing to exactly ``denominator``; ``prefix[i]``
    is ``counts[0] + ... + counts[i]``.
    """

    offset: int
    counts: tuple[int, ...]
    denominator: int
    prefix: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        counts = tuple(self.counts)
        if not counts or any(not isinstance(c, int) or c < 0 for c in counts):
            raise ValueError("counts must be nonempty nonnegative integers")
        prefix = tuple(itertools.accumulate(counts))
        if self.denominator < 1 or prefix[-1] != self.denominator:
            raise ValueError(f"counts sum to {prefix[-1]}, not {self.denominator}")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "prefix", prefix)

    @property
    def masses(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.denominator) for c in self.counts)

    @property
    def support_min(self) -> int:
        return self.offset

    @property
    def support_max(self) -> int:
        return self.offset + len(self.counts) - 1

    def cdf_at(self, value: int) -> Fraction:
        """Exact probability of the grid values <= ``value``."""
        if value < self.support_min:
            return Fraction(0)
        index = min(value, self.support_max) - self.offset
        return Fraction(self.prefix[index], self.denominator)

    def is_symmetric_about_zero(self) -> bool:
        if self.support_min != -self.support_max:
            return False
        return self.counts == self.counts[::-1]


def pmf_point(value: int) -> DiscretePMF:
    """Point mass at a single grid value."""
    return DiscretePMF(value, (1,), 1)


def pmf_uniform_levels(levels: int) -> DiscretePMF:
    """Uniform mass on the grid ``{0, ..., levels-1}``."""
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    return DiscretePMF(0, (1,) * levels, levels)


def pmf_uniform_symmetric(radius: int) -> DiscretePMF:
    """Uniform mass on ``{-radius, ..., radius}``; symmetric about 0."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    width = 2 * radius + 1
    return DiscretePMF(-radius, (1,) * width, width)


def pmf_bernoulli(p: Fraction) -> DiscretePMF:
    """Bernoulli(a/b) on {0, 1}: counts ``(b - a, a)`` over ``b``."""
    p = Fraction(p)
    if not (0 <= p <= 1):
        raise ValueError(f"p must be in [0, 1], got {p}")
    return DiscretePMF(0, (p.denominator - p.numerator, p.numerator), p.denominator)


def pmf_convolve(a: DiscretePMF, b: DiscretePMF) -> DiscretePMF:
    """Exact distribution of the sum of two independent grid variables.

    Kronecker substitution: both count lists are packed into integers with
    one byte slot per count and multiplied once.  No output count exceeds
    ``a.denominator * b.denominator``, so slots that wide never carry.
    Squaring (``a is b``) packs once, so the product is a square.
    """
    width = len(a.counts) + len(b.counts) - 1
    if width > DEFAULT_SUPPORT_CAP:
        raise SupportCapExceeded(f"support {width} > cap {DEFAULT_SUPPORT_CAP}")
    denominator = a.denominator * b.denominator
    slot = (denominator.bit_length() + 7) // 8

    def pack(counts: tuple[int, ...]) -> int:
        return int.from_bytes(b"".join(c.to_bytes(slot, "little") for c in counts),
                              "little")

    packed = pack(a.counts)
    product = packed * (packed if a is b else pack(b.counts))
    data = product.to_bytes(width * slot, "little")
    counts = tuple(int.from_bytes(data[i:i + slot], "little")
                   for i in range(0, width * slot, slot))
    return DiscretePMF(a.offset + b.offset, counts, denominator)


def pmf_iid_sum(base: DiscretePMF, count: int) -> DiscretePMF:
    """Exact distribution of the sum of ``count`` independent copies of ``base``.

    Uses square-and-multiply over exact convolution; the counts are
    identical however the convolution tree is associated because all
    arithmetic is on exact integers.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    final_width = count * (len(base.counts) - 1) + 1
    if final_width > DEFAULT_SUPPORT_CAP:
        raise SupportCapExceeded(f"support {final_width} > cap {DEFAULT_SUPPORT_CAP}")
    result = None
    power = base
    remaining = count
    while remaining:
        if remaining & 1:
            result = power if result is None else pmf_convolve(result, power)
        remaining >>= 1
        if remaining:
            power = pmf_convolve(power, power)
    return result


def binomial_spread_holds(n: int, sym_y: DiscretePMF, t: Fraction | float) -> bool:
    """Check ``Pr[X + Y <= t] >= Pr[X < t]`` by exact convolution.

    ``X`` is Binomial(n, 1/2); ``Y`` must be symmetric about the origin on
    the same integer grid, and ``t`` must be a half-integer at most the
    mean ``n/2`` (at the mean itself both sides coincide by symmetry).
    Both probabilities are exact rationals.
    """
    t = Fraction(t)
    if t.denominator != 2:
        raise ValueError(f"t must be a half-integer, got {t}")
    if t > Fraction(n, 2):
        raise ValueError(f"t must not exceed the mean n/2, got t={t}, n={n}")
    if not sym_y.is_symmetric_about_zero():
        raise AsymmetricY(f"support [{sym_y.support_min}, {sym_y.support_max}] "
                          "is not symmetric about 0")
    x = pmf_iid_sum(pmf_bernoulli(Fraction(1, 2)), n)
    s = pmf_convolve(x, sym_y)
    m = (t.numerator - 1) // 2  # t = m + 1/2, so "<= t" and "< t" both mean "<= m"
    return s.cdf_at(m) >= x.cdf_at(m)


def anti_concentration_holds(n: int, levels2k: int, t: Fraction | float) -> bool:
    """Lower bound on the left tail of a sum of quantized uniforms.

    Each summand is uniform on ``2k`` evenly spaced values with endpoints
    ``a = 0`` and ``b = 1``.  Checks, for ``t > 0``::

        Pr[sum <= n/2 - t + 1]  >  1/2 - 2t / sqrt(n)

    The left side is an exact rational from the n-fold convolution.  The
    right side involves ``sqrt(n)``, so the comparison is decided exactly
    by squaring instead of evaluating the root.
    """
    if levels2k < 2 or levels2k % 2:
        raise ValueError(f"levels2k must be even and >= 2, got {levels2k}")
    t = Fraction(t)
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    step_denominator = levels2k - 1  # grid spacing is 1/(2k-1) in real units
    total = pmf_iid_sum(pmf_uniform_levels(levels2k), n)
    threshold = (Fraction(n, 2) - t + 1) * step_denominator
    lhs = total.cdf_at(math.floor(threshold))
    # lhs > 1/2 - 2t/sqrt(n)  <=>  (1/2 - lhs) * sqrt(n) < 2t
    gap = Fraction(1, 2) - lhs
    if gap < 0:
        return True
    return gap * gap * n < 4 * t * t


def tail_ratio_monotone_violations(
        n_max: int, k_max: int,
        p_values: Sequence[Fraction]) -> tuple[list[tuple], float]:
    """Exhaustively verify that ``x -> U(x-k)/U(x)`` is nondecreasing.

    Returns ``(violations, min_step)``: the ``(n, k, p, x)`` tuples where
    monotonicity fails (empty on success) and the smallest consecutive
    ratio increment seen.  The ratio is ``prefix[x-k] / prefix[x]`` of the
    tail table (the denominators cancel), so steps are compared by integer
    cross-multiplication and each float step is one correctly rounded
    integer division.  Steps below ``x = k`` go from ratio 0 to ratio 0
    and are skipped: they would pin ``min_step`` at 0.
    """
    violations = []
    min_step = math.inf
    for n in range(1, n_max + 1):
        for p in p_values:
            prefix = tail_table(n, p).prefix
            for k in range(1, min(k_max, n) + 1):
                lagged = (0,) * k + prefix  # lagged[x] = prefix[x-k], 0 below
                for x in range(k, n + 1):
                    diff = lagged[x] * prefix[x - 1] - lagged[x - 1] * prefix[x]
                    step = diff / (prefix[x] * prefix[x - 1])
                    if step < min_step:
                        min_step = step
                    if diff < 0:
                        violations.append((n, k, Fraction(p), x))
    return violations, min_step


def hoeffding_sweep_violations(
        n_max: int,
        p_values: Iterable[Fraction]) -> tuple[list[tuple], float]:
    """Check the Hoeffding tail-ratio bound on every admissible query.

    Admissible queries are ``n > r >= k >= 1`` with ``U_{n,p}(r) <= 1/2``.
    Returns ``(violations, min_margin)`` where the margin is the float
    distance from ratio to bound; empty violations means the bound held
    everywhere up to ``n_max``.  Margins below 1e-9 of the bound are
    decided by the certified comparison.
    """
    violations = []
    min_margin = math.inf
    for n in range(2, n_max + 1):
        exponents = [hoeffding_exponent(n, k) for k in range(1, n)]
        bounds = [2.0 * math.exp(float(x)) for x in exponents]
        for p in p_values:
            p = Fraction(p)
            table = tail_table(n, p)
            prefix = table.prefix
            for r in range(1, n):
                if 2 * prefix[r] > table.denominator:
                    break  # tails increase in r; later r are inadmissible too
                for k in range(1, r + 1):
                    bound = bounds[k - 1]
                    margin = bound - prefix[r - k] / prefix[r]
                    if margin < min_margin:
                        min_margin = margin
                    # The ratio is correctly rounded, and so is the exponent
                    # x = -2(k-1)^2/n, with |x| < 2n; exp then leaves the
                    # float bound within (2n + 2) 2^-53 of the exact one
                    # relative, below 2^-45 for n <= 64 and below 2^-32 for
                    # n < 2^20.  A margin of at least 1e-9 of the bound is
                    # therefore positive exactly; only the rest is certified.
                    if margin < 1e-9 * bound and compare_scaled_exp(
                            Fraction(prefix[r - k], prefix[r]), Fraction(2),
                            exponents[k - 1]) > 0:
                        violations.append((n, k, p, r))
    return violations, min_margin
