"""Closed-form robustness envelope: the attainable-robustness table.

For a target robust fraction r, the upper bound is the size beyond which
NO classifier keeps an interesting class r-robust, and the lower bound is
a size the sum classifier provably withstands.  Transcendentals are
evaluated in extended precision and the published table rounds to six
significant digits (nearest, ties to even), which is recorded with the
output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import BitDepthTooLarge

WORK_DPS = 30
TABLE_DIGITS = 6
ROUNDING_NOTE = "6 significant digits, nearest (ties to even)"
CROSSOVER_N_MAX = 1 << 20  # largest n empirical_crossover_n evaluates


@dataclass(frozen=True)
class BoundQuery:
    """Target robustness r in (0,1), norm order p, and space shape."""

    r: float | Fraction
    p: int
    n: int
    h: int
    b: int

    def __post_init__(self):
        if not (0 < self.r < 1):
            raise ValueError(f"r must be in (0, 1), got {self.r}")
        if self.p < 0:
            raise ValueError(f"p must be >= 0, got {self.p}")
        for name in ("n", "h", "b"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class BoundTerms:
    """The c values behind the table and which upper term dominates.

    ``c_expansion`` reparametrizes r = 2 e^{-2c^2} (the count-norm
    expansion route); ``c_cell`` reparametrizes r = 2 e^{-c^2/2} (the
    cell-jump route, felt only at p >= 2); ``c_lower`` reparametrizes
    r = 1 - 4c (the sum-classifier guarantee).
    """

    c_expansion: float
    c_cell: float
    c_lower: float
    term_expansion: float
    term_cell: float
    dominating: str


@dataclass(frozen=True)
class BoundResult:
    upper_size: float
    lower_size: float
    source_terms: BoundTerms


def _mp(x) -> mpmath.mpf:
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def _upper_terms(q: BoundQuery):
    ln_ratio = mpmath.log(2 / _mp(q.r))
    expansion = 2 + mpmath.sqrt(_mp(q.h) / 2 * ln_ratio) * q.n
    cell = mpmath.sqrt(2 * ln_ratio) + 2 * mpmath.sqrt(_mp(q.h)) * q.n / (1 << q.b)
    return ln_ratio, expansion, cell


def evaluate_bounds(q: BoundQuery) -> BoundResult:
    """Upper and lower attainable-robustness sizes with their c terms."""
    with mpmath.workdps(WORK_DPS):
        ln_ratio, expansion, cell = _upper_terms(q)
        c_expansion = float(mpmath.sqrt(ln_ratio / 2))
        c_cell = float(mpmath.sqrt(2 * ln_ratio))
        c_lower = float((1 - q.r) / 4)
        if q.p <= 1:
            upper = expansion
            term_expansion, term_cell = float(expansion), math.inf
            dominating = "expansion"
        else:
            t_expansion = expansion ** (mpmath.mpf(1) / q.p)
            t_cell = cell ** (mpmath.mpf(2) / q.p)
            term_expansion, term_cell = float(t_expansion), float(t_cell)
            if t_cell < t_expansion:
                upper, dominating = t_cell, "cell"
            else:
                upper, dominating = t_expansion, "expansion"
        base = -2 + (1 - _mp(q.r)) / 4 * mpmath.sqrt(_mp(q.h)) * q.n
        if base < 0:
            lower = mpmath.mpf(0)
        elif q.p <= 1:
            lower = base
        else:
            lower = base ** (mpmath.mpf(1) / q.p) / ((1 << q.b) - 1)
        terms = BoundTerms(c_expansion=c_expansion, c_cell=c_cell,
                           c_lower=c_lower, term_expansion=term_expansion,
                           term_cell=term_cell, dominating=dominating)
        return BoundResult(upper_size=float(upper), lower_size=float(lower),
                           source_terms=terms)


def upper_bound_size(q: BoundQuery) -> float:
    """No classifier keeps an interesting class r-robust at this size."""
    return evaluate_bounds(q).upper_size


@dataclass(frozen=True)
class AvgDistanceConstants:
    """Exact single-pair moment and the derived distance constant."""

    k_bp: Fraction
    k_hbp: float


def avg_distance_constant(h: int, b: int, p: int) -> AvgDistanceConstants:
    """Constants of the expected-distance lower bound between uniform pairs.

    ``k_bp`` is ``E|X - Y|^{max(1,p)}`` over independent uniform levels,
    computed exactly by enumerating level differences: one integer sum
    ``sum_d 2 (q - d) d^m`` over ``(q - 1)^m q^2``, the difference d
    weighted by its multiplicity.
    """
    if b > 16:
        raise BitDepthTooLarge(f"b must be <= 16, got {b}")
    if h < 1 or p < 0:
        raise ValueError("h must be >= 1 and p >= 0")
    q = 1 << b
    m = max(1, p)
    k_bp = Fraction(sum(2 * (q - d) * d ** m for d in range(1, q)),
                    (q - 1) ** m * q ** 2)
    with mpmath.workdps(WORK_DPS):
        k = _mp(k_bp)
        k_hbp = float(k / (2 - k) * (h * k / 2) ** (mpmath.mpf(1) / m))
    return AvgDistanceConstants(k_bp=k_bp, k_hbp=k_hbp)


def avg_distance_lower_bound(n: int, h: int, b: int, p: int) -> float:
    """Lower bound on E||I - I'||_p for independent uniform image pairs."""
    constants = avg_distance_constant(h, b, p)
    with mpmath.workdps(WORK_DPS):
        return float(constants.k_hbp * mpmath.mpf(n) ** (mpmath.mpf(2) / max(1, p)))


def empirical_crossover_n(r: float, h: int, b: int, p: int) -> int | None:
    """Smallest n at which the upper size stays at or above the lower size.

    The bracketing theorems only promise such an n exists; this reports
    the observed threshold for concrete parameters over the powers of two
    up to ``CROSSOVER_N_MAX`` (None if it is not reached by then).
    """
    threshold = None
    n = 1
    while n <= CROSSOVER_N_MAX:
        q = BoundQuery(r=r, p=p, n=n, h=h, b=b)
        result = evaluate_bounds(q)
        if result.upper_size >= result.lower_size:
            if threshold is None:
                threshold = n
        else:
            threshold = None
        n *= 2
    return threshold


@dataclass(frozen=True)
class BoundTableRow:
    """One table row; the *_text fields carry the canonical 6-digit form."""

    p: int
    upper_size: float
    lower_size: float
    c_upper: float
    c_lower: float
    dominating_term: str
    upper_text: str
    lower_text: str

    def to_dict(self) -> dict:
        return {"p": self.p, "upper_size": float(self.upper_text),
                "lower_size": float(self.lower_text),
                "c_upper": self.c_upper, "c_lower": self.c_lower,
                "dominating_term": self.dominating_term}

    def csv_row(self) -> list:
        return [self.p, self.upper_text, self.lower_text,
                repr(self.c_upper), repr(self.c_lower), self.dominating_term]


TABLE_CSV_HEADER = ("p", "upper_size", "lower_size", "c_upper", "c_lower",
                    "dominating_term")


def _six_digits(value: float) -> str:
    with mpmath.workdps(WORK_DPS):
        return mpmath.nstr(mpmath.mpf(value), TABLE_DIGITS,
                           strip_zeros=False)


def bounds_table(r: float | Fraction, n: int, h: int, b: int,
                 p_list) -> list[BoundTableRow]:
    """One row per requested norm order, deterministically rounded."""
    rows = []
    for p in p_list:
        result = evaluate_bounds(BoundQuery(r=r, p=p, n=n, h=h, b=b))
        terms = result.source_terms
        c_upper = (terms.c_cell if terms.dominating == "cell"
                   else terms.c_expansion)
        rows.append(BoundTableRow(
            p=p, upper_size=result.upper_size, lower_size=result.lower_size,
            c_upper=c_upper, c_lower=terms.c_lower,
            dominating_term=terms.dominating,
            upper_text=_six_digits(result.upper_size),
            lower_text=_six_digits(result.lower_size)))
    return rows
