"""Reference computations the benchmark checks the program against.

Each function here recomputes a quantity by a route the program does not
take: integer composition counts instead of PMF convolution, ball masks
over all subsets at once instead of bitset expansion, numpy brute force
instead of the dense distance matrix, closed forms instead of attacks,
and a full cell scan instead of the pruned cell walk.  Only the classifier
under test (its ``decide``) is shared, because it is the input.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

C_GRID = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
T_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2),
          Fraction(4), Fraction(8))


def floor_c_sqrt(c, m: int) -> int:
    """Largest integer t with t <= c * sqrt(m), decided exactly."""
    c2m = Fraction(c) ** 2 * m
    t = math.isqrt(c2m.numerator // c2m.denominator)
    while (t + 1) ** 2 <= c2m:
        t += 1
    return t


def _hamming_distances(dims: int, q: int) -> np.ndarray:
    words = np.array(list(itertools.product(range(q), repeat=dims)))
    return (words[:, None, :] != words[None, :, :]).sum(axis=2)


def hamming_interior_worst_margin(dims: int, q: int) -> float:
    """Worst ``2 e^{-2c^2} - |Int^r(S)|/|S|`` over every subset S of H(dims, q)
    with 1 <= |S| <= half, r = floor(c sqrt(dims)) + 2, c on the verify grid.

    The interior is taken ball by ball: a member stays iff its whole
    radius-r ball lies in S.  All subsets are handled at once as integer
    bitsets in a numpy vector.
    """
    count = q ** dims
    if count > 20:
        raise ValueError("exhaustive subset sweep is meant for <= 20 vertices")
    dist = _hamming_distances(dims, q)
    subsets = np.arange(1, 1 << count, dtype=np.int64)
    sizes = np.zeros(len(subsets), dtype=np.int64)
    for v in range(count):
        sizes += (subsets >> v) & 1
    keep = sizes <= count // 2
    subsets, sizes = subsets[keep], sizes[keep]
    interiors = {}
    worst = math.inf
    for c in C_GRID:
        radius = floor_c_sqrt(c, dims) + 2
        if radius not in interiors:
            interior = np.zeros(len(subsets), dtype=np.int64)
            for v in range(count):
                ball = int(sum(1 << u for u in range(count)
                               if dist[v, u] <= radius))
                member = (subsets >> v) & 1
                inside = (ball & ~subsets) == 0
                interior += member * inside
            interiors[radius] = interior
        bound = 2.0 * math.exp(-2.0 * c * c)
        margins = bound - interiors[radius] / sizes
        worst = min(worst, float(margins.min()))
    return worst


def composition_counts(levels: int, length: int) -> list[int]:
    """counts[s]: sequences of ``length`` values in [0, levels) summing to s."""
    counts = [1]
    for _ in range(length):
        out = [0] * (len(counts) + levels - 1)
        for s, c in enumerate(counts):
            if c:
                for v in range(levels):
                    out[s + v] += c
        counts = out
    return counts


def sum_left_tail_worst_margin() -> float:
    """Worst ``Pr[sum <= floor((n/2 - t + 1)(2k - 1))] - (1/2 - 2t/sqrt(n))``
    over n in 2..64, 2k in (2, 4, 8) and the t grid, with the left side
    counted as compositions over ``(2k)^n``."""
    worst = math.inf
    for levels in (2, 4, 8):
        counts = [1] * levels
        for n in range(2, 65):
            counts = [sum(counts[max(0, s - levels + 1):s + 1])
                      for s in range(n * (levels - 1) + 1)]
            prefix = list(itertools.accumulate(counts))
            total = levels ** n
            for t in T_GRID:
                threshold = math.floor((Fraction(n, 2) - t + 1) * (levels - 1))
                below = 0 if threshold < 0 else prefix[min(threshold,
                                                           len(prefix) - 1)]
                lhs = Fraction(below, total)
                rhs = 0.5 - 2 * float(t) / math.sqrt(n)
                worst = min(worst, float(lhs) - rhs)
    return worst


# --- image spaces -------------------------------------------------------------

def space_levels(dim: int, q: int) -> np.ndarray:
    """Every level vector of a space, in rank order (first coordinate most
    significant)."""
    return np.array(list(itertools.product(range(q), repeat=dim)),
                    dtype=np.int64)


def sum_class0_max(dim: int, top: int) -> int:
    """Largest level sum the sum classifier labels 0: 2L < dim * top."""
    return (dim * top - 1) // 2


def sum_l1_fraction(dim: int, q: int, size: Fraction, label: int) -> Fraction:
    """Robust fraction of one class of the sum classifier at L1 size
    ``size``.  With s = floor(size * top), an image with level sum L is
    robust iff L + s <= split in class 0, iff L - s > split in class 1."""
    top = q - 1
    split = sum_class0_max(dim, top)
    counts = composition_counts(q, dim)
    shift = math.floor(Fraction(size) * top)
    if label == 0:
        robust, members = counts[:max(0, split - shift + 1)], counts[:split + 1]
    else:
        robust, members = counts[split + 1 + shift:], counts[split + 1:]
    return Fraction(sum(robust), sum(members))


def count_norm_robust(levels: np.ndarray, labels: np.ndarray,
                      d: int) -> np.ndarray:
    """Per-image count-norm robustness by brute force over all pairs."""
    changed = (levels[:, None, :] != levels[None, :, :]).sum(axis=2)
    differs = labels[:, None] != labels[None, :]
    return ~((changed <= d) & differs).any(axis=1)


def sum_l0_robust(levels, top: int, d: int) -> bool:
    """Sum classifier, class 0: robust iff L plus the d largest headrooms
    stays at or below the split."""
    headroom = sorted((top - v for v in levels), reverse=True)
    split = sum_class0_max(len(levels), top)
    return sum(levels) + sum(headroom[:d]) <= split


def sum_l1_robust(levels, top: int, size: Fraction) -> bool:
    split = sum_class0_max(len(levels), top)
    return sum(levels) + math.floor(Fraction(size) * top) <= split


def sum_l2_robust(levels, top: int, size: Fraction) -> bool:
    """Sum classifier, class 0, L2: robust iff the cheapest way to raise the
    level sum past the split costs more than ``(size * top)^2`` in squared
    level moves.  The cheapest way levels the moves: with per-channel caps
    ``c_i``, moves ``min(c_i, t)`` plus one more unit on ``r`` channels."""
    split = sum_class0_max(len(levels), top)
    needed = split + 1 - sum(levels)
    caps = [top - v for v in levels]
    lo, hi = 0, top
    while lo < hi:  # largest t with sum(min(c, t)) <= needed
        mid = (lo + hi + 1) // 2
        if sum(min(c, mid) for c in caps) <= needed:
            lo = mid
        else:
            hi = mid - 1
    t = lo
    rest = needed - sum(min(c, t) for c in caps)
    cost = sum(min(c, t) ** 2 for c in caps) + rest * ((t + 1) ** 2 - t * t)
    return cost > (Fraction(size) * top) ** 2


def cell_scan(point, labels: np.ndarray, base_label: int, dim: int, q: int,
              radius: float):
    """Closest different-class cell to ``point`` among all cells, by a full
    scan in rank order.

    Squared distances add per coordinate in coordinate order, the same
    float expression the walk documents, so ties resolve identically; the
    lexicographically smallest cell wins a tie.  Returns the levels of
    that cell, or None if none lies within ``radius``.
    """
    table = np.empty((dim, q))
    for i, x in enumerate(point):
        for level in range(q):
            lo, hi = level / q, min((level + 1) / q, 1.0)
            gap = lo - x if x < lo else (x - hi if x > hi else 0.0)
            table[i, level] = gap * gap
    d2 = np.zeros(1)
    for i in range(dim):
        d2 = (d2[:, None] + table[i][None, :]).reshape(-1)
    d2 = np.where(labels != base_label, d2, np.inf)
    best = int(np.argmin(d2))
    if not d2[best] <= float(radius) * float(radius):
        return None
    out = []
    for _ in range(dim):
        best, digit = divmod(best, q)
        out.append(digit)
    return tuple(reversed(out))
