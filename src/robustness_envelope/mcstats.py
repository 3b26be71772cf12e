"""Wilson score intervals for Monte Carlo proportion estimates."""

from __future__ import annotations

import mpmath

# z such that a standard normal lands in [-z, z] with probability 0.95
with mpmath.workdps(30):
    Z_95 = float(mpmath.sqrt(2) * mpmath.erfinv(mpmath.mpf(0.95)))


def wilson_ci(successes: int, samples: int) -> tuple[float, float]:
    """95 % Wilson score interval for a binomial proportion."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not (0 <= successes <= samples):
        raise ValueError(f"successes {successes} outside [0, {samples}]")
    phat = successes / samples
    z2 = Z_95 * Z_95
    center = (phat + z2 / (2 * samples)) / (1 + z2 / samples)
    half = (Z_95 * (phat * (1 - phat) / samples + z2 / (4 * samples * samples)) ** 0.5
            / (1 + z2 / samples))
    return max(0.0, center - half), min(1.0, center + half)
