"""Quantized image spaces: representation, norms, enumeration, sampling.

An image is a flat tuple of integer channel levels; the real channel
value of level ``l`` is ``l / (2^b - 1)``.  Keeping levels (not reals) as
the canonical representation makes the 0- and 1-norms, serialization,
and all threshold comparisons exact.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from .errors import (
    EmptyClass,
    LevelOutOfRange,
    MalformedInput,
    ShapeMismatch,
    SpaceTooLarge,
)

DEFAULT_ENUMERATION_CAP = 1 << 20
# uniform draws allowed to find one member of a class by rejection
MAX_REJECTIONS = 100_000


def integer_field(name: str, value) -> int:
    """``value`` as an int, or a ``ValueError`` naming the field when it is
    not an integer (``operator.index``: 2.0 and 1.5 are refused)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class SpaceParams:
    """The triple (n, h, b): n-by-n pixels, h channels, b-bit depth."""

    n: int
    h: int
    b: int

    def __post_init__(self):
        for name in ("n", "h", "b"):
            value = integer_field(name, getattr(self, name))
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
            object.__setattr__(self, name, value)

    @property
    def dimension(self) -> int:
        """Number of channel entries in the flattened tensor."""
        return self.n * self.n * self.h

    @property
    def level_count(self) -> int:
        return 1 << self.b

    @property
    def max_level(self) -> int:
        return (1 << self.b) - 1

    @property
    def total_images(self) -> int:
        return 1 << (self.dimension * self.b)


@dataclass(frozen=True, slots=True)
class ImageTensor:
    """An image as a flat tuple of levels, row-major over (x, y, channel)."""

    params: SpaceParams
    levels: tuple[int, ...]

    def __post_init__(self):
        try:
            levels = tuple(map(operator.index, self.levels))
        except TypeError:
            i, v = next((i, v) for i, v in enumerate(self.levels)
                        if not hasattr(v, "__index__"))
            raise LevelOutOfRange(
                f"level {v!r} at index {i} is not an integer") from None
        if len(levels) != self.params.dimension:
            raise ShapeMismatch(
                f"expected {self.params.dimension} levels, got {len(levels)}")
        top = self.params.max_level
        for i, v in enumerate(levels):
            if not (0 <= v <= top):
                raise LevelOutOfRange(f"level {v} at index {i} outside [0, {top}]")
        object.__setattr__(self, "levels", levels)

    def level_sum(self) -> int:
        return sum(self.levels)

    def space_rank(self) -> int:
        """Lexicographic rank within the space (first coordinate most
        significant)."""
        q = self.params.level_count
        rank = 0
        for v in self.levels:
            rank = rank * q + v
        return rank


@dataclass(frozen=True)
class PerturbationBudget:
    """A norm order and an inclusive size; p = 0 is the count norm.

    ``size_pow`` optionally carries the exact p-th power of the size so
    irrational budgets like ``d**(1/p)`` compare exactly against exact
    norm powers.  The size must be finite and neither it nor ``size_pow``
    negative, so every level threshold is a nonnegative integer.
    """

    p: int
    size: float | Fraction
    size_pow: Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "p", integer_field("p", self.p))
        if self.p < 0:
            raise ValueError(f"p must be >= 0, got {self.p}")
        if isinstance(self.size, float) and not math.isfinite(self.size):
            raise ValueError(f"size must be finite, got {self.size}")
        if self.size < 0:
            raise ValueError(f"size must be >= 0, got {self.size}")
        if self.size_pow is not None and self.size_pow < 0:
            raise ValueError(f"size_pow must be >= 0, got {self.size_pow}")

    def exact_size_pow(self) -> Fraction:
        """Exact p-th power of the budget size (p >= 1)."""
        if self.size_pow is not None:
            return Fraction(self.size_pow)
        return Fraction(self.size) ** max(self.p, 1)


def image_from_rank(params: SpaceParams, rank: int) -> ImageTensor:
    """Inverse of :meth:`ImageTensor.space_rank`."""
    q = params.level_count
    levels = [0] * params.dimension
    for i in range(params.dimension - 1, -1, -1):
        rank, levels[i] = divmod(rank, q)
    if rank:
        raise ValueError("rank outside the space")
    return ImageTensor(params, tuple(levels))


def level_diff_pow_sum(a: ImageTensor, b: ImageTensor, p: int) -> int:
    """``sum |delta_level|^p`` as an exact integer (p >= 1), or the count
    of differing levels for p = 0."""
    if a.params != b.params:
        raise ShapeMismatch(f"{a.params} != {b.params}")
    if p == 0:
        return sum(1 for x, y in zip(a.levels, b.levels) if x != y)
    return sum(abs(x - y) ** p for x, y in zip(a.levels, b.levels))


def norm_distance(a: ImageTensor, b: ImageTensor, p: int):
    """p-norm of the difference in real channel units.

    Exact for p = 0 (count, an int) and p = 1 (a Fraction); a float for
    p >= 2.  Use :func:`norm_pth_power` when an exact comparison of a
    higher norm is needed.
    """
    s = level_diff_pow_sum(a, b, p)
    if p == 0:
        return s
    if p == 1:
        return Fraction(s, a.params.max_level)
    return (s / a.params.max_level ** p) ** (1 / p)


def norm_pth_power(a: ImageTensor, b: ImageTensor, p: int) -> Fraction:
    """Exact ``||a - b||_p ^ p`` in real channel units (p >= 1)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return Fraction(level_diff_pow_sum(a, b, p), a.params.max_level ** p)


def check_enumerable(params: SpaceParams) -> None:
    """Raise :class:`SpaceTooLarge` beyond ``DEFAULT_ENUMERATION_CAP``
    images, the bound of every full scan of a space."""
    if params.total_images > DEFAULT_ENUMERATION_CAP:
        raise SpaceTooLarge(f"space holds {params.total_images} images, "
                            f"cap is {DEFAULT_ENUMERATION_CAP}")


def enumerate_space(params: SpaceParams) -> Iterator[ImageTensor]:
    """Yield every image exactly once in lexicographic level order."""
    check_enumerable(params)
    for levels in itertools.product(range(params.level_count),
                                    repeat=params.dimension):
        yield ImageTensor(params, levels)


def philox_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based RNG keyed by (seed, index).

    Distinct indices give independent streams, so indexed sampling is
    deterministic and order-independent.
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Philox4x64-10 (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2,
# 3", SC 2011): the two round multipliers and the two Weyl key increments.
_PHILOX_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_MASK64 = 0xFFFFFFFFFFFFFFFF
_LOW32 = np.uint64(0xFFFFFFFF)


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Low and high words of the 128-bit products ``a * m``, from 32-bit
    halves so that no partial product overflows 64 bits."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi = a & _LOW32, a >> 32
    lh, hl = a_lo * m_hi, a_hi * m_lo
    mid = ((a_lo * m_lo) >> 32) + (lh & _LOW32) + (hl & _LOW32)
    return a * np.uint64(m), a_hi * m_hi + (lh >> 32) + (hl >> 32) + (mid >> 32)


def philox_words(seed: int, indices, count: int) -> np.ndarray:
    """The first ``count`` raw 64-bit words of the streams ``indices``.

    Row ``j`` equals ``philox_rng(seed, indices[j]).bit_generator.random_raw
    (count)``, computed for all rows at once: word ``w`` is lane ``w % 4``
    of Philox4x64-10 at counter ``w // 4 + 1`` (numpy increments the
    counter before its first block) under the key ``(seed, index)``.
    """
    if isinstance(indices, np.ndarray) and indices.dtype.kind in "iu":
        keys = indices.astype(np.uint64)  # wraps like ``index & _MASK64``
    else:
        keys = np.array([int(i) & _MASK64 for i in indices], dtype=np.uint64)
    shape = (len(keys), (count + 3) // 4)
    c0 = np.broadcast_to(np.arange(1, shape[1] + 1, dtype=np.uint64), shape)
    c1 = c2 = c3 = np.zeros(shape, dtype=np.uint64)
    k0, k1 = seed & _MASK64, keys[:, None]
    for round_ in range(_PHILOX_ROUNDS):
        if round_:
            k0 = (k0 + _PHILOX_WEYL[0]) & _MASK64
            k1 = k1 + np.uint64(_PHILOX_WEYL[1])
        lo0, hi0 = _mulhilo(c0, _PHILOX_MULTIPLIERS[0])
        lo1, hi1 = _mulhilo(c2, _PHILOX_MULTIPLIERS[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack((c0, c1, c2, c3), axis=2).reshape(len(keys), 4 * shape[1])
    return words[:, :count]


def sample_uniform(params: SpaceParams, seed: int, index: int = 0,
                   rng: np.random.Generator | None = None) -> ImageTensor:
    """Uniform image: each level drawn independently from [0, 2^b - 1]."""
    if rng is None:
        rng = philox_rng(seed, index)
    levels = rng.integers(0, params.level_count, size=params.dimension)
    return ImageTensor(params, tuple(int(v) for v in levels))


def sample_member(params: SpaceParams, rng: np.random.Generator,
                  decide: Callable[[ImageTensor], int], label: int,
                  seed: int, index: int) -> ImageTensor:
    """The first :func:`sample_uniform` draw from ``rng``, the stream
    ``philox_rng(seed, index)``, that ``decide`` labels ``label``; raises
    :class:`EmptyClass` after ``MAX_REJECTIONS`` draws."""
    for _ in range(MAX_REJECTIONS):
        image = sample_uniform(params, 0, rng=rng)
        if decide(image) == label:
            return image
    raise EmptyClass(f"no member of label {label} after {MAX_REJECTIONS} "
                     f"draws of stream ({seed}, {index})")


def decode_image(data: bytes | str) -> ImageTensor:
    """Parse the canonical encoding; rejects anything out of contract."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise MalformedInput(f"invalid JSON: {e.msg}", position=e.pos) from e
    if not isinstance(payload, dict):
        raise MalformedInput("top-level value must be an object")
    for key in ("n", "h", "b", "levels"):
        if key not in payload:
            raise MalformedInput(f"missing key {key!r}")
    for key in ("n", "h", "b"):
        v = payload[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise MalformedInput(f"{key!r} must be a positive integer, got {v!r}")
    params = SpaceParams(payload["n"], payload["h"], payload["b"])
    levels = payload["levels"]
    if not isinstance(levels, list):
        raise MalformedInput("'levels' must be an array")
    if len(levels) != params.dimension:
        raise MalformedInput(
            f"'levels' must hold {params.dimension} entries, got {len(levels)}")
    for i, v in enumerate(levels):
        if not isinstance(v, int) or isinstance(v, bool):
            raise MalformedInput(f"level at index {i} is not an integer: {v!r}",
                                 position=i)
        if not (0 <= v <= params.max_level):
            raise MalformedInput(
                f"level {v} at index {i} outside [0, {params.max_level}]",
                position=i)
    return ImageTensor(params, tuple(levels))


def flatten(image: ImageTensor) -> np.ndarray:
    """The image as a point of the unit cube, one coordinate per channel."""
    return np.asarray(image.levels, dtype=np.float64) / image.params.max_level
