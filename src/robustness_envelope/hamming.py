"""Hamming graphs: dense vertex subsets, expansion, interior, and the
two isoperimetric bounds behind the universal non-robustness bound.

Subsets are stored as big-integer bitsets (bit v set iff vertex v is a
member), so expansion is a handful of shift/mask operations per
coordinate instead of a per-vertex neighbor loop.  Many subsets can be
packed side by side into one integer, one slot of whole 64-bit words
each, and expanded by the same operations.  A slow per-vertex
implementation is kept alongside as a cross-check oracle.  Theorem 1's
interior ratio (:func:`interior_ratios`) and Harper's expansion bound
(:func:`harper_bounds`) are decided here for whole blocks of slot rows.

Vertex ``r`` of ``H(n^2 h, 2^b)`` (first coordinate most significant)
is ``image_from_rank(params, r)``, so graph distance is the count norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from . import exactmath
from .errors import NotInterestingSubset, SpaceTooLarge
from .image_space import philox_rng

MAX_MATERIALIZED_VERTICES = 1 << 26
# Subsets packed into one integer per expansion step.  4096 ran no faster
# and raised the hamming suite's peak RSS by about 1 MiB more.
CHUNK = 2048
# Bits one packed chunk holds at most: rows wider than 512 bits go fewer
# than CHUNK to a chunk, which bounds the chunk's digit masks too.
PACKED_BITS = 1 << 20
# slack of the Harper expansion bound for the root solver's error
HARPER_TOL = 1e-9


@dataclass(frozen=True)
class GraphParams:
    """Words of length ``dims`` over an ``alphabet``-letter alphabet;
    edges join words differing in exactly one coordinate."""

    dims: int
    alphabet: int

    def __post_init__(self):
        if self.dims < 1:
            raise ValueError(f"dims must be >= 1, got {self.dims}")
        if self.alphabet < 2:
            raise ValueError(f"alphabet must be >= 2, got {self.alphabet}")

    @property
    def vertex_count(self) -> int:
        return self.alphabet ** self.dims

    def word_of(self, vertex: int) -> tuple[int, ...]:
        """Digits of a vertex, first coordinate most significant."""
        q = self.alphabet
        word = [0] * self.dims
        for i in range(self.dims - 1, -1, -1):
            vertex, word[i] = divmod(vertex, q)
        return tuple(word)

    def vertex_of(self, word) -> int:
        q = self.alphabet
        vertex = 0
        for digit in word:
            vertex = vertex * q + digit
        return vertex

    def distance(self, u: int, v: int) -> int:
        """Hamming distance between two vertices."""
        return sum(a != b for a, b in zip(self.word_of(u), self.word_of(v)))


def _replicate(pattern: int, width: int, count: int) -> int:
    # Repeat a width-bit pattern `count` times; the comb integer
    # (2^(w*c)-1)/(2^w-1) has one set bit per period, so the product
    # lays the pattern down without carries.
    comb = ((1 << (width * count)) - 1) // ((1 << width) - 1)
    return pattern * comb


@lru_cache(maxsize=64)
def _step_masks(dims: int, q: int):
    """Per coordinate: (stride, digit < q - 1 mask, digit > 0 mask)."""
    full = (1 << q ** dims) - 1
    out = []
    for i in range(dims):
        stride = q ** i
        zero = _replicate((1 << stride) - 1, stride * q, q ** (dims - i - 1))
        out.append((stride, full ^ (zero << stride * (q - 1)), full ^ zero))
    return tuple(out)


def _slot_width(count: int) -> int:
    """Bits per packed subset: the whole 64-bit words holding ``count`` bits."""
    return 64 * -(-count // 64)


def _slot_masks(dims: int, q: int, slots: int):
    """``_step_masks`` laid down in each of ``slots`` packed slots."""
    width = _slot_width(q ** dims)
    return tuple((stride, _replicate(below_top, width, slots),
                  _replicate(above_zero, width, slots))
                 for stride, below_top, above_zero in _step_masks(dims, q))


def full_row(count: int) -> np.ndarray:
    """The whole vertex set as one slot row of uint64 words."""
    words = _slot_width(count) // 64
    return np.frombuffer(((1 << count) - 1).to_bytes(words * 8, "little"),
                         dtype="<u8")


def subset_rows(members: np.ndarray) -> np.ndarray:
    """Slot rows of uint64 words, one per row of a boolean array over the
    vertices, each the subset of vertices marked in its row."""
    packed = np.packbits(members, axis=1, bitorder="little")
    pad = _slot_width(members.shape[1]) // 8 - packed.shape[1]
    return np.pad(packed, ((0, 0), (0, pad))).view("<u8")


def pack_slots(rows: np.ndarray) -> int:
    """One integer holding each row of uint64 words (least significant
    word first) in its own slot, row 0 lowest."""
    return int.from_bytes(np.ascontiguousarray(rows, dtype="<u8").tobytes(),
                          "little")


def _row_sizes(rows: np.ndarray) -> np.ndarray:
    """Member count of each row of uint64 words."""
    return np.bitwise_count(rows).sum(axis=1, dtype=np.int64)


def _slot_sizes(bits: int, slots: int, words: int) -> np.ndarray:
    """Member count of each of ``slots`` packed slots of ``words`` words."""
    data = np.frombuffer(bits.to_bytes(slots * words * 8, "little"), dtype="<u8")
    return _row_sizes(data.reshape(slots, words))


def _expand_bits(dims: int, q: int, bits: int, slots: int = 1,
                 masks=None) -> int:
    """Closed neighborhood of a bitset: members plus all one-coordinate
    changes, one level step at a time under the digit masks.

    With ``slots`` > 1, ``bits`` packs that many subsets, one per slot of
    ``_slot_width(q ** dims)`` bits, and each is expanded on its own: the
    digit masks stop every step at the edge of its slot.  A caller that
    expands many times passes ``masks=_slot_masks(dims, q, slots)``, built
    once; masks built for more slots serve fewer as well.
    """
    if masks is None:
        masks = (_step_masks(dims, q) if slots == 1
                 else _slot_masks(dims, q, slots))
    result = bits
    for stride, below_top, above_zero in masks:
        up = down = bits
        for _ in range(1, q):
            up = (up & below_top) << stride
            down = (down & above_zero) >> stride
            result |= up | down
    return result


def proper_subset_rows(count: int, max_size: int) -> Iterator[np.ndarray]:
    """Chunks of slot rows of every bitset with ``1 <= |S| <= max_size``
    except the full set, in increasing order."""
    end = (1 << count) - 1
    for start in range(1, end, CHUNK):
        rows = np.arange(start, min(start + CHUNK, end), dtype=np.uint64)[:, None]
        yield rows[_row_sizes(rows) <= max_size]


def seeded_subset_rows(count: int, how_many: int,
                       seed: int) -> Iterator[np.ndarray]:
    """Chunks of slot rows of ``how_many`` seeded subsets with
    ``1 <= |S| <= count // 2``.

    A draw larger than half the graph is complemented and an empty one is
    drawn again.  Each draw reads ``nbytes`` rounded up to whole 32-bit
    words of the Philox stream, as one ``rng.bytes(nbytes)`` call does, so
    one bulk ``rng.bytes`` per chunk reads the same subsets.
    """
    rng = philox_rng(seed)
    nbytes = (count + 7) // 8
    stride = 4 * -(-nbytes // 4)
    full = full_row(count)
    half = count // 2
    left = how_many
    while left > 0:
        raw = np.frombuffer(rng.bytes(CHUNK * stride), dtype=np.uint8)
        padded = np.zeros((CHUNK, full.nbytes), dtype=np.uint8)
        padded[:, :nbytes] = raw.reshape(CHUNK, stride)[:, :nbytes]
        rows = padded.view("<u8") & full
        rows[_row_sizes(rows) > half] ^= full
        rows = rows[_row_sizes(rows) > 0][:left]
        left -= len(rows)
        yield rows


def expansion_sizes(graph: GraphParams, blocks,
                    steps: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each block of slot rows in chunks of at most ``CHUNK`` rows and
    ``PACKED_BITS`` bits (or one row), each chunk with its sizes ``|Exp^k S|``
    for k = 0..steps, one column per k, expanded slot-packed under digit
    masks for the next power of two at or above the largest chunk so far."""
    dims, q = graph.dims, graph.alphabet
    built, masks = 0, None
    for block in blocks:
        limit = max(1, min(CHUNK, PACKED_BITS // (64 * block.shape[1])))
        for at in range(0, len(block), limit):
            rows = block[at:at + limit]
            slots, words = rows.shape
            if slots > built:
                built = 1 << (slots - 1).bit_length()
                masks = _slot_masks(dims, q, built)
            sizes = np.empty((slots, steps + 1), dtype=np.int64)
            sizes[:, 0] = _row_sizes(rows)
            grown = pack_slots(rows)
            for k in range(1, steps + 1):
                grown = _expand_bits(dims, q, grown, slots, masks)
                sizes[:, k] = _slot_sizes(grown, slots, words)
            yield rows, sizes


def _within_cost_bits(dims: int, q: int, bits: int, p: int,
                      threshold: int) -> int:
    """Every vertex within total cost ``threshold`` of the bitset.

    Moving one coordinate by ``delta`` levels costs 1 for p = 0 and
    ``delta ** p`` otherwise, and costs add over coordinates (for p = 0
    this is ``threshold``-fold expansion).  Coordinates are added one at
    a time, keeping the vertices reached at each exact partial cost; a
    move of ``delta`` levels is ``delta`` one-level steps under the two
    digit masks.
    """
    if threshold < 0:
        return 0
    layers = {0: bits}  # partial cost -> vertices reached at that cost
    masks = _step_masks(dims, q)
    for index, (stride, below_top, above_zero) in enumerate(masks):
        last = index == dims - 1
        grown = dict(layers)  # staying put costs nothing
        for spent, layer in layers.items():
            for mask, up in ((below_top, True), (above_zero, False)):
                moved = layer
                for delta in range(1, q):
                    total = spent + (1 if p == 0 else delta ** p)
                    if total > threshold:
                        break
                    moved &= mask
                    moved = moved << stride if up else moved >> stride
                    if not moved:
                        break
                    # after the last coordinate no cost is needed: one layer
                    key = -1 if last else total
                    grown[key] = grown.get(key, 0) | moved
        layers = grown
    result = 0
    for layer in layers.values():
        result |= layer
    return result


@dataclass(frozen=True)
class HammingSubset:
    """A vertex subset stored as a dense bitset."""

    graph: GraphParams
    bits: int

    def __post_init__(self):
        count = self.graph.vertex_count
        if count > MAX_MATERIALIZED_VERTICES:
            raise SpaceTooLarge(
                f"{count} vertices exceed the materialization cap "
                f"{MAX_MATERIALIZED_VERTICES}")
        if not (0 <= self.bits < (1 << count)):
            raise ValueError("bitset outside the vertex range")

    @classmethod
    def empty(cls, graph: GraphParams) -> "HammingSubset":
        return cls(graph, 0)

    @classmethod
    def full(cls, graph: GraphParams) -> "HammingSubset":
        return cls(graph, (1 << graph.vertex_count) - 1)

    @classmethod
    def from_members(cls, graph: GraphParams, members) -> "HammingSubset":
        bits = 0
        for v in members:
            bits |= 1 << v
        return cls(graph, bits)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, vertex: int) -> bool:
        return bool(self.bits >> vertex & 1)

    def members(self) -> Iterator[int]:
        bits = self.bits
        v = 0
        while bits:
            if bits & 1:
                yield v
            bits >>= 1
            v += 1

    def complement(self) -> "HammingSubset":
        full = (1 << self.graph.vertex_count) - 1
        return HammingSubset(self.graph, self.bits ^ full)

    def issubset(self, other: "HammingSubset") -> bool:
        return self.bits & ~other.bits == 0


def expand(s: HammingSubset) -> HammingSubset:
    """Vertices of ``s`` together with every neighbor of ``s``."""
    return HammingSubset(s.graph,
                         _expand_bits(s.graph.dims, s.graph.alphabet, s.bits))


def expand_by_neighbors(s: HammingSubset) -> HammingSubset:
    """Reference implementation of :func:`expand` with per-vertex loops."""
    g = s.graph
    q = g.alphabet
    bits = s.bits
    for v in s.members():
        for i in range(g.dims):
            stride = q ** i
            digit = (v // stride) % q
            base = v - digit * stride
            for a in range(q):
                bits |= 1 << (base + a * stride)
    return HammingSubset(g, bits)


def expand_k(s: HammingSubset, k: int) -> HammingSubset:
    """All vertices within graph distance ``k`` of ``s``."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    dims, q = s.graph.dims, s.graph.alphabet
    bits = s.bits
    full = (1 << s.graph.vertex_count) - 1
    for _ in range(k):
        if bits == 0 or bits == full:
            break  # fixed points of expansion
        bits = _expand_bits(dims, q, bits)
    return HammingSubset(s.graph, bits)


def interior_k(s: HammingSubset, k: int) -> HammingSubset:
    """Vertices of ``s`` whose distance-k ball stays inside ``s``.

    Computed through the duality with expansion of the complement.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return expand_k(s.complement(), k).complement()


def interior_by_balls(s: HammingSubset, k: int) -> HammingSubset:
    """Reference interior: test each member's ball directly."""
    keep = 0
    for v in s.members():
        ball = expand_k(HammingSubset.from_members(s.graph, [v]), k)
        if ball.issubset(s):
            keep |= 1 << v
    return HammingSubset(s.graph, keep)


@dataclass(frozen=True)
class HamgraphTheoremCheck:
    """One evaluation of the interior-ratio bound on a subset."""

    subset_size: int
    radius: int
    interior_size: int
    ratio: Fraction
    bound: float
    holds: bool


def interior_ratio_cases(dims: int, c_values) -> list[tuple]:
    """``(c, radius, float bound)`` of theorem 1 for each c on ``dims``
    coordinates: ``radius = floor(c sqrt(dims)) + 2``, exact because
    ``floor(sqrt(x)) = isqrt(floor(x))``, and ``bound = 2 e^{-2c^2}``."""
    cases = []
    for c in c_values:
        if not 0 < c < math.inf:
            raise ValueError(f"c must be positive and finite, got {c}")
        radius = math.isqrt(math.floor(Fraction(c) ** 2 * dims)) + 2
        x = float(c)
        cases.append((c, radius, 2.0 * math.exp(-2.0 * x * x)))
    if not cases:
        raise ValueError("c_values must not be empty")
    return cases


def interior_ratio_holds(interiors: np.ndarray, sizes: np.ndarray,
                         cases) -> tuple[np.ndarray, np.ndarray]:
    """Float margins ``bound - interior/size`` and the verdicts
    ``interior/size < 2 e^{-2c^2}`` of each set (row) at each case (column).

    The ratio is at most 1 and correctly rounded; the float bound is at
    most 2 and within ``(|x| + 2) 2^-53`` of the exact one relative, x the
    exponent ``-2c^2`` (``3|x| + 2`` for a c that is not a float).  So the
    float margin is within 2^-49 of the exact one for every c, and a
    margin above 1e-9 decides by float.  Every other entry goes to the
    certified comparison, in row-major order.
    """
    interiors = np.asarray(interiors)
    sizes = np.asarray(sizes).reshape(-1, 1)
    margins = (np.array([bound for _, _, bound in cases], dtype=np.float64)
               - interiors / sizes)
    holds = margins > 1e-9
    for row, col in np.argwhere(~holds):
        c = cases[col][0]
        holds[row, col] = exactmath.compare_scaled_exp(
            Fraction(int(interiors[row, col]), int(sizes[row, 0])),
            Fraction(2), -2 * Fraction(c) ** 2) < 0
    return margins, holds


def interior_ratios(graph: GraphParams, blocks, cases) -> Iterator[tuple]:
    """``(rows, sizes, interiors, margins, holds)`` per packed chunk of the
    vertex sets in each block of slot rows: ``|S|``, ``|Int^r S|`` at each
    case's radius and :func:`interior_ratio_holds` of the two.  An interior
    is ``q^n - |Exp^r|`` of the complement, expanded at most ``dims`` steps:
    ``Exp^k`` of any set is fixed from the graph's diameter on."""
    count, full = graph.vertex_count, full_row(graph.vertex_count)
    radii = [min(radius, graph.dims) for _, radius, _ in cases]
    for complements, grown in expansion_sizes(
            graph, (rows ^ full for rows in blocks), max(radii)):
        interiors, sizes = count - grown[:, radii], count - grown[:, 0]
        yield (complements ^ full, sizes, interiors,
               *interior_ratio_holds(interiors, sizes, cases))


def _harper_verdict(graph: GraphParams, k: int, size: int, reached: int,
                    memo: dict) -> tuple[Fraction, float, bool]:
    """Harper's bound (:func:`exactmath.harper_rhs`) on ``|Exp^k S|/q^n`` for
    ``|S| = size``, and the margin and verdict ``reached/q^n >= bound -
    HARPER_TOL`` (the root solver's error), memoized in ``memo``."""
    if (k, size, reached) not in memo:
        count, tol = graph.vertex_count, Fraction(HARPER_TOL)
        if (k, size) not in memo:
            memo[k, size] = exactmath.harper_rhs(graph.dims, k,
                                                 Fraction(size, count), tol)
        bound, lhs = memo[k, size], Fraction(reached, count)
        memo[k, size, reached] = bound, float(lhs - bound), lhs >= bound - tol
    return memo[k, size, reached]


def harper_bounds(graph: GraphParams, blocks, ks) -> Iterator[tuple]:
    """``(rows, margins, holds)`` per packed chunk of the vertex sets in
    each block of slot rows, by :func:`_harper_verdict`, one column per k."""
    count, memo = graph.vertex_count, {}
    for rows, sizes in expansion_sizes(graph, blocks, max(ks)):
        judged = np.empty((2, len(rows), len(ks)))  # margins, verdicts
        for col, k in enumerate(ks):
            pairs, inverse = np.unique(sizes[:, 0] * (count + 1) + sizes[:, k],
                                       return_inverse=True)
            judged[:, :, col] = np.array(
                [_harper_verdict(graph, k, *divmod(pair, count + 1), memo)[1:]
                 for pair in pairs.tolist()]).T[:, inverse]
        yield rows, judged[0], judged[1] > 0


def check_hamgraph_theorem(s: HammingSubset, c: float) -> HamgraphTheoremCheck:
    """Check ``|Int^r(S)| / |S| < 2 e^{-2c^2}`` at theorem 1's radius
    (:func:`interior_ratio_cases`), decided by :func:`interior_ratio_holds`.

    Requires a nonempty subset no larger than half the graph.
    """
    [case] = interior_ratio_cases(s.graph.dims, [c])
    count = s.graph.vertex_count
    if s.size < 1 or 2 * s.size > count:
        raise NotInterestingSubset(
            f"subset size {s.size} outside [1, {count // 2}]")
    interior = interior_k(s, case[1]).size
    _, holds = interior_ratio_holds([[interior]], [s.size], [case])
    return HamgraphTheoremCheck(subset_size=s.size, radius=case[1],
                                interior_size=interior,
                                ratio=Fraction(interior, s.size),
                                bound=case[2], holds=bool(holds[0, 0]))


@dataclass(frozen=True)
class HarperCheck:
    """One evaluation of the expansion lower bound on a subset."""

    subset_size: int
    k: int
    expansion_fraction: Fraction
    lower_bound: Fraction
    holds: bool


def harper_check(s: HammingSubset, k: int) -> HarperCheck:
    """Harper's expansion bound on one subset: the per-subset reference of
    :func:`harper_bounds`, expanded by :func:`expand_k`."""
    count = s.graph.vertex_count
    if s.size < 1 or s.size >= count:
        raise NotInterestingSubset("subset must be proper and nonempty")
    if not (1 <= k < s.graph.dims):
        raise ValueError(f"need 1 <= k < dims, got k={k}")
    reached = expand_k(s, k).size
    rhs, _, holds = _harper_verdict(s.graph, k, s.size, reached, {})
    return HarperCheck(subset_size=s.size, k=k,
                       expansion_fraction=Fraction(reached, count),
                       lower_bound=rhs, holds=holds)
