"""Perturbation construction: the randomized cell-walk search, which
realizes the "nearest different-class point within radius" map on the
cells of the unit cube (:func:`find_perturbation`), its failure rate
(one hit-and-contract tail per chunk of draws, fed on small spaces by the
dense nearest-cell kernel the full-enumeration oracle also uses and on
larger ones by the walk), and exact minimal-perturbation oracles."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .classifiers import (
    ClassifierHandle,
    labels_for,
    sum_class0_max_level_sum,
    sum_classifier,
)
from .errors import (
    ContractViolation,
    EmptyClass,
    NoOtherClass,
    ShapeMismatch,
)
from .image_space import (
    MAX_REJECTIONS,
    ImageTensor,
    SpaceParams,
    check_enumerable,
    enumerate_space,
    image_from_rank,
    level_diff_pow_sum,
    norm_distance,
    philox_rng,
    philox_words,
    sample_member,
)
from .mcstats import wilson_ci

# cell distances the dense nearest-cell kernel holds at once: 32 points of a
# 256-cell space.  failure_rates uses the kernel where one pass holds at
# least 8 points (spaces of up to 1024 cells): with fewer, the per-pass cost
# outweighs one pruned walk per point (measured crossover 1024-2048 cells).
_DENSE_CELLS = 1 << 13
# raw Philox words failure_rate's decoder holds at once
_DRAW_WORDS = 1 << 13


@dataclass(frozen=True)
class ContinuousPoint:
    """A point of the unit cube with one coordinate per channel."""

    coords: tuple[float, ...]

    def __post_init__(self):
        coords = tuple(float(v) for v in self.coords)
        for i, v in enumerate(coords):
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"coordinate {v} at index {i} outside [0, 1]")
        object.__setattr__(self, "coords", coords)


@dataclass(frozen=True, slots=True)
class PerturbationOutcome:
    """Result of one cell-walk search: a different-class image, the image-
    space L2 distance moved, and the number of cells examined; ``result``
    is None on failure."""

    result: Optional[ImageTensor]
    l2_moved: float
    cells_examined: int

    @property
    def succeeded(self) -> bool:
        return self.result is not None


@dataclass(frozen=True)
class PerturbationSearchResult:
    """A witness image in a different class with its exact distance.

    ``exact`` holds the distance itself for p <= 1 (an int for p = 0, a
    Fraction for p = 1) and the exact p-th power of the distance for
    p >= 2, where the distance itself is irrational.
    """

    p: int
    distance: float
    exact: object
    witness: ImageTensor
    method: str


def cell_bounds(params: SpaceParams, level: int) -> tuple[float, float, bool]:
    """(low, high, closed_top) of one coordinate's cell.

    Cells have width ``2^-b``; all are half-open on top except the last.
    """
    q = params.level_count
    return level / q, min((level + 1) / q, 1.0), level == q - 1


def cell_diameter(params: SpaceParams) -> float:
    """L2 diameter of one cell: ``sqrt(n^2 h) / 2^b``."""
    return math.sqrt(params.dimension) / params.level_count


def sample_point_in_cell(image: ImageTensor,
                         rng: np.random.Generator) -> ContinuousPoint:
    """Uniform point of the image's cell."""
    bounds = [cell_bounds(image.params, level) for level in image.levels]
    return ContinuousPoint(tuple(float(rng.uniform(lo, hi)) for lo, hi, _ in bounds))


def _check_radius(radius: float) -> None:
    if not float(radius) >= 0:  # also rejects NaN
        raise ValueError(f"radius must be >= 0, got {radius}")


def _check_norm(p: int) -> None:
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")


def check_image_space(classifier: ClassifierHandle, image: ImageTensor) -> None:
    """Refuse an image from another space than the classifier's."""
    if image.params != classifier.params:
        raise ShapeMismatch(
            f"image in {image.params}, classifier on {classifier.params}")


def find_perturbation(classifier: ClassifierHandle, image: ImageTensor,
                      radius: float, seed: int | None = None,
                      rng: np.random.Generator | None = None, *,
                      label_cache: dict | None = None) -> PerturbationOutcome:
    """Randomized search for a nearby different-class image.

    Samples a uniform point of the input's cell (deterministic given the
    seed), walks the cell lattice in nondecreasing distance order with
    subtree pruning, and projects onto the first different-class cell
    within the radius; equidistant cells tie-break lexicographically.
    Returns a failure outcome iff no different-class cell intersects the
    ball.

    Cells are visited by rank and labelled from the classifier's label
    vector (:meth:`ClassifierHandle.labels`); ``label_cache`` keeps that
    vector across calls, keyed by classifier.
    """
    _check_radius(radius)
    check_image_space(classifier, image)
    if rng is None:
        rng = philox_rng(0 if seed is None else seed)
    if label_cache is None:
        label_cache = {}
    labels = label_cache.get(classifier)
    if labels is None:
        labels = label_cache[classifier] = classifier.labels()
    walk = _CellWalk(classifier, labels)
    p1 = sample_point_in_cell(image, rng)
    return walk.from_point(image, p1.coords, walk.labels[image.space_rank()],
                           radius)


class _CellWalk:
    """The cell walk of one classifier: its label vector as a memoryview,
    every level's cell bounds and the witness labels ``decide`` gave, made
    once per search or per :func:`failure_rates` call."""

    __slots__ = ("classifier", "params", "labels", "bounds", "decided")

    def __init__(self, classifier: ClassifierHandle, labels: np.ndarray):
        self.classifier = classifier
        self.params = params = classifier.params
        self.labels = memoryview(labels)
        self.bounds = [cell_bounds(params, level)
                       for level in range(params.level_count)]
        self.decided: dict[int, int] = {}

    def from_point(self, image: ImageTensor, coords: Sequence[float],
                   base_label: int, radius: float) -> PerturbationOutcome:
        """Walk from the point ``coords`` of ``image``'s cell (see
        :func:`find_perturbation`); the radius and the space's size are
        checked by the caller."""
        _, rank, cells_examined = self.walk(coords, base_label, radius)
        if rank < 0:
            return PerturbationOutcome(None, 0.0, cells_examined)
        result, moved = self.witness(image, coords, base_label, rank, radius)
        return PerturbationOutcome(result, moved, cells_examined)

    def walks(self, ranks: np.ndarray, coords: np.ndarray, base_label: int,
              radius: float) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_nearest_cells`'s ``(d2, cells)`` from one :meth:`walk`
        per row within ``radius``; a row whose walk finds no cell gets inf
        and its member's rank (of ``ranks``), labelled ``base_label``."""
        d2, cells = np.full(len(ranks), math.inf), ranks.copy()
        for row, point in enumerate(coords.tolist()):
            best_d2, rank, _ = self.walk(point, base_label, radius)
            if rank >= 0:
                d2[row], cells[row] = best_d2, rank
        return d2, cells

    def walk(self, coords: Sequence[float], base_label: int,
             radius: float) -> tuple[float, int, int]:
        """``(best_d2, rank, cells_examined)`` of the first nearest cell not
        labelled ``base_label`` within ``radius``; ``rank`` -1 if none."""
        labels, bounds = self.labels, self.bounds
        r2 = float(radius) * float(radius)
        q = self.params.level_count
        last = self.params.dimension - 1
        # Per coordinate: (squared distance from the point, level), sorted.
        candidates = []
        for x in coords:
            entries = []
            for level, (lo, hi, _) in enumerate(bounds):
                d = lo - x if x < lo else x - hi if x > hi else 0.0
                entries.append((d * d, level))
            entries.sort()
            candidates.append(entries)
        leaf_candidates = candidates[last]

        best_d2, best_rank = r2, -1  # r2 until a cell is found; ties by rank
        cells_examined = 0

        # ``head`` is the rank of the levels chosen above ``depth``, times q.
        def visit(depth: int, partial: float, head: int):
            nonlocal best_d2, best_rank, cells_examined
            if depth == last:
                for d2, level in leaf_candidates:
                    total = partial + d2
                    if total > best_d2:
                        break  # candidates are sorted; the rest are farther
                    cells_examined += 1
                    rank = head + level
                    if labels[rank] != base_label and (
                            total < best_d2 or best_rank < 0 or rank < best_rank):
                        best_d2, best_rank = total, rank
                return
            for d2, level in candidates[depth]:
                total = partial + d2
                if total > best_d2:
                    break
                visit(depth + 1, total, (head + level) * q)

        visit(0, 0.0, 0)
        return best_d2, best_rank, cells_examined

    def witness(self, image: ImageTensor, coords: Sequence[float],
                base_label: int, rank: int,
                radius: float) -> tuple[ImageTensor, float]:
        """Cell ``rank`` as an image and the L2 distance moved, after three
        contracts: another label, the projection of ``coords`` inside the
        cell, and the distance within ``radius`` plus two cell diameters."""
        result = image_from_rank(self.params, rank)
        if self.classifier.decide(result) == base_label:
            raise ContractViolation(f"cell {result.levels} changed its label")
        for x, level in zip(coords, result.levels):
            lo, hi, closed_top = self.bounds[level]
            v = min(max(x, lo), hi)
            if v == hi and not closed_top:
                v = math.nextafter(hi, lo)  # keep the point inside the half-open cell
            if not (lo <= v < hi or closed_top and v == hi):
                raise ContractViolation(f"projected point left cell {result.levels}")
        moved = float(norm_distance(image, result, 2))
        # Both endpoints sit inside cells of diameter sqrt(n^2 h)/2^b, and the
        # walk certified ||p1 - p2|| <= radius; the triangle inequality gives
        # the image-space guarantee checked here.
        if moved > float(radius) + 2 * cell_diameter(self.params) + 1e-9:
            raise ContractViolation(f"moved {moved} beyond radius {radius}")
        return result, moved

    def hits(self, ranks: np.ndarray, coords: np.ndarray, d2: np.ndarray,
             cells: np.ndarray, base_label: int,
             radii: Sequence[float]) -> np.ndarray:
        """Per draw (a row of member ``ranks`` and cell points ``coords``)
        and radius, whether :meth:`from_point` succeeds, from the draw's
        ``d2, cells`` (of :func:`_nearest_cells` or :meth:`walks`): iff its
        cell is not labelled ``base_label`` and ``d2 <= r * r``.
        :meth:`witness`'s contracts are checked at each draw's smallest
        hitting ``r``: one ``decide`` per distinct witness cell, then the
        projection and the distance moved, in numpy."""
        radii = np.array(radii, dtype=float)
        hits = ((np.asarray(self.labels)[cells] != base_label)[:, None]
                & (d2[:, None] <= radii * radii))
        won = hits.any(axis=1)
        ranks, coords, cells = ranks[won], coords[won], cells[won]
        radii = np.where(hits[won], radii, math.inf).min(axis=1)
        for rank in sorted(set(cells.tolist())):
            if rank not in self.decided:
                self.decided[rank] = self.classifier.decide(
                    image_from_rank(self.params, rank))
            if self.decided[rank] == base_label:
                levels = image_from_rank(self.params, rank).levels
                raise ContractViolation(f"cell {levels} changed its label")
        params = self.params
        q = params.level_count
        weights = q ** np.arange(params.dimension - 1, -1, -1)
        levels = cells[:, None] // weights % q
        lo, hi, closed_top = np.array(self.bounds).T[:, levels]
        # keep the point inside the half-open cell
        v = np.minimum(np.maximum(coords, lo),
                       np.where(closed_top, hi, np.nextafter(hi, lo)))
        left = ~((lo <= v) & ((v < hi) | (closed_top == 1) & (v == hi)))
        if left.any():
            levels = tuple(levels[left.any(axis=1).argmax()].tolist())
            raise ContractViolation(f"projected point left cell {levels}")
        steps = ranks[:, None] // weights % q - levels
        moved = ((steps * steps).sum(axis=1) / params.max_level ** 2) ** 0.5
        beyond = moved > radii + 2 * cell_diameter(params) + 1e-9
        if beyond.any():
            at = beyond.argmax()
            raise ContractViolation(
                f"moved {moved[at]} beyond radius {radii[at]}")
        return hits


def _nearest_cells(bounds: Sequence[tuple[float, float, bool]],
                   coords: np.ndarray,
                   masked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``coords``, the squared distance to the first nearest
    cell whose rank is not ``masked`` and that rank (inf and a masked rank
    if all are masked), for ``_DENSE_CELLS // cells`` rows at a time.

    Per coordinate, a table holds each level's squared gap from the point,
    by the walk's float expressions; the tables are added in coordinate
    order, first coordinate most significant, so each cell's sum is the
    walk's ``partial + d2`` and its position is its rank.  The first
    smallest unmasked sum is then the lexicographically first nearest
    cell.
    """
    lo, hi, _ = np.array(bounds).T
    d2 = np.empty(len(coords))
    cells = np.empty(len(coords), dtype=np.int64)
    chunk = max(1, _DENSE_CELLS // len(masked))
    for start in range(0, len(coords), chunk):
        x = coords[start:start + chunk, :, None]
        below, above = lo - x, x - hi
        gaps = np.where(x < lo, below * below,
                        np.where(x > hi, above * above, 0.0))
        sums = gaps[:, 0]
        for column in gaps.transpose(1, 0, 2)[1:]:
            sums = (sums[:, :, None] + column[:, None, :]).reshape(len(x), -1)
        sums[:, masked] = math.inf
        at = sums.argmin(axis=1)
        cells[start:start + len(at)] = at
        d2[start:start + len(at)] = sums[np.arange(len(at)), at]
    return d2, cells


def nearest_cell_exhaustive(
        classifier: ClassifierHandle, points: Sequence[ContinuousPoint],
        base_label: int) -> list[tuple[float, tuple[int, ...] | None]]:
    """Full-enumeration oracle: per point, the squared distance to the
    closest cell not labelled ``base_label`` and that cell's levels, or
    ``(inf, None)`` if there is none; equidistant cells tie-break
    lexicographically.  Independent of the pruned walk.

    Every cell is labelled by one ``decide`` call per call of the oracle
    (:func:`labels_for`), and every cell's distance from every point is
    computed by :func:`_nearest_cells`.
    """
    params = classifier.params
    masked = labels_for(classifier) == base_label
    bounds = [cell_bounds(params, level)
              for level in range(params.level_count)]
    coords = np.array([point.coords for point in points]).reshape(
        len(points), params.dimension)
    d2, cells = _nearest_cells(bounds, coords, masked)
    return [(d2, None) if d2 == math.inf else
            (d2, image_from_rank(params, rank).levels)
            for d2, rank in zip(d2.tolist(), cells.tolist())]


@dataclass(frozen=True)
class FailureRateReport:
    """Empirical failure probability of the cell-walk search."""

    radius: float
    samples: int
    failures: int
    rate: float
    ci95: tuple[float, float]


def failure_rate(classifier: ClassifierHandle, label: int, radius: float,
                 samples: int, seed: int) -> FailureRateReport:
    """Failure probability over uniform class members, with a Wilson CI.

    Sample ``index`` draws its member by rejection and its cell point from
    the stream keyed by ``(seed, index)``: the draws equal those of
    ``philox_rng(seed, index)`` fed to :func:`sample_uniform` until a
    member is found and then to :func:`find_perturbation`, so the estimate
    is independent of evaluation order.  The draws come from raw Philox
    words computed for many indices at once (:func:`_class_draws`).  Each
    sample gets the outcome of :func:`find_perturbation`'s walk from its
    point, by one tail per chunk of samples (:meth:`_CellWalk.hits`) fed
    its nearest different-class cells by one dense pass on up to
    ``_DENSE_CELLS / 8`` cells, beyond by one walk per sample.
    """
    return failure_rates(classifier, label, (radius,), samples, seed)[0]


def failure_rates(classifier: ClassifierHandle, label: int,
                  radii: Sequence[float], samples: int,
                  seed: int) -> list[FailureRateReport]:
    """:func:`failure_rate` at each radius, from one pass of draws, decided
    for every radius at once from each sample's nearest cell (the dense
    kernel's, or its walk's at the largest radius); a bad label, radius or
    sample count, or no radius, is a ``ValueError`` before any labelling."""
    if not 0 <= label < classifier.label_count:
        raise ValueError(f"label must be in [0, {classifier.label_count}), "
                         f"got {label}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not radii:
        raise ValueError("radii must not be empty")
    for radius in radii:
        _check_radius(radius)
    walk = _CellWalk(classifier, classifier.labels())
    dense = 8 * classifier.params.total_images <= _DENSE_CELLS
    masked = np.asarray(walk.labels) == label
    failures = np.zeros(len(radii), dtype=np.int64)
    for ranks, coords in _class_draws(walk, label, samples, seed):
        nearest = (_nearest_cells(walk.bounds, coords, masked) if dense
                   else walk.walks(ranks, coords, label, max(radii)))
        hits = walk.hits(ranks, coords, *nearest, label, radii)
        failures += len(hits) - np.count_nonzero(hits, axis=0)
    return [FailureRateReport(radius=float(radius), samples=samples,
                              failures=failed, rate=failed / samples,
                              ci95=wilson_ci(failed, samples))
            for radius, failed in zip(radii, failures.tolist())]


def _class_draws(walk: _CellWalk, label: int, samples: int,
                 seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(member ranks, cell points)`` of samples ``0 .. samples - 1``, one
    row per sample and one array pair per chunk of samples, decoded from
    the raw words of the streams ``philox_rng(seed, index)``.

    A rejection attempt reads ``dimension`` 32-bit halves, low half of each
    word first, and level ``half >> (32 - b)``: that is
    ``Generator.integers(0, 2^b)``, whose bounded draw never rejects because
    2^b divides 2^32.  After the accepted attempt a left-over high half is
    skipped, and coordinate ``i`` of the point is
    ``lo + (hi - lo) * ((word >> 11) * 2^-53)`` of one whole word, that is
    ``Generator.uniform(lo, hi)`` on the coordinate's cell.  A stream with
    no member in its decoded window is drawn again, the same draws, by
    :func:`sample_member` and :func:`sample_point_in_cell`; where that
    raises :class:`EmptyClass`, the rows of the earlier samples of its
    chunk are yielded first.
    """
    labels = np.asarray(walk.labels)
    members = int(np.count_nonzero(labels == label))
    if not members:
        raise EmptyClass(f"label {label} has no members")
    params = walk.params
    dim, shift = params.dimension, 32 - params.b
    weights = params.level_count ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    lo = np.array([lo for lo, _, _ in walk.bounds])
    width = np.array([hi for _, hi, _ in walk.bounds]) - lo
    # attempts per stream: about four expected rejection runs, within the
    # rejection limit and the word budget
    window = min(MAX_REJECTIONS, 4 * params.total_images // members + 1,
                 max(1, 2 * (_DRAW_WORDS - dim - 2) // dim))
    count = (window * dim + 1) // 2 + dim
    per = max(1, _DRAW_WORDS // count)
    for begin in range(0, samples, per):
        stop = min(samples, begin + per)
        words = philox_words(seed, np.arange(begin, stop, dtype=np.uint64),
                             count)
        rows = np.arange(stop - begin)
        halves = words.astype("<u8", copy=False).view("<u4")[:, :window * dim]
        tried = (halves >> shift).reshape(len(rows), window, dim)
        tried_ranks = tried @ weights
        hit = labels[tried_ranks] == label
        accepted = hit.argmax(axis=1)
        chosen = tried[rows, accepted]
        # the point's words follow the accepted attempt's last half
        point_at = ((accepted + 1) * dim + 1) // 2
        point = words[rows[:, None], point_at[:, None] + np.arange(dim)]
        coords = lo[chosen] + width[chosen] * ((point >> 11) * 2.0 ** -53)
        ranks = tried_ranks[rows, accepted]
        for row in np.flatnonzero(~hit[rows, accepted]).tolist():
            rng = philox_rng(seed, begin + row)
            try:
                member = sample_member(params, rng, walk.classifier.decide,
                                       label, seed, begin + row)
            except EmptyClass:
                if row:
                    yield ranks[:row], coords[:row]
                raise
            ranks[row] = member.space_rank()
            coords[row] = sample_point_in_cell(member, rng).coords
        yield ranks, coords


def _search_result(params: SpaceParams, p: int, pow_sum: int,
                   witness: ImageTensor, method: str) -> PerturbationSearchResult:
    top = params.max_level
    if p == 0:
        return PerturbationSearchResult(p, float(pow_sum), pow_sum, witness, method)
    return PerturbationSearchResult(p, pow_sum ** (1 / p) / top,
                                    Fraction(pow_sum, top ** p), witness, method)


def minimal_perturbation(classifier: ClassifierHandle, image: ImageTensor,
                         p: int) -> PerturbationSearchResult:
    """Exact minimal p-distance to any different-class image, by full scan.

    The integer quantity ``sum |delta_level|^p`` orders candidates exactly,
    so no float tie can pick a wrong witness; the scan stops early once
    the smallest possible nonzero value is reached.
    """
    _check_norm(p)
    check_image_space(classifier, image)
    params = image.params
    check_enumerable(params)
    base_label = classifier.decide(image)
    best = best_witness = None
    for other in enumerate_space(params):
        if classifier.decide(other) == base_label:
            continue
        value = level_diff_pow_sum(image, other, p)
        if best is None or value < best:
            best, best_witness = value, other
            if best == 1:
                break  # no different image can be closer
    if best is None:
        raise NoOtherClass("every image shares the input's label")
    return _search_result(params, p, best, best_witness, "exhaustive")


def attack_sum_classifier(image: ImageTensor, p: int) -> PerturbationSearchResult:
    """Minimal attack on the sum classifier, built greedily.

    Crossing the threshold needs a known net level change D; spending it
    on the largest-headroom channels minimizes the count norm, and
    spreading it one unit at a time onto the currently smallest move
    minimizes any convex power.  Agreement with the exhaustive oracle is
    part of the test suite.
    """
    _check_norm(p)
    params = image.params
    split = sum_class0_max_level_sum(params)
    level_sum = image.level_sum()
    if level_sum <= split:  # label 0: push the sum up
        needed = split + 1 - level_sum
        caps = [params.max_level - v for v in image.levels]
        direction = 1
    else:  # label 1: push the sum down
        needed = level_sum - split
        caps = list(image.levels)
        direction = -1
    if needed > sum(caps):
        raise NoOtherClass("threshold unreachable from this image")

    moves = [0] * len(caps)
    remaining = needed
    if p <= 1:
        for i in sorted(range(len(caps)), key=lambda i: (-caps[i], i)):
            moves[i] = min(caps[i], remaining)
            remaining -= moves[i]
    else:
        # Water fill: each unit goes to the smallest current move that
        # still has headroom (marginal cost of a convex power increases
        # with the move size).
        heap = [(0, i) for i in range(len(caps)) if caps[i] > 0]
        heapq.heapify(heap)
        while remaining:
            move, i = heapq.heappop(heap)
            moves[i] = move + 1
            remaining -= 1
            if moves[i] < caps[i]:
                heapq.heappush(heap, (moves[i], i))

    witness = ImageTensor(params, tuple(v + direction * m
                                        for v, m in zip(image.levels, moves)))
    classifier = sum_classifier(params)
    if classifier.decide(witness) == classifier.decide(image):
        raise ContractViolation("greedy attack did not cross the threshold")
    pow_sum = sum(1 if p == 0 else m ** p for m in moves if m)
    return _search_result(params, p, pow_sum, witness, "sum-analytic")
