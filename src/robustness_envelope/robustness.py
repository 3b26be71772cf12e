"""Per-image and per-class robustness measurement.

Three routes to the same quantities, used to check each other:

* exhaustive: classes as bitsets over the vertices of ``H(n^2 h, 2^b)``
  and one cost-layered expansion for every norm; the dense matrix
  (:func:`robust_flags_by_matrix`) and per-image scans are its oracles,
* analytic exact fractions for the sum classifier via its level-sum PMF,
  whose integer counts also draw uniform class members without rejection,
* Monte Carlo estimation with Wilson intervals for anything larger.

All budget comparisons reduce to integers: a p-norm budget turns into a
threshold on the integer ``sum |delta_level|^p``, so inclusive budgets
(``||.||_p <= d``) are decided without float ties.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import exactmath, hamming, perturb
from .classifiers import (
    ClassifierHandle,
    is_interesting,
    labels_for,
    level_sum_pmf,
    sum_class0_max_level_sum,
)
from .errors import (
    BallTooLarge,
    ContractViolation,
    EmptyClass,
    PreconditionViolated,
    SpaceTooLarge,
)
from .image_space import (
    ImageTensor,
    PerturbationBudget,
    SpaceParams,
    enumerate_space,
    level_diff_pow_sum,
    philox_rng,
    sample_member,
)
from .mcstats import wilson_ci

MATRIX_CAP = 2048  # the dense oracle handles spaces up to this many images
BALL_CAP = 1 << 20  # count-norm balls image_is_robust enumerates

CSV_HEADER = ("n", "h", "b", "classifier", "label", "p", "size", "method",
              "fraction", "ci_lo", "ci_hi", "samples", "seed")


@dataclass(frozen=True)
class RobustnessReport:
    """Measured robust fraction of one class against one budget.

    ``total`` is the number of images the verdict aggregates over: the
    class size for exact methods, the sample count for Monte Carlo.
    Exact methods carry a Fraction and no interval; Monte Carlo carries
    the Wilson interval and the seed.
    """

    space: SpaceParams
    classifier: str
    label: int
    budget: PerturbationBudget
    total: int
    robust_count: int
    fraction: Fraction | float
    method: str
    ci95: Optional[tuple[float, float]] = None
    samples: Optional[int] = None
    seed: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "n": self.space.n, "h": self.space.h, "b": self.space.b,
            "classifier": self.classifier, "label": self.label,
            "p": self.budget.p, "size": float(self.budget.size),
            "method": self.method, "fraction": float(self.fraction),
            "ci_lo": None if self.ci95 is None else self.ci95[0],
            "ci_hi": None if self.ci95 is None else self.ci95[1],
            "samples": self.samples, "seed": self.seed,
        }

    def csv_row(self) -> list:
        d = self.to_dict()
        return [d[k] if d[k] is not None else "" for k in CSV_HEADER]


@lru_cache(maxsize=5)  # p = 0..4 of one space: 160 MiB at MATRIX_CAP
def _diff_pow_matrix(params: SpaceParams, p: int) -> np.ndarray:
    """Pairwise ``sum |delta_level|^p`` (count for p = 0) as int64."""
    if params.dimension * params.max_level ** p >= 2 ** 63:
        raise PreconditionViolated(
            f"level distances at p = {p} overflow int64 in {params}")
    if params.total_images > MATRIX_CAP:
        raise SpaceTooLarge(f"space holds {params.total_images} images, "
                            f"cap is {MATRIX_CAP}")
    levels = np.array([img.levels for img in enumerate_space(params)],
                      dtype=np.int64)
    n = len(levels)
    out = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        diff = np.abs(levels - levels[i])
        if p == 0:
            out[i] = (diff != 0).sum(axis=1)
        else:
            out[i] = (diff ** p).sum(axis=1)
    return out


def level_threshold(params: SpaceParams, budget: PerturbationBudget) -> int:
    """Integer threshold equivalent to ``||.||_p <= size`` on level sums."""
    if budget.p == 0:
        return math.floor(Fraction(budget.size))
    return math.floor(budget.exact_size_pow() * params.max_level ** budget.p)


def _exhaustive(classifier: ClassifierHandle,
                budgets: Sequence[PerturbationBudget]
                ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Every image's label and, per budget, every image's verdict.

    Labels are decided once.  Each class present becomes a bitset over
    ranks, and its robust members are ``members & ~within(others)``.
    """
    params = classifier.params
    labels = labels_for(classifier)
    count = len(labels)
    full = (1 << count) - 1
    classes = [int.from_bytes(np.packbits(labels == label, bitorder="little")
                              .tobytes(), "little")
               for label in np.flatnonzero(np.bincount(labels))]
    verdicts = []
    for budget in budgets:
        threshold = level_threshold(params, budget)
        robust = 0
        for members in classes:
            robust |= members & ~hamming._within_cost_bits(
                params.dimension, params.level_count, full ^ members,
                budget.p, threshold)
        packed = np.frombuffer(robust.to_bytes((count + 7) // 8, "little"),
                               np.uint8)
        verdicts.append(np.unpackbits(packed, count=count,
                                      bitorder="little").view(bool))
    return labels, verdicts


def robust_flags(classifier: ClassifierHandle,
                 budget: PerturbationBudget) -> np.ndarray:
    """Robustness verdict for every image of an enumerable space, exactly.

    An image is robust iff no image within the (integerized) budget wears
    a different label.
    """
    return _exhaustive(classifier, [budget])[1][0]


def robust_flags_by_matrix(classifier: ClassifierHandle,
                           budget: PerturbationBudget) -> np.ndarray:
    """Oracle for :func:`robust_flags` through the dense pairwise distance
    matrix, on spaces of at most ``MATRIX_CAP`` images."""
    matrix = _diff_pow_matrix(classifier.params, budget.p)
    labels = labels_for(classifier)
    differs = labels[None, :] != labels[:, None]
    within = matrix <= level_threshold(classifier.params, budget)
    return ~(differs & within).any(axis=1)


def image_is_robust(classifier: ClassifierHandle, image: ImageTensor,
                    budget: PerturbationBudget) -> bool:
    """Whether every image within the budget keeps the input's label.

    p = 0 enumerates the perturbation ball directly; p >= 1 compares the
    exact minimal attack distance for the sum classifier, or scans the
    space when it is enumerable.
    """
    perturb.check_image_space(classifier, image)
    params = image.params
    base_label = classifier.decide(image)
    if budget.p == 0:
        d = min(level_threshold(params, budget), params.dimension)
        alt = params.max_level  # alternative values per changed channel
        ball = sum(math.comb(params.dimension, j) * alt ** j
                   for j in range(d + 1))
        if ball > BALL_CAP:
            raise BallTooLarge(f"ball holds {ball} images, cap is {BALL_CAP}")
        base = list(image.levels)
        others = [[v for v in range(params.level_count) if v != base[i]]
                  for i in range(params.dimension)]
        for j in range(1, d + 1):
            for positions in itertools.combinations(range(params.dimension), j):
                for values in itertools.product(*(others[i] for i in positions)):
                    candidate = base.copy()
                    for i, v in zip(positions, values):
                        candidate[i] = v
                    if classifier.decide(ImageTensor(params, tuple(candidate))) != base_label:
                        return False
        return True
    if classifier.kind == "sum":
        # robust iff the minimal attack lands strictly beyond the budget;
        # for p = 1 `exact` is the distance, beyond that its p-th power
        attack = perturb.attack_sum_classifier(image, budget.p)
        return attack.exact > budget.exact_size_pow()
    threshold = level_threshold(params, budget)
    for other in enumerate_space(params):
        if (level_diff_pow_sum(image, other, budget.p) <= threshold
                and classifier.decide(other) != base_label):
            return False
    return True


@lru_cache(maxsize=8)
def _level_sum_pmfs(params: SpaceParams) -> tuple[exactmath.DiscretePMF, ...]:
    """The m-fold level-sum PMF for m = 0..dimension: its ``counts[s]`` is
    the number of length-m level sequences summing to s."""
    base = exactmath.pmf_uniform_levels(params.level_count)
    tables = [exactmath.pmf_point(0)]
    for _ in range(params.dimension):
        tables.append(exactmath.pmf_convolve(tables[-1], base))
    return tuple(tables)


def _uniform_below(total: int, rng: np.random.Generator) -> int:
    """Uniform integer in [0, total) for arbitrary-precision totals."""
    bits = total.bit_length()
    nbytes = (bits + 7) // 8
    mask = (1 << bits) - 1
    while True:
        draw = int.from_bytes(rng.bytes(nbytes), "little") & mask
        if draw < total:
            return draw


def sample_sum_class_member(params: SpaceParams, label: int,
                            rng: np.random.Generator) -> ImageTensor:
    """Uniform member of a sum-classifier class without rejection.

    Draws the level sum from its exact conditional distribution (counts
    are exact big integers), then a uniform composition realizing that
    sum, digit by digit.
    """
    tables = _level_sum_pmfs(params)
    prefix = tables[params.dimension].prefix
    split = sum_class0_max_level_sum(params)
    # the class's level sums are the prefix entries lo..hi, offset by below
    lo, hi = (0, split) if label == 0 else (split + 1, len(prefix) - 1)
    below = prefix[lo - 1] if lo else 0
    total = prefix[hi] - below if lo <= hi else 0
    if total == 0:
        raise EmptyClass(f"label {label} has no members")
    target = bisect_right(prefix, below + _uniform_below(total, rng), lo, hi + 1)

    levels = []
    remaining = target
    for position in range(params.dimension):
        suffix = tables[params.dimension - position - 1].counts
        weights = []
        for v in range(params.level_count):
            rest = remaining - v
            weights.append(suffix[rest] if 0 <= rest < len(suffix) else 0)
        cumulative = list(itertools.accumulate(weights))
        v = bisect_right(cumulative, _uniform_below(cumulative[-1], rng))
        levels.append(v)
        remaining -= v
    if remaining != 0:
        raise ContractViolation(f"composition misses its sum by {remaining}")
    return ImageTensor(params, tuple(levels))


def class_robust_fraction(classifier: ClassifierHandle, label: int,
                          budget: PerturbationBudget,
                          method: str = "exhaustive", *,
                          samples: Optional[int] = None,
                          seed: Optional[int] = None) -> RobustnessReport:
    """Robust fraction of one class: exact enumeration or Monte Carlo.

    A label outside ``[0, label_count)`` is a ``ValueError``, raised before
    any image is labelled or drawn; on an enumerable space, so is an empty
    class.  Monte Carlo draws member ``index`` by :func:`sample_member`.
    """
    params = classifier.params
    if not 0 <= label < classifier.label_count:
        raise ValueError(f"label must be in [0, {classifier.label_count}), "
                         f"got {label}")
    if method == "exhaustive":
        labels, (flags,) = _exhaustive(classifier, [budget])
        members = labels == label
        member_count = int(members.sum())
        robust_count = int((flags & members).sum())
        if member_count == 0:
            raise EmptyClass(f"label {label} has no members")
        return RobustnessReport(
            space=params, classifier=classifier.spec, label=label,
            budget=budget, total=member_count, robust_count=robust_count,
            fraction=Fraction(robust_count, member_count), method="exhaustive")
    if method == "monte_carlo":
        if not samples or samples < 1:
            raise ValueError("monte_carlo needs samples >= 1")
        if seed is None:
            raise ValueError("monte_carlo needs a seed")
        try:
            if label not in classifier.labels():
                raise EmptyClass(f"label {label} has no members")
        except SpaceTooLarge:
            pass  # beyond the bound, the rejection limit decides
        robust_count = 0
        for index in range(samples):
            member = sample_member(params, philox_rng(seed, index),
                                   classifier.decide, label, seed, index)
            if image_is_robust(classifier, member, budget):
                robust_count += 1
        return RobustnessReport(
            space=params, classifier=classifier.spec, label=label,
            budget=budget, total=samples, robust_count=robust_count,
            fraction=robust_count / samples, method="monte_carlo",
            ci95=wilson_ci(robust_count, samples), samples=samples, seed=seed)
    raise ValueError(f"unknown method {method!r}")


def sum_exact_fraction_L1(params: SpaceParams, size) -> Fraction:
    """Exact fraction of the sum classifier's class 0 robust to an L1 budget.

    A class-0 image with level sum L can be pushed up by at most
    ``floor(size * max_level)`` levels (headroom never flips the verdict:
    when it binds, the reachable maximum is the full sum, which is already
    on the other side).  Negative budgets are vacuously safe.
    """
    split = sum_class0_max_level_sum(params)
    shift = math.floor(Fraction(size) * params.max_level)
    robust_max = min(split, split - shift)
    pmf = level_sum_pmf(params)
    denominator = pmf.cdf_at(split)
    if denominator == 0:
        raise EmptyClass("class 0 is empty")
    return pmf.cdf_at(robust_max) / denominator


def first_reduction_violation(classifier: ClassifierHandle, sizes: Sequence[int],
                              norms: Sequence[int]) -> Optional[tuple[int, str]]:
    """First violated norm reduction as ``(d, kind)``, or None, d by d:
    robust at L1 size d implies robust at L0 size d (``"L1->L0"``), then
    for each p >= 2 (``"L0->Lp"``) robust at L0 size d implies robust at
    Lp size ``d^(1/p)/(2^b-1)`` and not robust at L0 size d implies not
    robust at Lp size ``d^(1/p)``, the irrational sizes carried as exact
    p-th powers.  One exhaustive pass decides every budget.
    """
    if any(p < 2 for p in norms):
        raise ValueError(f"every p must be >= 2, got {list(norms)}")
    top = classifier.params.max_level
    budgets = []
    for d in sizes:
        budgets += [PerturbationBudget(1, Fraction(d)),
                    PerturbationBudget(0, Fraction(d))]
        for p in norms:
            budgets += [
                PerturbationBudget(p, float(d) ** (1 / p) / top,
                                   size_pow=Fraction(d) / Fraction(top) ** p),
                PerturbationBudget(p, float(d) ** (1 / p), size_pow=Fraction(d))]
    verdicts = iter(_exhaustive(classifier, budgets)[1])
    for d in sizes:
        robust_l1, robust_l0 = next(verdicts), next(verdicts)
        if not np.all(~robust_l1 | robust_l0):
            return d, "L1->L0"
        for p in norms:
            small, large = next(verdicts), next(verdicts)
            if not (np.all(~robust_l0 | small) and np.all(~large | robust_l0)):
                return d, f"L0->L{p}"
    return None


@dataclass(frozen=True)
class Theorem1Entry:
    """One (class, c) evaluation of the universal upper bound."""

    label: int
    c: float
    budget: int
    class_size: int
    robust_count: int
    fraction: Fraction
    bound: float
    margin: float
    holds: bool


@dataclass(frozen=True)
class Theorem1Report:
    classifier: str
    space: SpaceParams
    entries: tuple[Theorem1Entry, ...]

    @property
    def all_hold(self) -> bool:
        return all(e.holds for e in self.entries)


def theorem1_reports(classifiers: Iterable[ClassifierHandle],
                     c_values: Sequence[float]) -> Iterator[Theorem1Report]:
    """Exhaustive check of the universal non-robustness bound: one report
    per classifier, in order, all of one space (else ``ValueError``).

    For every interesting class and every c: the robust fraction at the
    count-norm budget ``floor(c sqrt(h) n) + 2`` must be strictly below
    ``2 e^{-2 c^2}``.  The robust members at radius r are the class's
    interior ``Int^r``: every interesting class of the batch is one slot
    row of one block for :func:`hamming.interior_ratios`, on the cases of
    :func:`hamming.interior_ratio_cases`."""
    classifiers = list(classifiers)
    if not classifiers:
        return
    params = classifiers[0].params
    if any(classifier.params != params for classifier in classifiers):
        raise ValueError(f"a batch holds one space, {params}, got others")
    cases = hamming.interior_ratio_cases(params.dimension, c_values)
    interesting, rows = [], []
    for classifier in classifiers:
        labels = classifier.labels()
        classes = np.array([label for label, count in enumerate(np.bincount(labels))
                            if is_interesting(int(count), params)], labels.dtype)
        interesting.append(classes.tolist())
        rows.append(hamming.subset_rows(labels == classes[:, None]))
    table = itertools.chain.from_iterable(
        zip(*(column.tolist() for column in chunk[1:]))
        for chunk in hamming.interior_ratios(
            hamming.GraphParams(params.dimension, params.level_count),
            [np.concatenate(rows)], cases))
    for classifier, classes in zip(classifiers, interesting):
        mine = list(zip(classes, itertools.islice(table, len(classes))))
        yield Theorem1Report(classifier=classifier.spec, space=params, entries=tuple(
            Theorem1Entry(label=label, c=float(c), budget=budget,
                          class_size=size, robust_count=kept[col],
                          fraction=Fraction(kept[col], size), bound=bound,
                          margin=margin[col], holds=ok[col])
            for col, (c, budget, bound) in enumerate(cases)
            for label, (size, kept, margin, ok) in mine))


def theorem1_holds(classifier: ClassifierHandle,
                   c_values: Sequence[float]) -> Theorem1Report:
    """:func:`theorem1_reports` of one classifier."""
    return next(theorem1_reports([classifier], c_values))
