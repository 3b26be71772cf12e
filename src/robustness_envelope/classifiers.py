"""Classifier handles and the battery of classifiers used to exercise the
universal bounds.

The sum-threshold classifier is the construction whose class 0 realizes
the robustness lower bound; the seeded random kinds (uniform, balanced,
linear-threshold) form the zoo against which the universal upper bound is
checked at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from . import exactmath
from .errors import AnalyticUnavailable, ContractViolation
from .image_space import (
    ImageTensor,
    SpaceParams,
    check_enumerable,
    enumerate_space,
    flatten,
    image_from_rank,
)


@dataclass(frozen=True)
class ClassifierHandle:
    """A total deterministic labeling of one image space.

    ``decide`` must be reentrant and must map every image of the space to
    a label id in ``[0, label_count)``; it is the reference.  ``batch``,
    when given, returns the label of every image in rank order at once and
    must agree with ``decide`` everywhere.  ``spec`` is the parseable
    string form used by reports and the command line.
    """

    params: SpaceParams
    label_count: int
    decide: Callable[[ImageTensor], int]
    kind: str
    spec: str
    batch: Optional[Callable[[], np.ndarray]] = None

    def labels(self) -> np.ndarray:
        """The label of every image, indexed by rank, in the smallest
        unsigned dtype that holds ``label_count - 1``.

        Uses ``batch`` when the handle has one, else :func:`labels_for`; a
        space beyond the enumeration bound raises :class:`SpaceTooLarge`
        (:func:`check_enumerable`) before any label is computed.
        """
        check_enumerable(self.params)
        labels = labels_for(self) if self.batch is None else self.batch()
        if labels.size and not (0 <= labels.min()
                                and labels.max() < self.label_count):
            raise ContractViolation(
                f"labels outside [0, {self.label_count})")
        return labels.astype(label_dtype(self.label_count), copy=False)


@dataclass(frozen=True)
class ClassSummary:
    """Size record of one induced class."""

    label: int
    count: int
    interesting: bool


def labels_for(classifier: ClassifierHandle) -> np.ndarray:
    """Label of every image, indexed by rank, from one ``decide`` per
    image."""
    params = classifier.params
    check_enumerable(params)  # before the array is allocated
    return np.fromiter((classifier.decide(img) for img in enumerate_space(params)),
                       dtype=np.int64, count=params.total_images)


def label_dtype(label_count: int) -> np.dtype:
    """Smallest unsigned dtype holding every label id."""
    return np.min_scalar_type(max(label_count - 1, 0))


def _outer_sums(rows: np.ndarray) -> np.ndarray:
    """``out[rank] = rows[0, l_0] + ... + rows[d-1, l_{d-1}]`` over every
    level tuple, ranks in lexicographic order, summed left to right."""
    out = rows[0]
    for row in rows[1:]:
        out = np.add.outer(out, row).ravel()
    return out


def is_interesting(count: int, params: SpaceParams) -> bool:
    """Nonempty and at most half of the space."""
    return count >= 1 and 2 * count <= params.total_images


def sum_classifier(params: SpaceParams) -> ClassifierHandle:
    """Label 0 iff the channel-value sum is below half the maximum, decided
    on the level sum against :func:`sum_class0_max_level_sum`."""
    split = sum_class0_max_level_sum(params)

    def decide(image: ImageTensor) -> int:
        return 0 if image.level_sum() <= split else 1

    def batch() -> np.ndarray:
        levels = np.arange(params.level_count, dtype=np.int32)
        sums = _outer_sums(np.tile(levels, (params.dimension, 1)))
        return (sums > split).astype(np.uint8)

    return ClassifierHandle(params=params, label_count=2, decide=decide,
                            kind="sum", spec="sum", batch=batch)


def level_sum_pmf(params: SpaceParams) -> exactmath.DiscretePMF:
    """Exact distribution of the level sum of a uniform image."""
    return exactmath.pmf_iid_sum(
        exactmath.pmf_uniform_levels(params.level_count), params.dimension)


def sum_class0_max_level_sum(params: SpaceParams) -> int:
    """Largest level sum still labeled 0 by the sum classifier.

    The comparison ``sum(values) < n^2 h / 2`` is carried out on integer
    levels (``2 * sum(levels) < dimension * max_level``), so an exact tie
    lands on label 1 with no floating-point ambiguity.
    """
    return (params.dimension * params.max_level - 1) // 2


def class_sizes(classifier: ClassifierHandle,
                mode: str = "exhaustive") -> List[ClassSummary]:
    """Exact class counts, from the label vector or (sum only) analytically.

    The analytic path counts class 0 through the exact level-sum PMF and
    is available only for the sum classifier.
    """
    params = classifier.params
    if mode == "exhaustive":
        counts = np.bincount(classifier.labels(),
                             minlength=classifier.label_count).tolist()
    elif mode == "analytic":
        if classifier.kind != "sum":
            raise AnalyticUnavailable(
                f"analytic counting needs the sum classifier, got {classifier.kind!r}")
        pmf = level_sum_pmf(params)
        zero_fraction = pmf.cdf_at(sum_class0_max_level_sum(params))
        zero_count = zero_fraction * params.total_images
        if zero_count.denominator != 1:
            raise ContractViolation(f"class-0 count {zero_count} is not whole")
        counts = [int(zero_count), params.total_images - int(zero_count)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return [ClassSummary(label, count, is_interesting(count, params))
            for label, count in enumerate(counts)]


def _materialized(params: SpaceParams, labels: np.ndarray, label_count: int,
                  kind: str, spec: str) -> ClassifierHandle:
    labels = labels.astype(label_dtype(label_count))
    labels.flags.writeable = False

    def decide(image: ImageTensor) -> int:
        return int(labels[image.space_rank()])

    return ClassifierHandle(params=params, label_count=label_count,
                            decide=decide, kind=kind, spec=spec,
                            batch=lambda: labels)


def linear_threshold_classifier(params: SpaceParams, weights: np.ndarray,
                                threshold: float,
                                spec: str) -> ClassifierHandle:
    """Label 1 iff ``weights @ flatten(image) >= threshold``.

    The batch form sums the per-coordinate products ``w_i x_i`` in another
    order than the dot product, so a score may round differently.  Both
    sums stay within ``dim * eps * sum|w|`` of the exact score (every
    ``x_i`` is in [0, 1]); a batch score within twice that, ``4 dim eps
    sum|w|``, of the threshold is re-decided by ``decide``.
    """
    weights = np.array(weights, dtype=np.float64)
    threshold = float(threshold)
    if weights.shape != (params.dimension,):
        raise ValueError(f"expected {params.dimension} weights, got {weights.shape}")

    def decide(image: ImageTensor) -> int:
        return 1 if float(weights @ flatten(image)) >= threshold else 0

    def batch() -> np.ndarray:
        values = np.arange(params.level_count, dtype=np.float64) / params.max_level
        scores = _outer_sums(weights[:, None] * values[None, :])
        labels = (scores >= threshold).astype(np.uint8)
        guard = (4 * params.dimension * np.finfo(np.float64).eps
                 * float(np.abs(weights).sum()))
        for rank in np.flatnonzero(np.abs(scores - threshold) <= guard).tolist():
            labels[rank] = decide(image_from_rank(params, rank))
        return labels

    return ClassifierHandle(params=params, label_count=2, decide=decide,
                            kind="linear_threshold", spec=spec, batch=batch)


def random_classifier(params: SpaceParams, label_count: int, kind: str,
                      seed: int) -> ClassifierHandle:
    """Seeded random classifier of one of three kinds.

    ``uniform`` labels every image independently; ``balanced`` splits the
    space into two classes whose sizes differ by at most one; both require
    an enumerable space.  ``linear_threshold`` draws Gaussian weights and
    a threshold over flattened values and works on any space.
    """
    if label_count < 2:
        raise ValueError(f"label_count must be >= 2, got {label_count}")
    if kind in ("balanced", "linear_threshold") and label_count != 2:
        raise ValueError(f"{kind} supports exactly 2 labels")
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        check_enumerable(params)
        labels = rng.integers(0, label_count, size=params.total_images)
        return _materialized(params, labels, label_count, kind,
                             f"uniform:{seed}:{label_count}")
    if kind == "balanced":
        check_enumerable(params)
        total = params.total_images
        labels = np.empty(total, dtype=np.int64)
        labels[rng.permutation(total)] = np.arange(total) % label_count
        return _materialized(params, labels, label_count, kind,
                             f"balanced:{seed}")
    if kind == "linear_threshold":
        weights = rng.standard_normal(params.dimension)
        threshold = float(weights @ rng.random(params.dimension))
        return linear_threshold_classifier(params, weights, threshold,
                                           f"linthresh:{seed}")
    raise ValueError(f"unknown kind {kind!r}")


def parse_classifier_spec(spec: str, params: SpaceParams) -> ClassifierHandle:
    """Build a classifier from its string form.

    Accepted forms: ``sum``, ``balanced:<seed>``, ``uniform:<seed>:<labels>``,
    ``linthresh:<seed>``.
    """
    parts = spec.split(":")
    try:
        if parts == ["sum"]:
            return sum_classifier(params)
        if parts[0] == "balanced" and len(parts) == 2:
            return random_classifier(params, 2, "balanced", int(parts[1]))
        if parts[0] == "uniform" and len(parts) == 3:
            return random_classifier(params, int(parts[2]), "uniform",
                                     int(parts[1]))
        if parts[0] == "linthresh" and len(parts) == 2:
            return random_classifier(params, 2, "linear_threshold",
                                     int(parts[1]))
    except ValueError as e:
        raise ValueError(f"bad classifier spec {spec!r}: {e}") from e
    raise ValueError(f"unknown classifier spec {spec!r}")
