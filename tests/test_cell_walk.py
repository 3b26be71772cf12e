"""The rank-indexed cell walk against the recursive walk it replaced, and
the batch label vectors against ``decide``.

``oracle_find_perturbation`` is the earlier walk kept as the oracle: it
recurses over level tuples, labels each cell by one ``decide`` on a fresh
``ImageTensor`` and keeps the labels in a dict keyed by level tuple.
"""

import math

import numpy as np
import pytest

from robustness_envelope import perturb as pt
from robustness_envelope.classifiers import (
    ClassifierHandle,
    linear_threshold_classifier,
    parse_classifier_spec,
    random_classifier,
    sum_classifier,
)
from robustness_envelope.errors import (
    ContractViolation,
    EmptyClass,
    ShapeMismatch,
)
from robustness_envelope.image_space import (
    ImageTensor,
    SpaceParams,
    enumerate_space,
    flatten,
    image_from_rank,
    norm_distance,
    philox_rng,
    sample_uniform,
)
from test_image_space import cell_of_point


def _oracle_candidates(params, x):
    q = params.level_count
    entries = []
    for level in range(q):
        lo, hi, _ = pt.cell_bounds(params, level)
        if x < lo:
            d = lo - x
        elif x > hi:
            d = x - hi
        else:
            d = 0.0
        entries.append((d * d, level))
    entries.sort()
    return entries


def oracle_find_perturbation(classifier, image, radius, rng):
    params = image.params
    dim = params.dimension
    label_cache = {}
    p1 = pt.sample_point_in_cell(image, rng)
    base_label = classifier.decide(image)
    r2 = float(radius) * float(radius)
    candidates = [_oracle_candidates(params, x) for x in p1.coords]

    best_d2 = math.inf
    best_levels = None
    cells_examined = 0
    prefix = [0] * dim

    def visit(depth, partial):
        nonlocal best_d2, best_levels, cells_examined
        limit = min(r2, best_d2)
        if depth == dim:
            cells_examined += 1
            levels = tuple(prefix)
            got = label_cache.get(levels)
            if got is None:
                got = classifier.decide(ImageTensor(params, levels))
                label_cache[levels] = got
            if got != base_label:
                if partial < best_d2 or (partial == best_d2
                                         and levels < best_levels):
                    best_d2 = partial
                    best_levels = levels
            return
        for d2, level in candidates[depth]:
            total = partial + d2
            if total > limit:
                break
            prefix[depth] = level
            visit(depth + 1, total)
            limit = min(r2, best_d2)

    visit(0, 0.0)
    if best_levels is None:
        return pt.PerturbationOutcome(None, 0.0, cells_examined)
    p2 = []
    for x, level in zip(p1.coords, best_levels):
        lo, hi, closed_top = pt.cell_bounds(params, level)
        v = min(max(x, lo), hi)
        if v == hi and not closed_top:
            v = math.nextafter(hi, lo)
        p2.append(v)
    result = ImageTensor(params, best_levels)
    if classifier.decide(result) == base_label:
        raise ContractViolation("label changed")
    if cell_of_point(params, p2).levels != best_levels:
        raise ContractViolation("projection left the cell")
    return pt.PerturbationOutcome(
        result, float(norm_distance(image, result, 2)), cells_examined)


class _Replay:
    """Feeds fixed coordinates to ``sample_point_in_cell``."""

    def __init__(self, coords):
        self._coords = list(coords)
        self._at = 0

    def uniform(self, lo, hi):
        v = self._coords[self._at]
        self._at += 1
        return v


SHAPES = [(2, 1, 2), (3, 1, 2), (2, 1, 4), (1, 11, 1)]
SPECS = ["sum", "linthresh:3", "balanced:5", "uniform:9:3"]


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_walk_equals_oracle(shape, spec):
    params = SpaceParams(*shape)
    classifier = parse_classifier_spec(spec, params)
    q = params.level_count
    cache = {}
    for index in range(6):
        image = sample_uniform(params, 0, rng=philox_rng(41, index))
        # Radius 0 and inf on a seeded point of the cell.
        for radius in (0.0, math.inf):
            want = oracle_find_perturbation(classifier, image, radius,
                                            philox_rng(43, index))
            got = pt.find_perturbation(classifier, image, radius,
                                       rng=philox_rng(43, index),
                                       label_cache=cache)
            assert got == want, (image.levels, radius)
        # A point on the cell's lower corner: every cell distance is a
        # dyadic sum, so radii k/q land exactly on cell boundaries, and
        # radius 0 already reaches the neighbours below.
        corner = [level / q for level in image.levels]
        for radius in (0.0, 1 / q, 2 / q, 0.5):
            want = oracle_find_perturbation(classifier, image, radius,
                                            _Replay(corner))
            got = pt.find_perturbation(classifier, image, radius,
                                       rng=_Replay(corner), label_cache=cache)
            assert got == want, (image.levels, radius)
    assert list(cache) == [classifier]


def _decide_all(classifier):
    return np.array([classifier.decide(image)
                     for image in enumerate_space(classifier.params)])


@pytest.mark.parametrize("kind", ["uniform", "balanced", "linear_threshold"])
@pytest.mark.parametrize("shape", [(2, 1, 1), (2, 1, 2), (3, 1, 1), (1, 5, 2)],
                         ids=lambda s: "x".join(map(str, s)))
def test_batch_labels_equal_decide(shape, kind):
    params = SpaceParams(*shape)
    for seed in range(4):
        classifier = random_classifier(params, 2, kind, seed)
        labels = classifier.labels()
        assert labels.dtype == np.uint8
        assert labels.tolist() == _decide_all(classifier).tolist()


def test_sum_batch_labels_equal_decide():
    for shape in [(1, 1, 1), (2, 1, 1), (2, 1, 2), (3, 1, 1), (1, 5, 2),
                  (2, 1, 3)]:
        classifier = sum_classifier(SpaceParams(*shape))
        assert classifier.labels().tolist() == _decide_all(classifier).tolist()


@pytest.mark.parametrize("spec", ["sum", "linthresh:0"])
def test_batch_labels_equal_decide_2x1x5(spec):
    params = SpaceParams(2, 1, 5)  # 2^20 images
    classifier = parse_classifier_spec(spec, params)
    assert classifier.labels().tolist() == _decide_all(classifier).tolist()


def test_many_labels_widen_the_dtype():
    params = SpaceParams(2, 1, 2)
    classifier = random_classifier(params, 300, "uniform", 3)
    labels = classifier.labels()
    assert labels.dtype == np.uint16
    assert labels.tolist() == _decide_all(classifier).tolist()


def test_linear_threshold_guard_redecides_exact_ties():
    # Weights 0.1..0.4 and threshold 0.4: many level tuples score exactly
    # 0.4 in real numbers, and the outer sums round two of them to the
    # other side of the threshold from the dot product.
    params = SpaceParams(2, 1, 2)
    weights = np.array([0.1, 0.2, 0.3, 0.4])
    threshold = float(weights @ flatten(ImageTensor(params, (0, 0, 0, 3))))
    classifier = linear_threshold_classifier(params, weights, threshold, "tie")
    values = np.arange(4) / 3
    scores = (weights[0] * values[:, None, None, None]
              + weights[1] * values[None, :, None, None]
              + weights[2] * values[None, None, :, None]
              + weights[3] * values[None, None, None, :]).ravel()
    unguarded = (scores >= threshold).astype(int)
    reference = _decide_all(classifier)
    assert (unguarded != reference).any()  # the guard has work to do
    assert classifier.labels().tolist() == reference.tolist()


def test_bare_decide_falls_back_to_one_decide_per_rank():
    params = SpaceParams(2, 1, 1)
    seen = []

    def decide(image):
        seen.append(image.levels)
        return image.levels[0]

    handle = ClassifierHandle(
        params=params, label_count=2, decide=decide, kind="first", spec="first")
    assert handle.labels().tolist() == [0] * 8 + [1] * 8
    assert seen == [image_from_rank(params, r).levels for r in range(16)]


def test_label_out_of_range_is_a_contract_violation():
    params = SpaceParams(1, 1, 1)
    handle = ClassifierHandle(
        params=params, label_count=2, decide=lambda image: 2, kind="bad",
        spec="bad")
    with pytest.raises(ContractViolation):
        handle.labels()


class TestFailureRate:
    def test_equals_oracle_loop(self):
        params = SpaceParams(2, 1, 2)
        for spec in ("sum", "linthresh:3", "balanced:5"):
            classifier = parse_classifier_spec(spec, params)
            for radius in (0.2, 0.6):
                failures = 0
                for index in range(40):
                    rng = philox_rng(17, index)
                    while True:
                        member = sample_uniform(params, 0, rng=rng)
                        if classifier.decide(member) == 0:
                            break
                    out = oracle_find_perturbation(classifier, member, radius,
                                                   rng)
                    failures += not out.succeeded
                report = pt.failure_rate(classifier, 0, radius, 40, 17)
                assert report.failures == failures

    def test_empty_class_from_label_vector(self):
        # 2^16 images: no member of label 1 is found without drawing
        params = SpaceParams(2, 1, 4)
        constant = ClassifierHandle(
            params=params, label_count=2, decide=lambda image: 0,
            kind="constant", spec="constant",
            batch=lambda: np.zeros(params.total_images, dtype=np.uint8))
        with pytest.raises(EmptyClass, match="no members"):
            pt.failure_rate(constant, 1, 1.0, samples=3, seed=1)


def test_image_from_another_space_rejected():
    classifier = sum_classifier(SpaceParams(2, 1, 2))
    with pytest.raises(ShapeMismatch):
        pt.find_perturbation(classifier, ImageTensor(SpaceParams(2, 1, 1),
                                                     (0, 0, 0, 0)), 1.0, seed=1)


@pytest.mark.parametrize("radius", [-0.3, -1.0, math.nan, -math.inf])
def test_bad_radius_rejected(radius):
    params = SpaceParams(2, 1, 2)
    classifier = sum_classifier(params)
    with pytest.raises(ValueError, match="radius"):
        pt.find_perturbation(classifier, ImageTensor(params, (0, 0, 0, 0)),
                             radius, seed=1)
    with pytest.raises(ValueError, match="radius"):
        pt.failure_rate(classifier, 0, radius, samples=5, seed=1)


def test_projection_outside_its_cell_is_a_contract_violation(monkeypatch):
    # level 2 of (1,1,2) is class 1; its point lies above class-0 cell 1,
    # whose upper face 0.5 belongs to cell 2 unless the projection steps
    # off it
    params = SpaceParams(1, 1, 2)
    classifier = sum_classifier(params)
    image = ImageTensor(params, (2,))
    outcome = pt.find_perturbation(classifier, image, 1.0, seed=1)
    assert outcome.result.levels == (1,)
    monkeypatch.setattr(math, "nextafter", lambda x, toward: x)
    with pytest.raises(ContractViolation,
                       match=r"projected point left cell \(1,\)"):
        pt.find_perturbation(classifier, image, 1.0, seed=1)


def walk_hits(walk, ranks, coords, label, radii):
    """``_CellWalk.hits`` of rows of member ``ranks`` and cell points
    ``coords``, fed by one walk per row at the largest radius."""
    return walk.hits(ranks, coords, *walk.walks(ranks, coords, label,
                                                max(radii)), label, radii)


def test_moved_bound_checked_at_the_smallest_successful_radius():
    params = SpaceParams(2, 1, 2)
    classifier = sum_classifier(params)
    walk = pt._CellWalk(classifier, classifier.labels())
    ranks, points = next(pt._class_draws(walk, 0, 100, 7))
    d2, cells = walk.walks(ranks, points, 0, 0.25)
    row = int(np.argmax(d2 < math.inf))
    assert walk_hits(walk, ranks[row:row + 1], points[row:row + 1], 0,
                     (0.25,)).tolist() == [[True]]
    # a member two levels from the witness cell in every coordinate moves
    # 4/3, and two cell diameters are 1.0 here: 4/3 is within radius 1.0,
    # not 0.25
    assert 2 * pt.cell_diameter(params) == 1.0
    far = np.array([ImageTensor(params, tuple(
        level + 2 if level < 2 else level - 2 for level in
        image_from_rank(params, int(cells[row])).levels)).space_rank()])
    coords = points[row:row + 1]
    assert walk_hits(walk, far, coords, 0, (1.0, 1.0)).tolist() == [
        [True, True]]
    with pytest.raises(ContractViolation,
                       match=r"moved 1\.3333333333333333 beyond radius 0\.25$"):
        walk_hits(walk, far, coords, 0, (1.0, 0.25))


def test_successes_at_the_exact_radius():
    # the point 0.625 of cell 2 of (1,1,2) lies 0.125 above class-0 cell 1
    params = SpaceParams(1, 1, 2)
    classifier = sum_classifier(params)
    walk = pt._CellWalk(classifier, classifier.labels())
    image = ImageTensor(params, (2,))
    label = walk.labels[image.space_rank()]
    radii = (1.0, 0.125, math.nextafter(0.125, 0))
    assert walk_hits(walk, np.array([image.space_rank()]), np.array([[0.625]]),
                     label, radii).tolist() == [[True, True, False]]
    assert [walk.from_point(image, (0.625,), label, radius).succeeded
            for radius in radii] == [True, True, False]
