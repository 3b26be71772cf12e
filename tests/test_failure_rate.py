"""``failure_rate``'s batch draws against the per-stream generator loop,
and its dense nearest-cell kernel against the pruned walk.

``failure_rate_oracle`` is the earlier ``failure_rate`` kept as the oracle:
one ``philox_rng(seed, index)`` generator per sample, rejection draws by
``Generator.integers(0, q, size=dim)`` and one ``find_perturbation`` per
member.  The batch path decodes raw Philox words instead
(``perturb._class_draws``) and must give every sample the same member,
cell point and outcome.  The batch path decides a chunk of draws at once
(``_CellWalk.hits``) from each draw's nearest different-class cell: the
dense kernel's on small spaces, and one walk per draw beyond
(``_CellWalk.walks``).  Per draw, the kernel's hits and nearest cell must
be those of the walk.
"""

import itertools
import math

import numpy as np
import pytest

from robustness_envelope import perturb as pt
from robustness_envelope import image_space, robustness, verify
from robustness_envelope.classifiers import (
    ClassifierHandle,
    parse_classifier_spec,
    sum_classifier,
)
from robustness_envelope.errors import ContractViolation, EmptyClass
from robustness_envelope.image_space import (
    ImageTensor,
    PerturbationBudget,
    SpaceParams,
    image_from_rank,
    philox_rng,
)
from test_cell_walk import walk_hits


def failure_rate_oracle(classifier, label, radius, samples, seed,
                        max_rejections=image_space.MAX_REJECTIONS):
    """Per sample ``(member, outcome)``; raises ``EmptyClass`` naming the
    first stream with no member in ``max_rejections`` draws."""
    params = classifier.params
    q, dim = params.level_count, params.dimension
    label_cache = {}
    out = []
    for index in range(samples):
        rng = philox_rng(seed, index)
        for _ in range(max_rejections):
            levels = rng.integers(0, q, size=dim).tolist()
            if classifier.decide(ImageTensor(params, levels)) == label:
                break
        else:
            raise EmptyClass(f"stream ({seed}, {index})")
        member = ImageTensor(params, levels)
        out.append((member, pt.find_perturbation(classifier, member, radius,
                                                 rng=rng,
                                                 label_cache=label_cache)))
    return out


def class_draws(walk, label, samples, seed):
    """``_class_draws`` as one ``(member, cell point)`` per sample."""
    return [(image_from_rank(walk.params, rank), point)
            for ranks, coords in pt._class_draws(walk, label, samples, seed)
            for rank, point in zip(ranks.tolist(), coords.tolist())]


def batch_outcomes(classifier, label, radius, samples, seed):
    walk = pt._CellWalk(classifier, classifier.labels())
    return [(member, walk.from_point(member, point, label, radius))
            for member, point in class_draws(walk, label, samples, seed)]


def reference_draws(classifier, label, samples, seed):
    """Per sample ``(member levels, cell point)`` from ``philox_rng``."""
    params = classifier.params
    out = []
    for index in range(samples):
        rng = philox_rng(seed, index)
        while True:
            member = image_space.sample_uniform(params, 0, rng=rng)
            if classifier.decide(member) == label:
                break
        out.append((member.levels,
                    list(pt.sample_point_in_cell(member, rng).coords)))
    return out


def unlabelled(params):
    """A two-label handle that fails any attempt to label an image."""
    def labelled(*_):
        raise AssertionError("labelled before the arguments were checked")

    return ClassifierHandle(params=params, label_count=2, decide=labelled,
                            kind="unlabelled", spec="unlabelled",
                            batch=labelled)


def rare_classifier(params, members):
    """Label 0 on the ranks ``members`` only, label 1 elsewhere."""
    labels = np.ones(params.total_images, dtype=np.uint8)
    labels[list(members)] = 0
    return ClassifierHandle(
        params=params, label_count=2, kind="rare", spec="rare",
        decide=lambda image: int(labels[image.space_rank()]),
        batch=lambda: labels.copy())


class TestDecoding:
    @pytest.mark.parametrize("b", range(1, 9))
    def test_one_coordinate_every_depth(self, b):
        # dim 1 is odd: every accepted attempt leaves a high half unread
        classifier = sum_classifier(SpaceParams(1, 1, b))
        walk = pt._CellWalk(classifier, classifier.labels())
        for label in (0, 1):
            got = [(member.levels, point) for member, point
                   in class_draws(walk, label, 200, 5 + b)]
            assert got == reference_draws(classifier, label, 200, 5 + b)

    @pytest.mark.parametrize("shape,spec", [
        ((3, 1, 1), "sum"), ((1, 3, 1), "sum"), ((3, 1, 1), "linthresh:0"),
        ((2, 1, 2), "balanced:4"), ((2, 1, 3), "sum"), ((1, 2, 4), "sum"),
        ((1, 1, 16), "sum"),
    ])
    def test_members_and_points(self, shape, spec):
        classifier = parse_classifier_spec(spec, SpaceParams(*shape))
        walk = pt._CellWalk(classifier, classifier.labels())
        for label in (0, 1):
            got = [(member.levels, point) for member, point
                   in class_draws(walk, label, 300, 21)]
            assert got == reference_draws(classifier, label, 300, 21)

    def test_chunks_and_windows(self, monkeypatch):
        # a small word budget gives a window of 7 attempts and one stream a
        # chunk, so the streams with no member in the window are replayed
        classifier = parse_classifier_spec("linthresh:0", SpaceParams(3, 1, 1))
        want = reference_draws(classifier, 0, 150, 8)
        monkeypatch.setattr(pt, "_DRAW_WORDS", 16)
        walk = pt._CellWalk(classifier, classifier.labels())
        got = [(member.levels, point) for member, point
               in class_draws(walk, 0, 150, 8)]
        assert got == want


class TestAgainstOracle:
    @pytest.mark.parametrize("shape,spec", [
        ((2, 1, 2), "sum"), ((3, 1, 1), "linthresh:1"), ((1, 3, 1), "sum"),
        ((2, 1, 3), "balanced:2"),
    ])
    def test_per_sample_outcomes(self, shape, spec):
        classifier = parse_classifier_spec(spec, SpaceParams(*shape))
        for radius in (0.25, 0.5, 1.0, 1.5):
            want = failure_rate_oracle(classifier, 0, radius, 150, 3)
            assert batch_outcomes(classifier, 0, radius, 150, 3) == want
            report = pt.failure_rate(classifier, 0, radius, 150, 3)
            assert report.failures == sum(not outcome.succeeded
                                          for _, outcome in want)

    def test_rare_class_needs_more_words(self):
        # 2 members of 256: about 128 draws a member, and the window of 513
        # attempts runs out on a few streams, which are replayed
        params = SpaceParams(2, 1, 2)
        classifier = rare_classifier(params, (37, 200))
        want = failure_rate_oracle(classifier, 0, 1.0, 160, 12)
        assert batch_outcomes(classifier, 0, 1.0, 160, 12) == want

    def test_rare_class_across_small_windows(self, monkeypatch):
        params = SpaceParams(2, 1, 2)
        classifier = rare_classifier(params, (3, 77, 150))
        want = failure_rate_oracle(classifier, 0, 0.5, 40, 2)
        monkeypatch.setattr(pt, "_DRAW_WORDS", 40)
        assert batch_outcomes(classifier, 0, 0.5, 40, 2) == want


class TestRejectionLimit:
    @pytest.mark.parametrize("chunk", [1 << 12, 3])
    def test_empty_class_at_the_oracle_stream(self, monkeypatch, chunk):
        # 8 members of 256 and 40 draws: about 28 % of streams find none;
        # at seed 1 stream 11 is the first, in the fourth chunk of 3.  A
        # stream takes 84 words: 40 attempts of 4 levels, then a point.
        params = SpaceParams(2, 1, 2)
        classifier = rare_classifier(params, range(0, 256, 32))
        with pytest.raises(EmptyClass, match=r"stream \(1, 11\)"):
            failure_rate_oracle(classifier, 0, 1.0, 50, 1, max_rejections=40)
        monkeypatch.setattr(pt, "MAX_REJECTIONS", 40)
        monkeypatch.setattr(image_space, "MAX_REJECTIONS", 40)
        monkeypatch.setattr(pt, "_DRAW_WORDS", 84 * chunk)
        with pytest.raises(EmptyClass,
                           match=r"after 40 draws of stream \(1, 11\)$"):
            pt.failure_rate(classifier, 0, 1.0, 50, 1)

    def test_earlier_samples_come_first(self, monkeypatch):
        # the chunk holding stream 11 yields its rows 0 .. 10, then raises
        # as sample_member does
        params = SpaceParams(2, 1, 2)
        classifier = rare_classifier(params, range(0, 256, 32))
        want = reference_draws(classifier, 0, 11, 1)
        monkeypatch.setattr(pt, "MAX_REJECTIONS", 40)
        monkeypatch.setattr(image_space, "MAX_REJECTIONS", 40)
        walk = pt._CellWalk(classifier, classifier.labels())
        draws = pt._class_draws(walk, 0, 50, 1)
        ranks, coords = next(draws)
        assert [(image_from_rank(params, rank).levels, point) for rank, point
                in zip(ranks.tolist(), coords.tolist())] == want
        with pytest.raises(EmptyClass, match=r"^no member of label 0 after "
                           r"40 draws of stream \(1, 11\)$"):
            next(draws)


class TestFailureRates:
    @pytest.mark.parametrize("shape,spec", verify.WALK_ORACLE_CASES)
    def test_equal_one_radius_at_a_time(self, shape, spec):
        classifier = parse_classifier_spec(spec, SpaceParams(*shape))
        for radii in ((0.25, 0.5, 1.0, math.inf),
                      (1.0, 0.25, math.inf, 0.5, 0.25)):
            got = pt.failure_rates(classifier, 0, radii, 300, 4)
            assert got == [pt.failure_rate(classifier, 0, radius, 300, 4)
                           for radius in radii]
            by_radius = {report.radius: report.failures for report in got}
            assert by_radius[0.25] > by_radius[1.0] >= by_radius[math.inf] == 0

    @pytest.mark.parametrize("label", [2, -1])
    def test_label_out_of_range_as_class_robust_fraction(self, label):
        classifier = unlabelled(SpaceParams(2, 1, 1))
        with pytest.raises(ValueError) as want:
            robustness.class_robust_fraction(classifier, label,
                                             PerturbationBudget(0, 1))
        with pytest.raises(ValueError) as got:
            pt.failure_rate(classifier, label, 1.0, 5, 1)
        assert str(got.value) == str(want.value) == (
            f"label must be in [0, 2), got {label}")

    @pytest.mark.parametrize("radii,samples,match", [
        ((), 5, "radii must not be empty"),
        ((1.0, -0.5), 5, "radius must be >= 0, got -0.5"),
        ((math.nan, 1.0), 5, "radius must be >= 0, got nan"),
        ((1.0,), 0, "samples must be >= 1, got 0"),
    ])
    def test_refused_before_any_labelling(self, radii, samples, match):
        with pytest.raises(ValueError, match=match):
            pt.failure_rates(unlabelled(SpaceParams(2, 1, 1)), 0, radii,
                             samples, 1)


@pytest.fixture(params=[0, 1 << 20], ids=["walk", "dense"])
def cutoff(request, monkeypatch):
    """``_DENSE_CELLS`` at 0, where ``failure_rates`` walks every space
    and the kernel holds one row per pass, and at 2^20, where every space
    here is decided densely: ``hits`` decides the draws from either."""
    monkeypatch.setattr(pt, "_DENSE_CELLS", request.param)
    return request.param


RADII = (0.25, 0.5, 1.0, math.inf)


def dense_cases():
    """``(classifier, label, member ranks, cell points, radii)``: the
    failure-rate draws of a few spaces plus the lower corner of each
    draw's cell, where equidistant cells tie, and the exact-radius point
    of ``test_successes_at_the_exact_radius``."""
    cases = [(parse_classifier_spec(spec, SpaceParams(*shape)), 0, 200, 4)
             for shape, spec in (*verify.WALK_ORACLE_CASES,
                                 ((2, 1, 3), "balanced:2"))]
    # 2 members of 256: some streams are replayed
    cases.append((rare_classifier(SpaceParams(2, 1, 2), (37, 200)),
                  0, 160, 12))
    for classifier, label, samples, seed in cases:
        walk = pt._CellWalk(classifier, classifier.labels())
        ranks, coords = map(np.concatenate, zip(*pt._class_draws(
            walk, label, samples, seed)))
        corners = np.array([image_from_rank(classifier.params, rank).levels
                            for rank in ranks.tolist()]
                           ) / classifier.params.level_count
        yield (classifier, label, np.concatenate([ranks, ranks]),
               np.concatenate([coords, corners]), RADII)
    params = SpaceParams(1, 1, 2)
    yield (sum_classifier(params), 1, np.array([2]), np.array([[0.625]]),
           (1.0, 0.125, math.nextafter(0.125, 0)))


def dense_mismatches(classifier, label, ranks, coords, radii):
    """Rows where the kernel's hits, nearest distance or nearest cell
    differ from the pruned walk's."""
    walk = pt._CellWalk(classifier, classifier.labels())
    masked = np.asarray(walk.labels) == label
    d2, cells = pt._nearest_cells(walk.bounds, coords, masked)
    hits = walk.hits(ranks, coords, d2, cells, label, radii).tolist()
    walked = walk_hits(walk, ranks, coords, label, radii).tolist()
    bad = []
    for row, point in enumerate(coords.tolist()):
        best_d2, best, _ = walk.walk(point, label, math.inf)
        cell = -1 if masked[cells[row]] else int(cells[row])
        if (hits[row] != walked[row]
                or (float(d2[row]), cell) != (best_d2, best)):
            bad.append(row)
    return bad


class TestDenseKernel:
    def test_hits_and_cells_equal_the_walk(self, cutoff):
        for classifier, label, ranks, coords, radii in dense_cases():
            assert dense_mismatches(classifier, label, ranks, coords,
                                    radii) == [], classifier.spec

    def test_exact_radius(self):
        classifier = sum_classifier(SpaceParams(1, 1, 2))
        walk = pt._CellWalk(classifier, classifier.labels())
        ranks, coords = np.array([2]), np.array([[0.625]])
        radii = (1.0, 0.125, math.nextafter(0.125, 0))
        nearest = pt._nearest_cells(walk.bounds, coords,
                                    np.asarray(walk.labels) == 1)
        assert walk.hits(ranks, coords, *nearest, 1, radii).tolist() == [
            [True, True, False]]

    def test_walks_answer_like_the_kernel(self):
        # the walk within r gives the kernel's (d2, cell) on rows whose
        # kernel d2 is within r, and (inf, the row's member) on the others
        outside = 0
        for shape, spec in verify.WALK_ORACLE_CASES:
            classifier = parse_classifier_spec(spec, SpaceParams(*shape))
            walk = pt._CellWalk(classifier, classifier.labels())
            ranks, coords = map(np.concatenate, zip(*pt._class_draws(
                walk, 0, verify.WALK_ORACLE_SAMPLES, 7)))
            d2, cells = pt._nearest_cells(walk.bounds, coords,
                                          np.asarray(walk.labels) == 0)
            for radius in RADII:
                within = d2 <= radius * radius
                outside += np.count_nonzero(~within)
                got_d2, got_cells = walk.walks(ranks, coords, 0, radius)
                assert got_d2.tolist() == np.where(within, d2,
                                                   math.inf).tolist()
                assert got_cells.tolist() == np.where(within, cells,
                                                      ranks).tolist()
        assert outside

    @pytest.mark.parametrize("fault", ["no-mask", "strict", "larger-rank"])
    def test_faults_are_caught(self, monkeypatch, fault):
        kernel = pt._nearest_cells

        def faulty(bounds, coords, masked):
            if fault == "no-mask":
                return kernel(bounds, coords, np.zeros_like(masked))
            if fault == "strict":  # d2 < r*r iff nextafter(d2, inf) <= r*r
                d2, cells = kernel(bounds, coords, masked)
                return np.nextafter(d2, math.inf), cells
            # every level reversed reverses the ranks, so the first
            # smallest sum is the last one of the unreversed order
            d2, cells = kernel(bounds[::-1], coords, masked[::-1])
            return d2, len(masked) - 1 - cells

        monkeypatch.setattr(pt, "_nearest_cells", faulty)
        assert any(dense_mismatches(*case) for case in dense_cases())
        if fault == "strict":
            with pytest.raises(AssertionError):
                self.test_exact_radius()

    def test_failure_rates_equal_the_walk(self, cutoff):
        # on the sum classifier, a fifth of the draws miss at 0.25
        for classifier, samples, seed in (
                (parse_classifier_spec("balanced:2", SpaceParams(2, 1, 3)),
                 200, 4),
                (rare_classifier(SpaceParams(2, 1, 2), (37, 200)), 160, 12),
                (sum_classifier(SpaceParams(2, 1, 2)), 200, 4)):
            walk = pt._CellWalk(classifier, classifier.labels())
            hits = [[walk.from_point(member, point, 0, radius).succeeded
                     for radius in RADII]
                    for member, point in class_draws(walk, 0, samples, seed)]
            reports = pt.failure_rates(classifier, 0, RADII, samples, seed)
            assert [report.failures for report in reports] == [
                sum(not row[at] for row in hits) for at in range(len(RADII))]

    def test_one_label_fails_every_draw_at_inf(self, cutoff):
        params = SpaceParams(2, 1, 2)
        constant = ClassifierHandle(
            params=params, label_count=1, decide=lambda image: 0,
            kind="constant", spec="constant",
            batch=lambda: np.zeros(params.total_images, dtype=np.uint8))
        [report] = pt.failure_rates(constant, 0, (math.inf,), 50, 3)
        assert report.failures == 50


class TestDenseContracts:
    def test_decide_disagreeing_with_batch(self, cutoff):
        params = SpaceParams(2, 1, 2)
        honest = sum_classifier(params)
        walk = pt._CellWalk(honest, honest.labels())
        ranks, coords = next(pt._class_draws(walk, 0, 20, 6))
        liar = walk.walk(coords[0].tolist(), 0, 1.0)[1]
        assert liar >= 0
        handle = ClassifierHandle(
            params=params, label_count=2, kind="liar", spec="liar",
            decide=lambda image: (0 if image.space_rank() == liar
                                  else honest.decide(image)),
            batch=honest.batch)
        pt.failure_rate(honest, 0, 1.0, 20, 6)
        with pytest.raises(ContractViolation, match="changed its label"):
            pt.failure_rate(handle, 0, 1.0, 20, 6)

    def test_projection_without_nextafter(self, cutoff, monkeypatch):
        # class-1 points of (1,1,2) lie above class-0 cell 1, whose upper
        # face 0.5 belongs to cell 2 unless the projection steps off it
        classifier = sum_classifier(SpaceParams(1, 1, 2))
        pt.failure_rate(classifier, 1, 1.0, 20, 1)
        monkeypatch.setattr(math, "nextafter", lambda x, toward: x)
        monkeypatch.setattr(np, "nextafter", lambda x, toward: x)
        with pytest.raises(ContractViolation,
                           match=r"projected point left cell \(1,\)"):
            pt.failure_rate(classifier, 1, 1.0, 20, 1)

    def test_moved_bound_at_the_smallest_hitting_radius(self, cutoff,
                                                        monkeypatch):
        # a bound of r - 1: broken at 0.25 for every draw that hits there,
        # kept at inf for the others
        classifier = sum_classifier(SpaceParams(2, 1, 2))
        monkeypatch.setattr(pt, "cell_diameter", lambda params: -0.5)
        pt.failure_rates(classifier, 0, (math.inf, math.inf), 100, 7)
        with pytest.raises(ContractViolation,
                           match=r"moved \S+ beyond radius 0.25$"):
            pt.failure_rates(classifier, 0, (math.inf, 0.25), 100, 7)
