"""``failure_rate``'s batch draws against the per-stream generator loop.

``failure_rate_oracle`` is the earlier ``failure_rate`` kept as the oracle:
one ``philox_rng(seed, index)`` generator per sample, rejection draws by
``Generator.integers(0, q, size=dim)`` and one ``find_perturbation`` per
member.  The batch path decodes raw Philox words instead
(``perturb._class_draws``) and must give every sample the same member,
cell point and outcome.
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
from robustness_envelope.errors import EmptyClass
from robustness_envelope.image_space import (
    ImageTensor,
    PerturbationBudget,
    SpaceParams,
    philox_rng,
)


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


def batch_outcomes(classifier, label, radius, samples, seed):
    walk = pt._CellWalk(classifier, classifier.labels())
    return [(member, walk.from_point(member, point, label, radius))
            for member, point in pt._class_draws(walk, label, samples, seed)]


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
                   in pt._class_draws(walk, label, 200, 5 + b)]
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
                   in pt._class_draws(walk, label, 300, 21)]
            assert got == reference_draws(classifier, label, 300, 21)

    def test_chunks_and_windows(self, monkeypatch):
        # a small word budget gives a window of 7 attempts and one stream a
        # chunk, so the streams with no member in the window are replayed
        classifier = parse_classifier_spec("linthresh:0", SpaceParams(3, 1, 1))
        want = reference_draws(classifier, 0, 150, 8)
        monkeypatch.setattr(pt, "_DRAW_WORDS", 16)
        walk = pt._CellWalk(classifier, classifier.labels())
        got = [(member.levels, point) for member, point
               in pt._class_draws(walk, 0, 150, 8)]
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
        params = SpaceParams(2, 1, 2)
        classifier = rare_classifier(params, range(0, 256, 32))
        want = reference_draws(classifier, 0, 11, 1)
        monkeypatch.setattr(pt, "MAX_REJECTIONS", 40)
        monkeypatch.setattr(image_space, "MAX_REJECTIONS", 40)
        walk = pt._CellWalk(classifier, classifier.labels())
        draws = pt._class_draws(walk, 0, 50, 1)
        assert [(member.levels, point)
                for member, point in itertools.islice(draws, 11)] == want
        with pytest.raises(EmptyClass):
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
