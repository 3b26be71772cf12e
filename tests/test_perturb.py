import dataclasses
import math
import re
from fractions import Fraction
from itertools import product

import pytest

from robustness_envelope import perturb as pt
from robustness_envelope import robustness as rb
from robustness_envelope.classifiers import (
    ClassifierHandle,
    parse_classifier_spec,
    random_classifier,
    sum_classifier,
)
from robustness_envelope.errors import (
    ContractViolation,
    EmptyClass,
    NoOtherClass,
    ShapeMismatch,
)
from robustness_envelope.image_space import (
    ImageTensor,
    PerturbationBudget,
    SpaceParams,
    enumerate_space,
    norm_distance,
    norm_pth_power,
    philox_rng,
    sample_uniform,
)

P111 = SpaceParams(1, 1, 1)
P211 = SpaceParams(2, 1, 1)
P212 = SpaceParams(2, 1, 2)


def constant_classifier(params):
    return ClassifierHandle(params=params, label_count=2,
                            decide=lambda image: 0, kind="constant",
                            spec="constant")


class TestFindPerturbation:
    def test_two_cell_space(self):
        c = sum_classifier(P111)
        out = pt.find_perturbation(c, ImageTensor(P111, (0,)), 0.6, seed=1)
        assert out.succeeded
        assert out.result.levels == (1,)
        assert out.l2_moved == 1.0
        assert out.l2_moved <= 0.6 + 2 * 1 * 1 / 2  # length guarantee

    def test_constant_classifier_always_fails(self):
        c = constant_classifier(P211)
        for radius in (0.5, 1.0, 2.0):
            out = pt.find_perturbation(c, ImageTensor(P211, (0, 0, 0, 0)),
                                       radius, seed=2)
            assert not out.succeeded

    def test_radius_beyond_diameter_always_succeeds(self):
        c = sum_classifier(P212)
        diameter = math.sqrt(P212.dimension)
        for rank in (0, 17, 200, 255):
            from robustness_envelope.image_space import image_from_rank
            img = image_from_rank(P212, rank)
            out = pt.find_perturbation(c, img, diameter, seed=rank)
            assert out.succeeded

    def test_deterministic_given_seed(self):
        c = sum_classifier(P212)
        img = ImageTensor(P212, (1, 0, 2, 0))
        a = pt.find_perturbation(c, img, 1.5, seed=11)
        b = pt.find_perturbation(c, img, 1.5, seed=11)
        assert a == b

    def test_success_labels_differ(self):
        c = sum_classifier(P212)
        for seed in range(20):
            img = ImageTensor(P212, (1, 1, 1, 1))
            out = pt.find_perturbation(c, img, 1.0, seed=seed)
            if out.succeeded:
                assert c.decide(out.result) != c.decide(img)

    def test_drifting_classifier_violates_contract(self):
        # decide follows the first level until the whole space has been
        # labelled once, then flips every label: the walk finds cell (1,)
        # in the other class by the label vector, and the re-check with
        # decide sees that cell take the input's label
        calls = [0]

        def decide(image):
            calls[0] += 1
            first = image.levels[0]
            return first if calls[0] <= P111.total_images else 1 - first

        drifting = ClassifierHandle(params=P111, label_count=2, decide=decide,
                                    kind="drifting", spec="drifting")
        with pytest.raises(ContractViolation, match=r"cell \(1,\) changed"):
            pt.find_perturbation(drifting, ImageTensor(P111, (0,)), 0.6, seed=1)
        assert calls[0] == P111.total_images + 1

    @pytest.mark.parametrize("spec", ["sum", "linthresh:0"])
    def test_dimension_16_equals_oracle(self, spec):
        # (4,1,1) holds 65,536 cells; the walk recurses 16 deep.  Seed 3's
        # first 20 class-0 draws fail at some radii and succeed at others.
        big = SpaceParams(4, 1, 1)
        c = parse_classifier_spec(spec, big)
        members, points = [], []
        for index in range(20):
            rng = philox_rng(3, index)
            member = sample_uniform(big, 0, rng=rng)
            while c.decide(member) != 0:
                member = sample_uniform(big, 0, rng=rng)
            members.append(member)
            points.append(pt.sample_point_in_cell(member, rng))
        nearest = pt.nearest_cell_exhaustive(c, points, 0)
        label_cache = {}
        for radius in (0.05, 0.1, 0.2):
            for member, point, (d2, cell) in zip(members, points, nearest):
                out = pt.find_perturbation(c, member, radius,
                                           rng=_Replay(point.coords),
                                           label_cache=label_cache)
                assert out.succeeded == (d2 <= radius * radius)
                if out.succeeded:
                    assert out.result.levels == cell
            report = pt.failure_rate(c, 0, radius, 20, 3)
            assert report.failures == sum(d2 > radius * radius
                                          for d2, _ in nearest)

    def test_completeness_against_full_scan(self):
        c = random_classifier(P212, 2, "balanced", 21)
        label_cache = {}
        for index in range(40):
            rng = philox_rng(100, index)
            img = sample_uniform(P212, 0, rng=rng)
            point = pt.sample_point_in_cell(img, philox_rng(200, index))
            base = c.decide(img)
            [(oracle_d2, oracle_cell)] = pt.nearest_cell_exhaustive(
                c, [point], base)
            for radius in (0.3, 0.8, 1.4):
                replay = _Replay(point.coords)
                out = pt.find_perturbation(c, img, radius, rng=replay,
                                           label_cache=label_cache)
                assert out.succeeded == (oracle_d2 <= radius * radius)
                if out.succeeded and oracle_d2 == 0.0:
                    # oracle tie-break must match the walk's choice
                    assert out.result.levels == oracle_cell


class _Replay:
    def __init__(self, coords):
        self._coords = list(coords)
        self._at = 0

    def uniform(self, lo, hi):
        v = self._coords[self._at]
        self._at += 1
        return v


def nearest_cell_scan(classifier, point, base_label):
    """The per-point full scan, kept as a test oracle for the batched
    nearest-cell oracle: one ``decide`` per cell and point, distances by
    the walk's float expressions, lexicographic tie-break."""
    params = classifier.params
    best_d2 = math.inf
    best_levels = None
    for levels in product(range(params.level_count), repeat=params.dimension):
        if classifier.decide(ImageTensor(params, levels)) == base_label:
            continue
        d2 = 0.0
        for x, level in zip(point.coords, levels):
            lo, hi, _ = pt.cell_bounds(params, level)
            if x < lo:
                d2 += (lo - x) * (lo - x)
            elif x > hi:
                d2 += (x - hi) * (x - hi)
        if d2 < best_d2 or (d2 == best_d2 and levels < best_levels):
            best_d2 = d2
            best_levels = levels
    return best_d2, best_levels


ORACLE_CASES = [((2, 1, 2), "sum", 40), ((2, 1, 2), "balanced:21", 40),
                ((2, 1, 2), "linthresh:3", 40), ((3, 1, 1), "linthresh:5", 40),
                ((3, 1, 1), "uniform:9:3", 40), ((2, 1, 3), "balanced:4", 6)]


def oracle_points(params, count, seed):
    """Seeded points inside cells, then points whose coordinates all sit on
    cell edges or the cube's top face."""
    points = [pt.sample_point_in_cell(sample_uniform(params, seed, index),
                                      philox_rng(seed + 1, index))
              for index in range(count)]
    edges = (0.25, 0.5, 1.0)
    for index in range(count):
        coords = [edges[(index + 2 * i) % 3] for i in range(params.dimension)]
        points.append(pt.ContinuousPoint(tuple(coords)))
    return points


class TestNearestCellOracle:
    @pytest.mark.parametrize("shape, spec, count", ORACLE_CASES)
    def test_batched_equals_scan(self, shape, spec, count):
        params = SpaceParams(*shape)
        c = parse_classifier_spec(spec, params)
        points = oracle_points(params, count, 300)
        for base in range(c.label_count):
            got = pt.nearest_cell_exhaustive(c, points, base)
            assert got == [nearest_cell_scan(c, point, base)
                           for point in points]

    def test_chunks_join_in_point_order(self, monkeypatch):
        c = sum_classifier(P212)
        points = oracle_points(P212, 20, 5)
        whole = pt.nearest_cell_exhaustive(c, points, 1)
        monkeypatch.setattr(pt, "_DENSE_CELLS", 3 * 256)
        assert pt.nearest_cell_exhaustive(c, points, 1) == whole
        assert pt.nearest_cell_exhaustive(c, [], 1) == []

    def test_constant_classifier(self):
        c = constant_classifier(P212)
        points = oracle_points(P212, 5, 9)
        assert pt.nearest_cell_exhaustive(c, points, 0) == \
            [(math.inf, None)] * len(points)
        # every cell differs from label 1: the point's own cell, at 0
        got = pt.nearest_cell_exhaustive(c, points, 1)
        assert got == [nearest_cell_scan(c, point, 1) for point in points]
        assert all(d2 == 0.0 for d2, _ in got)


class TestFailureRate:
    def test_zero_failures_at_diameter(self):
        c = sum_classifier(P212)
        report = pt.failure_rate(c, 0, 2.0, samples=200, seed=5)
        assert report.failures == 0
        assert report.ci95[0] == 0.0

    def test_empty_class_guard(self):
        with pytest.raises(EmptyClass):
            pt.failure_rate(constant_classifier(P211), 1, 1.0, samples=10,
                            seed=1)

    def test_order_independent_streams(self):
        c = sum_classifier(P212)
        a = pt.failure_rate(c, 0, 0.4, samples=300, seed=8)
        b = pt.failure_rate(c, 0, 0.4, samples=300, seed=8)
        assert a == b


class TestMinimalPerturbation:
    def test_all_zeros_count_norm(self):
        c = sum_classifier(P211)
        result = pt.minimal_perturbation(c, ImageTensor(P211, (0, 0, 0, 0)), 0)
        assert result.exact == 2
        assert c.decide(result.witness) == 1

    def test_one_hot_l1(self):
        c = sum_classifier(P211)
        result = pt.minimal_perturbation(c, ImageTensor(P211, (1, 0, 0, 0)), 1)
        assert result.exact == 1

    def test_witness_distance_consistent(self):
        c = sum_classifier(P212)
        for rank in (0, 5, 100, 255):
            from robustness_envelope.image_space import image_from_rank
            img = image_from_rank(P212, rank)
            for p in (0, 1, 2):
                result = pt.minimal_perturbation(c, img, p)
                if p == 0:
                    assert norm_distance(img, result.witness, 0) == result.exact
                elif p == 1:
                    assert norm_distance(img, result.witness, 1) == result.exact
                else:
                    assert norm_pth_power(img, result.witness, 2) == result.exact

    def test_no_other_class(self):
        with pytest.raises(NoOtherClass):
            pt.minimal_perturbation(constant_classifier(P211),
                                    ImageTensor(P211, (0, 0, 0, 0)), 0)

    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("classifier,image", [
        (sum_classifier(P212), ImageTensor(P211, (0, 0, 0, 0))),
        (parse_classifier_spec("balanced:3", P211),
         ImageTensor(P212, (0, 0, 0, 0))),
    ], ids=["sum-wider", "balanced-narrower"])
    def test_image_from_another_space_refused(self, classifier, image, p):
        def unlabelled(image):
            raise AssertionError("an image was labelled")

        refusing = dataclasses.replace(classifier, decide=unlabelled)
        with pytest.raises(ShapeMismatch, match=re.escape(
                f"image in {image.params}, classifier on {classifier.params}")):
            pt.minimal_perturbation(refusing, image, p)


class TestAttackSumClassifier:
    def test_all_zeros(self):
        assert pt.attack_sum_classifier(ImageTensor(P211, (0, 0, 0, 0)), 0).exact == 2
        assert pt.attack_sum_classifier(ImageTensor(P211, (0, 0, 0, 0)), 1).exact == 2

    def test_threshold_image_one_step(self):
        # class-1 image right at the threshold: one level down flips it
        img = ImageTensor(P212, (3, 3, 0, 0))
        result = pt.attack_sum_classifier(img, 1)
        assert result.exact == Fraction(1, 3)

    def test_agrees_with_oracle_exhaustively(self):
        for params in (P211, P212, SpaceParams(3, 1, 1)):
            c = sum_classifier(params)
            for img in enumerate_space(params):
                for p in (0, 1, 2):
                    greedy = pt.attack_sum_classifier(img, p)
                    oracle = pt.minimal_perturbation(c, img, p)
                    assert greedy.exact == oracle.exact, (params, img, p)
                    assert c.decide(greedy.witness) != c.decide(img)


class TestOracleEquivalence:
    def test_minimal_iff_not_robust(self):
        # minimal distance <= d exactly when the image is not robust at d
        for params, classifier in ((P211, sum_classifier(P211)),
                                   (P211, random_classifier(P211, 2, "balanced", 31)),
                                   (P212, sum_classifier(P212))):
            for img in enumerate_space(params):
                for p in (0, 1, 2):
                    minimal = pt.minimal_perturbation(classifier, img, p)
                    for d in (Fraction(0), Fraction(1, 2), Fraction(1),
                              Fraction(3, 2), Fraction(2)):
                        budget = PerturbationBudget(
                            p, d, size_pow=d ** max(p, 1))
                        robust = rb.image_is_robust(classifier, img, budget)
                        if p == 0:
                            crossed = minimal.exact <= d
                        elif p == 1:
                            crossed = minimal.exact <= d
                        else:
                            crossed = minimal.exact <= d ** 2
                        assert robust == (not crossed)
