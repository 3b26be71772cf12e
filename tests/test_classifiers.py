from fractions import Fraction

import numpy as np
import pytest

from robustness_envelope import classifiers as cl
from robustness_envelope.errors import (
    AnalyticUnavailable,
    ContractViolation,
    SpaceTooLarge,
)
from robustness_envelope.image_space import ImageTensor, SpaceParams, enumerate_space

P211 = SpaceParams(2, 1, 1)
P212 = SpaceParams(2, 1, 2)
P311 = SpaceParams(3, 1, 1)


class TestSumClassifier:
    def test_extremes(self):
        c = cl.sum_classifier(P211)
        assert c.decide(ImageTensor(P211, (0, 0, 0, 0))) == 0
        assert c.decide(ImageTensor(P211, (1, 1, 1, 1))) == 1

    def test_exact_tie_goes_to_one(self):
        # S = 2 = n^2 h / 2 exactly
        c = cl.sum_classifier(P211)
        assert c.decide(ImageTensor(P211, (1, 1, 0, 0))) == 1

    def test_threshold_on_levels(self):
        c = cl.sum_classifier(P212)
        # threshold: 2*sum(levels) vs 4*3 = 12
        assert c.decide(ImageTensor(P212, (3, 2, 0, 0))) == 0
        assert c.decide(ImageTensor(P212, (3, 3, 0, 0))) == 1

    @pytest.mark.parametrize("shape", [(2, 1, 1), (2, 1, 2), (3, 1, 1), (1, 1, 3)])
    def test_split_is_half_the_doubled_maximum(self, shape):
        # decide, batch and the attack read one split; the definition is
        # 2 * level_sum < dimension * max_level, even or odd
        params = SpaceParams(*shape)
        c = cl.sum_classifier(params)
        doubled_max = params.dimension * params.max_level
        want = [0 if 2 * img.level_sum() < doubled_max else 1
                for img in enumerate_space(params)]
        assert [c.decide(img) for img in enumerate_space(params)] == want
        assert c.labels().tolist() == want


class TestClassSizes:
    def test_small_binary_space(self):
        sizes = cl.class_sizes(cl.sum_classifier(P211))
        assert [(s.label, s.count) for s in sizes] == [(0, 5), (1, 11)]
        assert sizes[0].interesting and not sizes[1].interesting

    def test_analytic_matches_exhaustive(self):
        for params in (P211, P212, P311):
            c = cl.sum_classifier(params)
            exhaustive = cl.class_sizes(c, "exhaustive")
            analytic = cl.class_sizes(c, "analytic")
            assert [(s.label, s.count) for s in exhaustive] == \
                [(s.label, s.count) for s in analytic]

    def test_analytic_needs_sum(self):
        with pytest.raises(AnalyticUnavailable):
            cl.class_sizes(cl.random_classifier(P211, 2, "balanced", 1),
                           "analytic")

    def test_constant_like_partition(self):
        c = cl.random_classifier(P211, 2, "uniform", 3)
        sizes = cl.class_sizes(c)
        assert sum(s.count for s in sizes) == 16

    @pytest.mark.parametrize("bad", [2, -1])
    def test_label_out_of_range(self, bad):
        c = cl.ClassifierHandle(params=P211, label_count=2,
                                decide=lambda image: bad, kind="custom",
                                spec="custom")
        with pytest.raises(ContractViolation):
            cl.class_sizes(c)


class TestIsInteresting:
    def test_boundaries(self):
        assert cl.is_interesting(5, P211)      # 10 <= 16
        assert cl.is_interesting(8, P211)      # exactly half
        assert not cl.is_interesting(11, P211)
        assert not cl.is_interesting(0, P211)

    def test_at_most_one_uninteresting(self):
        # over the whole zoo: when no class is empty, at most one class
        # can exceed half the space
        from robustness_envelope.verify import classifier_zoo
        for params in (P211, P212):
            for classifier in classifier_zoo(params):
                sizes = cl.class_sizes(classifier)
                nonempty = [s for s in sizes if s.count]
                uninteresting = [s for s in nonempty if not s.interesting]
                assert len(uninteresting) <= 1


class TestRandomClassifiers:
    def test_balanced_sizes(self):
        sizes = cl.class_sizes(cl.random_classifier(P211, 2, "balanced", 9))
        assert sorted(s.count for s in sizes) == [8, 8]

    def test_seed_determinism(self):
        a = cl.random_classifier(P212, 2, "uniform", 123)
        b = cl.random_classifier(P212, 2, "uniform", 123)
        assert all(a.decide(img) == b.decide(img)
                   for img in enumerate_space(P212))

    def test_linear_threshold_total(self):
        c = cl.random_classifier(P211, 2, "linear_threshold", 5)
        labels = {c.decide(img) for img in enumerate_space(P211)}
        assert labels <= {0, 1}

    def test_materialized_kinds_need_enumerable_space(self):
        big = SpaceParams(8, 3, 8)
        with pytest.raises(SpaceTooLarge):
            cl.random_classifier(big, 2, "balanced", 1)
        # linear threshold works on any space
        c = cl.random_classifier(big, 2, "linear_threshold", 1)
        assert c.decide(ImageTensor(big, (0,) * big.dimension)) in (0, 1)


class TestSpecStrings:
    def test_round_trip_specs(self):
        for spec in ("sum", "balanced:7", "uniform:3:4", "linthresh:2"):
            c = cl.parse_classifier_spec(spec, P211)
            assert c.spec == spec

    @pytest.mark.parametrize("params", [P211, P212, P311])
    def test_every_built_handle_reparses(self, params):
        # a report prints the spec as the classifier, so the spec must
        # rebuild the same labels
        built = [cl.sum_classifier(params)] + [
            cl.random_classifier(params, labels, kind, seed)
            for kind, label_counts in (("uniform", (2, 3, 5)),
                                       ("balanced", (2,)),
                                       ("linear_threshold", (2,)))
            for labels in label_counts for seed in (0, 9)]
        for handle in built:
            again = cl.parse_classifier_spec(handle.spec, params)
            assert again.label_count == handle.label_count
            assert np.array_equal(again.labels(), handle.labels())

    @pytest.mark.parametrize("kind", ["balanced", "linear_threshold"])
    def test_two_label_kinds_refuse_other_counts(self, kind):
        with pytest.raises(ValueError, match="exactly 2 labels"):
            cl.random_classifier(P212, 3, kind, 9)

    def test_bad_specs_rejected(self):
        for spec in ("nope", "balanced", "uniform:1", "balanced:x"):
            with pytest.raises(ValueError):
                cl.parse_classifier_spec(spec, P211)


class TestLevelSumPmf:
    def test_matches_counts(self):
        pmf = cl.level_sum_pmf(P211)
        # binomial(4, 1/2) over level sums
        assert (pmf.offset, pmf.counts, pmf.denominator) == (0, (1, 4, 6, 4, 1), 16)
        split = cl.sum_class0_max_level_sum(P211)
        assert split == 1
        assert pmf.cdf_at(split) * P211.total_images == 5
