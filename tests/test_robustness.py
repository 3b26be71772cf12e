import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from robustness_envelope import hamming as hm
from robustness_envelope import robustness as rb
from robustness_envelope import verify
from robustness_envelope.classifiers import (
    ClassifierHandle,
    parse_classifier_spec,
    random_classifier,
    sum_classifier,
)
from robustness_envelope.errors import (
    BallTooLarge,
    EmptyClass,
    PreconditionViolated,
    ShapeMismatch,
)
from robustness_envelope.image_space import (
    ImageTensor,
    PerturbationBudget,
    SpaceParams,
    enumerate_space,
)

P211 = SpaceParams(2, 1, 1)
P212 = SpaceParams(2, 1, 2)
P311 = SpaceParams(3, 1, 1)

SUM211 = sum_classifier(P211)
ZEROS211 = ImageTensor(P211, (0, 0, 0, 0))


# First 50 conditional draws per class from philox_rng(2024), one string of
# levels per member; pinned so the sampler's tables cannot drift.
SAMPLER_PINS = {
    ((2, 1, 2), 0): (
        "2012 1121 1030 0120 1103 0101 0210 0200 2030 3110 0113 2020 0302 "
        "2101 2011 1001 0012 3011 0221 0201 0310 1301 1010 0030 0113 0201 "
        "1003 1120 0131 2210 0221 0220 1220 2003 1101 1310 0112 3101 0030 "
        "1310 2110 1111 1013 2000 0101 1011 1120 1030 0211 0101"),
    ((2, 1, 2), 1): (
        "3310 3332 3130 0133 1333 2301 1302 3030 3111 0313 3231 2233 3220 "
        "1312 2203 2213 0332 1212 1320 2323 3102 3133 0222 2022 2033 1332 "
        "0123 1212 2211 0033 2302 3032 2013 1323 3031 2313 1213 3123 3223 "
        "1122 2213 3232 3213 3331 3013 3032 2122 0231 1133 2202"),
    ((3, 1, 1), 0): (
        "100001100 001101010 101001001 110000000 111001000 100100110 "
        "100101010 001001000 010001011 001010110 010000100 010001001 "
        "100100010 001010101 010001101 000010100 001001011 110110000 "
        "000001011 111010000 001100110 101100001 011000001 000100011 "
        "111000100 001100010 000101001 100001000 110000001 011010010 "
        "001001001 111010000 101001001 000001111 011000101 001010110 "
        "000101001 010000111 001010101 011010001 010100011 110000000 "
        "100110100 010101001 100001010 100010101 110011000 001010011 "
        "011011000 011001000"),
    ((3, 1, 1), 1): (
        "110100110 111101010 111101010 101110011 110111010 111100011 "
        "010101110 110111001 011001110 111010010 011001011 110101001 "
        "010011111 001111101 001110110 011011111 110111101 110101011 "
        "101111001 011011101 111010100 011110001 001110011 111101110 "
        "011110101 011111000 111100110 101101010 101011111 111010111 "
        "001101110 110011011 110001111 101101100 111010101 111011001 "
        "100101111 111100111 011010111 010010111 011110011 111101000 "
        "110101100 011010111 111111001 111111110 100101101 110111011 "
        "001111101 011011001"),
}


class TestImageIsRobust:
    def test_single_flip_safe(self):
        assert rb.image_is_robust(SUM211, ZEROS211, PerturbationBudget(0, 1))

    def test_two_flips_cross(self):
        assert not rb.image_is_robust(SUM211, ZEROS211, PerturbationBudget(0, 2))

    def test_zero_budget_trivial(self):
        for img in enumerate_space(P211):
            assert rb.image_is_robust(SUM211, img, PerturbationBudget(0, 0))
            assert rb.image_is_robust(SUM211, img, PerturbationBudget(1, 0))

    def test_analytic_agrees_with_scan(self):
        c212 = sum_classifier(P212)
        # the same rule under another kind takes the space scan
        scanned = dataclasses.replace(c212, kind="generic")
        for img in enumerate_space(P212):
            for p in (1, 2):
                for d in (Fraction(1, 3), Fraction(2, 3), Fraction(1), Fraction(2)):
                    budget = PerturbationBudget(p, d, size_pow=d ** max(p, 1))
                    fast = rb.image_is_robust(c212, img, budget)
                    slow = rb.image_is_robust(scanned, img, budget)
                    assert fast == slow

    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("classifier,image", [
        (sum_classifier(P212), ZEROS211),
        (parse_classifier_spec("balanced:3", P212), ZEROS211),
        (parse_classifier_spec("balanced:3", P211),
         ImageTensor(P212, (0, 0, 0, 0))),
    ], ids=["sum", "balanced-wider", "balanced-narrower"])
    def test_image_from_another_space_refused(self, classifier, image, p):
        # refused before any decide: the decide here would raise
        refusing = dataclasses.replace(classifier, decide=unlabelled)
        with pytest.raises(ShapeMismatch, match=re.escape(
                f"image in {image.params}, classifier on {classifier.params}")):
            rb.image_is_robust(refusing, image, PerturbationBudget(p, 1))

    def test_ball_cap(self, monkeypatch):
        monkeypatch.setattr(rb, "BALL_CAP", 5)
        with pytest.raises(BallTooLarge):
            rb.image_is_robust(SUM211, ZEROS211, PerturbationBudget(0, 3))
        # the size-1 ball holds 5 images, within the cap
        assert rb.image_is_robust(SUM211, ZEROS211, PerturbationBudget(0, 1))


class TestClassRobustFraction:
    def test_exact_fifth(self):
        report = rb.class_robust_fraction(SUM211, 0, PerturbationBudget(0, 1))
        assert report.fraction == Fraction(1, 5)
        assert report.method == "exhaustive" and report.ci95 is None

    def test_zero_budget_everything_robust(self):
        report = rb.class_robust_fraction(SUM211, 1, PerturbationBudget(0, 0))
        assert report.fraction == 1

    def test_monotone_in_budget(self):
        battery = [(SUM211, 0), (sum_classifier(P212), 0),
                   (random_classifier(P212, 2, "balanced", 6), 1)]
        for classifier, label in battery:
            for p in (0, 1, 2):
                fractions = []
                for d in (Fraction(0), Fraction(1, 2), Fraction(1),
                          Fraction(2), Fraction(3)):
                    budget = PerturbationBudget(p, d, size_pow=d ** max(p, 1))
                    fractions.append(rb.class_robust_fraction(
                        classifier, label, budget).fraction)
                assert all(a >= b for a, b in zip(fractions, fractions[1:]))

    def test_empty_class(self):
        from robustness_envelope.classifiers import ClassifierHandle
        constant = ClassifierHandle(params=P211, label_count=2,
                                    decide=lambda image: 0, kind="constant",
                                    spec="constant")
        with pytest.raises(EmptyClass):
            rb.class_robust_fraction(constant, 1, PerturbationBudget(0, 1))

    def test_monte_carlo_empty_class_beyond_the_bound(self, monkeypatch):
        # 2^21 images cannot be labelled, so the rejection limit decides
        from robustness_envelope import image_space
        from robustness_envelope.classifiers import ClassifierHandle
        big = SpaceParams(1, 1, 21)
        constant = ClassifierHandle(params=big, label_count=2,
                                    decide=lambda image: 0, kind="constant",
                                    spec="constant")
        monkeypatch.setattr(image_space, "MAX_REJECTIONS", 5)
        with pytest.raises(EmptyClass, match=r"^no member of label 1 after 5 "
                                             r"draws of stream \(3, 0\)$"):
            rb.class_robust_fraction(constant, 1, PerturbationBudget(0, 1),
                                     "monte_carlo", samples=2, seed=3)

    def test_monte_carlo_matches_exact(self):
        exact = rb.class_robust_fraction(SUM211, 0, PerturbationBudget(0, 1))
        mc = rb.class_robust_fraction(SUM211, 0, PerturbationBudget(0, 1),
                                      method="monte_carlo", samples=4000, seed=5)
        lo, hi = mc.ci95
        assert lo <= float(exact.fraction) <= hi
        assert mc.samples == 4000 and mc.seed == 5

    @pytest.mark.parametrize("method", ["monte_carlo", "exhaustive"])
    @pytest.mark.parametrize("label", [2, -1])
    def test_label_out_of_range(self, method, label):
        # refused before any draw: rejection sampling for label 2 would
        # otherwise spend MAX_REJECTIONS draws finding no member
        def no_decide(image):
            raise AssertionError("decide called")

        from robustness_envelope.classifiers import ClassifierHandle
        refusing = ClassifierHandle(params=P211, label_count=2,
                                    decide=no_decide, kind="refusing",
                                    spec="refusing")
        with pytest.raises(ValueError, match=f"got {label}"):
            rb.class_robust_fraction(refusing, label, PerturbationBudget(0, 1),
                                     method=method, samples=3, seed=1)

    def test_monte_carlo_deterministic(self):
        a = rb.class_robust_fraction(SUM211, 0, PerturbationBudget(0, 1),
                                     method="monte_carlo", samples=500, seed=9)
        b = rb.class_robust_fraction(SUM211, 0, PerturbationBudget(0, 1),
                                     method="monte_carlo", samples=500, seed=9)
        assert a == b

    def test_wilson_coverage_over_seeds(self):
        # Exhaustive truth on (3,1,1); seeded Monte Carlo intervals should
        # cover it in the vast majority of 100 fixed runs.
        c = sum_classifier(P311)
        exact = float(rb.class_robust_fraction(
            c, 0, PerturbationBudget(0, 1)).fraction)
        covered = 0
        for seed in range(100):
            mc = rb.class_robust_fraction(c, 0, PerturbationBudget(0, 1),
                                          method="monte_carlo", samples=400,
                                          seed=seed)
            lo, hi = mc.ci95
            if lo <= exact <= hi:
                covered += 1
        assert covered >= 93


class TestConditionalSampler:
    def test_members_and_coverage(self):
        from robustness_envelope.image_space import philox_rng
        rng = philox_rng(17)
        seen = set()
        for _ in range(2000):
            member = rb.sample_sum_class_member(P211, 0, rng)
            assert SUM211.decide(member) == 0
            seen.add(member.levels)
        assert len(seen) == 5  # every class member appears

    @pytest.mark.parametrize("shape,label", sorted(SAMPLER_PINS))
    def test_draws_pinned(self, shape, label):
        from robustness_envelope.image_space import philox_rng
        rng = philox_rng(2024)
        draws = [rb.sample_sum_class_member(SpaceParams(*shape), label, rng)
                 for _ in range(50)]
        assert " ".join("".join(map(str, m.levels)) for m in draws) == (
            SAMPLER_PINS[shape, label])


class TestSumExactFractionL1:
    def test_zero_budget(self):
        assert rb.sum_exact_fraction_L1(SpaceParams(16, 1, 1), 0) == 1

    def test_negative_budget_vacuous(self):
        assert rb.sum_exact_fraction_L1(SpaceParams(16, 1, 1), -1.2) == 1

    def test_tail_ratio_form(self):
        from robustness_envelope import exactmath as em
        params = SpaceParams(16, 1, 1)
        # c = 0.2: budget 16c - 2 = 1.2 shifts the cutoff by one level
        value = rb.sum_exact_fraction_L1(params, Fraction(6, 5))
        u = em.tail_table(256, Fraction(1, 2))
        assert value == u.cdf_at(126) / u.cdf_at(127)
        assert value == Fraction(u.prefix[126], u.prefix[127])
        assert value > Fraction(1, 5)

    def test_agrees_with_exhaustive(self):
        for params in (P211, P311):
            c = sum_classifier(params)
            for d in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)):
                exhaustive = rb.class_robust_fraction(
                    c, 0, PerturbationBudget(1, d)).fraction
                assert rb.sum_exact_fraction_L1(params, d) == exhaustive


class TestBitDepthEight:
    """b = 8, the bit depth of the bound table: 16 coordinates of 256 levels."""

    params = SpaceParams(4, 1, 8)

    def test_level_sum_pmf(self):
        from robustness_envelope.classifiers import class_sizes, level_sum_pmf
        pmf = level_sum_pmf(self.params)
        counts = pmf.counts
        assert len(counts) == 16 * 255 + 1
        assert counts == counts[::-1]
        assert sum(counts) == pmf.denominator == 2 ** 128
        sizes = class_sizes(sum_classifier(self.params), "analytic")
        assert sizes[0].count == (2 ** 128 - counts[2040]) // 2
        assert sizes[0].count + sizes[1].count == 2 ** 128

    def test_sum_exact_fraction_nonincreasing(self):
        values = [rb.sum_exact_fraction_L1(self.params, Fraction(k, 4))
                  for k in range(5)]
        assert values[0] == 1
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] < values[0]


class TestReductions:
    def test_l1_to_l0_sum(self):
        assert rb.first_reduction_violation(SUM211, (1, 2, 3), ()) is None

    def test_l1_to_l0_balanced(self):
        c = random_classifier(P212, 2, "balanced", 4)
        assert rb.first_reduction_violation(c, (1, 2), ()) is None

    def test_zero_budget_vacuous(self):
        assert rb.first_reduction_violation(SUM211, (0,), (2, 3)) is None

    def test_l0_to_lp(self):
        assert rb.first_reduction_violation(sum_classifier(P212), (2,), (2,)) is None
        assert rb.first_reduction_violation(
            random_classifier(P211, 2, "balanced", 8), (1,), (3,)) is None

    def test_b1_degenerate_divisor(self):
        # (2^b - 1) = 1: both directions collapse to the same budget
        assert rb.first_reduction_violation(SUM211, (1,), (2,)) is None

    def test_norm_below_two_refused(self):
        with pytest.raises(ValueError, match="p must be >= 2"):
            rb.first_reduction_violation(SUM211, (1,), (2, 1))

    def test_each_image_decided_once(self):
        # one engine pass for the whole (d, p) grid: one decide per image
        classifier, calls = counting(random_classifier(P212, 2, "balanced", 4))
        assert rb.first_reduction_violation(classifier, (1, 2, 3), (2, 3)) is None
        assert calls[0] == P212.total_images


class TestTheorem1:
    def test_sum_classifier_holds(self):
        report = rb.theorem1_holds(SUM211, [0.5, 0.75, 1.0])
        assert report.all_hold
        assert all(e.margin > 0 for e in report.entries)
        # only class 0 is interesting here
        assert {e.label for e in report.entries} == {0}

    def test_trivial_bound_case(self):
        report = rb.theorem1_holds(SUM211, [0.4])
        assert report.all_hold and report.entries[0].bound > 1

    def test_budgets_floor_exactly(self):
        report = rb.theorem1_holds(SUM211, [0.5, 0.75, 1.0])
        assert [e.budget for e in report.entries] == [3, 3, 4]

    @pytest.mark.parametrize("c", [0, -1])
    def test_c_must_be_positive(self, c):
        with pytest.raises(ValueError, match="c must be positive"):
            rb.theorem1_holds(SUM211, [0.5, c])

    @pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
    def test_non_finite_c_refused_before_labelling(self, c):
        # neither labels source may be read: both raise
        handle = dataclasses.replace(SUM211, decide=unlabelled,
                                     batch=unlabelled)
        with pytest.raises(ValueError,
                           match=f"c must be positive and finite, got {c}"):
            rb.theorem1_holds(handle, [0.5, c])
        with pytest.raises(ValueError,
                           match=f"c must be positive and finite, got {c}"):
            hm.check_hamgraph_theorem(hm.HammingSubset.from_members(
                hm.GraphParams(4, 2), [0]), c)

    def test_balanced_batch(self):
        for seed in range(25):
            c = random_classifier(P211, 2, "balanced", seed)
            assert rb.theorem1_holds(c, [0.5, 0.75, 1.0]).all_hold

    def test_empty_c_grid_refused(self):
        # no c, no entry: all_hold would pass vacuously
        with pytest.raises(ValueError, match="c_values must not be empty"):
            rb.theorem1_holds(SUM211, [])


def unlabelled(*args):
    raise AssertionError("an image was labelled")


def constant_classifier(params):
    """Every image in class 0 of 2: no class is interesting."""
    labels = np.zeros(params.total_images, dtype=np.uint8)
    return ClassifierHandle(params=params, label_count=2,
                            decide=lambda image: 0, kind="constant",
                            spec="constant", batch=lambda: labels)


def recorded_chunks(monkeypatch):
    """The row count of every chunk ``hamming.expansion_sizes`` expands."""
    chunk_rows = []
    real = hm.expansion_sizes

    def expansion_sizes(graph, chunks, steps):
        for rows, sizes in real(graph, chunks, steps):
            chunk_rows.append(len(rows))
            yield rows, sizes

    monkeypatch.setattr(hm, "expansion_sizes", expansion_sizes)
    return chunk_rows


class TestTheorem1Batch:
    GRID = (0.25, 0.5, 0.75, 1.0)

    @pytest.mark.parametrize("params", [P211, P212],
                             ids=lambda p: f"{p.n}x{p.h}x{p.b}")
    def test_batch_equals_single_reports_and_interiors(self, params):
        battery = oracle_battery(params) + [constant_classifier(params)]
        battery += [random_classifier(params, 3, "uniform", seed)
                    for seed in range(6)]
        reports = list(rb.theorem1_reports(battery, self.GRID))
        assert reports == [rb.theorem1_holds(c, self.GRID) for c in battery]
        graph = hm.GraphParams(params.dimension, params.level_count)
        for classifier, report in zip(battery, reports):
            assert report.classifier == classifier.spec
            assert report.space == params
            labels = classifier.labels()
            counts = np.bincount(labels, minlength=classifier.label_count)
            interesting = [label for label, count in enumerate(counts)
                           if 1 <= count <= params.total_images // 2]
            assert [(e.c, e.label) for e in report.entries] == [
                (c, label) for c in self.GRID for label in interesting]
            for entry in report.entries:
                members = hm.HammingSubset(graph, class_bits(classifier,
                                                             entry.label))
                assert entry.class_size == members.size
                assert entry.robust_count == hm.interior_k(
                    members, entry.budget).size
        assert reports[-7].entries == ()  # the constant classifier
        assert any(e.label == 2 for r in reports[-6:] for e in r.entries)

    def test_batch_spans_two_chunks(self, monkeypatch):
        # 1100 balanced classifiers on 16 images: 2200 complement rows
        battery = [random_classifier(P211, 2, "balanced", seed)
                   for seed in range(1100)]
        chunk_rows = recorded_chunks(monkeypatch)
        reports = list(rb.theorem1_reports(battery, verify._C_GRID))
        assert chunk_rows[:2] == [hm.CHUNK, 2200 - hm.CHUNK]
        monkeypatch.undo()
        assert len(reports) == 1100
        for classifier, report in zip(battery[::37], reports[::37]):
            assert report == rb.theorem1_holds(classifier, verify._C_GRID)
        # across the chunk boundary, against the cost-layered engine
        for classifier, report in zip(battery[1020:1030], reports[1020:1030]):
            for entry in report.entries:
                budget = PerturbationBudget(0, entry.budget)
                assert entry.robust_count == rb.class_robust_fraction(
                    classifier, entry.label, budget).robust_count

    def test_wide_rows_pack_fewer_to_a_chunk(self, monkeypatch):
        # PACKED_BITS of 5 rows of 256 images: 50 rows go in 10 chunks
        battery = [random_classifier(P212, 2, "balanced", seed)
                   for seed in range(25)]
        want = list(rb.theorem1_reports(battery, verify._C_GRID))
        chunk_rows = recorded_chunks(monkeypatch)
        monkeypatch.setattr(hm, "PACKED_BITS", 5 * 256 + 255)
        assert list(rb.theorem1_reports(battery, verify._C_GRID)) == want
        assert chunk_rows == [5] * 10

    def test_mixed_spaces_refused(self):
        batch = [SUM211, sum_classifier(P212), SUM211]
        with pytest.raises(ValueError, match="one space"):
            next(rb.theorem1_reports(batch, [0.5]))

    def test_empty_batch_yields_nothing(self):
        assert list(rb.theorem1_reports([], [0.5])) == []


ORACLE_SHAPES = ((2, 1, 1), (2, 1, 2), (3, 1, 1), (1, 5, 2), (1, 11, 1),
                 (1, 2, 3), (1, 1, 4), (1, 3, 2))
ORACLE_SIZES = tuple(Fraction(v) for v in ("0", "1/3", "1/2", "2/3", "1", "3/2",
                                           "2", "3"))


def oracle_battery(params):
    return [sum_classifier(params),
            random_classifier(params, 2, "balanced", 3),
            random_classifier(params, 3, "uniform", 5),
            random_classifier(params, 2, "linear_threshold", 0)]


def counting(classifier):
    """The classifier with a ``decide`` that counts its calls."""
    calls = [0]

    def decide(image):
        calls[0] += 1
        return classifier.decide(image)

    return dataclasses.replace(classifier, decide=decide), calls


def class_bits(classifier, label):
    labels = rb.labels_for(classifier)
    return sum(1 << int(rank) for rank in np.flatnonzero(labels == label))


class TestEngineAgainstOracles:
    @pytest.mark.parametrize("shape", ORACLE_SHAPES,
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_equals_dense_matrix(self, shape):
        params = SpaceParams(*shape)
        battery = oracle_battery(params)
        try:
            for p in range(5):
                budgets = [PerturbationBudget(p, d) for d in ORACLE_SIZES]
                if p >= 3:
                    budgets += [PerturbationBudget(p, float(d), size_pow=d * d)
                                for d in ORACLE_SIZES]
                for classifier in battery:
                    for budget in budgets:
                        assert np.array_equal(
                            rb.robust_flags(classifier, budget),
                            rb.robust_flags_by_matrix(classifier, budget)), (
                            classifier.spec, budget)
                rb._diff_pow_matrix.cache_clear()  # 32 MiB per p at 2048
        finally:
            rb._diff_pow_matrix.cache_clear()

    @pytest.mark.parametrize("shape", ORACLE_SHAPES,
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_theorem1_counts_equal_interiors(self, shape):
        # theorem1_holds reads the cost-layered engine; interior_k expands
        # each class's complement one step at a time
        params = SpaceParams(*shape)
        graph = hm.GraphParams(params.dimension, params.level_count)
        checked = set()
        for classifier in oracle_battery(params):
            report = rb.theorem1_holds(classifier, verify._C_GRID)
            classes = {label: hm.HammingSubset(graph, class_bits(classifier, label))
                       for label in {e.label for e in report.entries}}
            for entry in report.entries:
                members = classes[entry.label]
                assert entry.class_size == members.size
                assert entry.robust_count == hm.interior_k(members,
                                                           entry.budget).size
                checked.add((classifier.label_count, entry.label))
        assert (3, 2) in checked  # the 3-label uniform classifier took part

    def test_beyond_matrix_cap_matches_per_image(self):
        # 4096 images: the ball enumeration (p = 0) and the greedy sum
        # attack (p = 1, 2) of image_is_robust, image by image
        params = SpaceParams(2, 1, 3)
        assert params.total_images > rb.MATRIX_CAP
        graph = hm.GraphParams(params.dimension, params.level_count)
        cases = [(sum_classifier(params), [(0, 1), (0, 2), (1, Fraction(1, 3)),
                                           (1, 1), (2, Fraction(1, 3)), (2, 1)]),
                 (random_classifier(params, 2, "balanced", 3), [(0, 1)])]
        for classifier, budgets in cases:
            images = list(enumerate_space(params))
            for p, size in budgets:
                budget = PerturbationBudget(p, size)
                labels = rb.labels_for(classifier)
                flags = rb.robust_flags(classifier, budget)
                for label in (0, 1):
                    report = rb.class_robust_fraction(classifier, label, budget)
                    members = np.flatnonzero(labels == label)
                    robust = sum(rb.image_is_robust(classifier, images[r], budget)
                                 for r in members)
                    assert report.total == len(members)
                    assert report.robust_count == robust == flags[members].sum()
                    if p == 0:
                        interior = hm.interior_k(
                            hm.HammingSubset(graph, class_bits(classifier, label)),
                            size)
                        assert interior.bits == sum(
                            1 << int(r) for r in members if flags[r])

    def test_large_p_exact(self):
        # int64 matrices overflowed here for p >= 6
        classifier = sum_classifier(SpaceParams(1, 1, 11))
        for p in range(2, 9):
            report = rb.class_robust_fraction(
                classifier, 0, PerturbationBudget(p, Fraction(1, 2)))
            assert report.fraction == Fraction(1, 1024)

    def test_matrix_oracle_refuses_overflow(self):
        classifier = sum_classifier(SpaceParams(1, 1, 11))
        with pytest.raises(PreconditionViolated):
            rb.robust_flags_by_matrix(classifier,
                                      PerturbationBudget(6, Fraction(1, 2)))

    def test_one_decide_per_image(self):
        params = SpaceParams(2, 1, 2)
        for classifier in (sum_classifier(params),
                           random_classifier(params, 2, "balanced", 6)):
            counted, calls = counting(classifier)
            rb.class_robust_fraction(counted, 0, PerturbationBudget(1, 1))
            assert calls[0] == 256
            # theorem 1 reads the handle's batch labels; without a batch,
            # one decide per image
            calls[0] = 0
            rb.theorem1_holds(counted, [0.5, 0.75, 1.0])
            assert calls[0] == 0
            rb.theorem1_holds(dataclasses.replace(counted, batch=None),
                              [0.5, 0.75, 1.0])
            assert calls[0] == 256

    def test_wide_level_grid(self):
        # 65536 levels in one coordinate: class 0 is levels 0..32767 and
        # only level 0 is farther than half the range from class 1
        classifier = sum_classifier(SpaceParams(1, 1, 16))
        report = rb.class_robust_fraction(classifier, 0,
                                          PerturbationBudget(2, Fraction(1, 2)))
        assert report.fraction == Fraction(1, 32768)


class TestReportSerialization:
    def test_csv_row_shape(self):
        report = rb.class_robust_fraction(SUM211, 0, PerturbationBudget(0, 1))
        row = report.csv_row()
        assert len(row) == len(rb.CSV_HEADER)
        d = report.to_dict()
        assert d["n"] == 2 and d["p"] == 0 and d["method"] == "exhaustive"
