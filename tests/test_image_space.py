import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustness_envelope import image_space as isp
from robustness_envelope import perturb
from robustness_envelope import robustness as rb
from robustness_envelope.classifiers import random_classifier, sum_classifier
from robustness_envelope.errors import (
    LevelOutOfRange,
    MalformedInput,
    ShapeMismatch,
    SpaceTooLarge,
)

P211 = isp.SpaceParams(2, 1, 1)
P212 = isp.SpaceParams(2, 1, 2)


def img(params, *levels):
    return isp.ImageTensor(params, tuple(levels))


def cell_of_point(params, point):
    """The image whose cell of the unit-cube decomposition contains ``point``.

    Cells are the half-open boxes ``[x 2^-b, (x+1) 2^-b)`` per coordinate,
    with the final cell ``[1 - 2^-b, 1]`` closed, so membership is
    unambiguous on boundaries.
    """
    coords = list(point)
    if len(coords) != params.dimension:
        raise ShapeMismatch(
            f"expected {params.dimension} coordinates, got {len(coords)}")
    q = params.level_count
    levels = []
    for i, v in enumerate(coords):
        if not (0.0 <= v <= 1.0) or math.isnan(v):
            raise ValueError(f"coordinate {v} at index {i} outside [0, 1]")
        levels.append(min(int(math.floor(v * q)), q - 1))
    return isp.ImageTensor(params, tuple(levels))


class TestSpaceParams:
    def test_dimension_and_totals(self):
        assert P211.dimension == 4
        assert P211.total_images == 16
        assert P212.total_images == 256
        assert isp.SpaceParams(1, 2, 2).total_images == 16

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            isp.SpaceParams(0, 1, 1)


class TestImageTensor:
    def test_level_validation(self):
        with pytest.raises(LevelOutOfRange):
            img(P211, 0, 0, 0, 2)
        # a non-integer level is refused, not truncated
        p212 = isp.SpaceParams(2, 1, 2)
        with pytest.raises(LevelOutOfRange, match="1.9 at index 0"):
            isp.ImageTensor(p212, (1.9, 2.7, 0.5, 3.99))
        with pytest.raises(LevelOutOfRange, match="at index 2 is not"):
            isp.ImageTensor(p212, (1, 2, 3.0, 0))
        with pytest.raises(LevelOutOfRange, match="Fraction.* index 1 "):
            isp.ImageTensor(p212, (0, Fraction(2), 1, 1))
        levels = isp.ImageTensor(p212, np.array([3, 0, 1, 2])).levels
        assert levels == (3, 0, 1, 2) and type(levels[0]) is int
        with pytest.raises(ShapeMismatch):
            img(P211, 0, 0, 0)

    def test_rank_round_trip(self):
        for rank in range(16):
            assert isp.image_from_rank(P211, rank).space_rank() == rank


class TestValueOfLevel:
    def test_endpoints(self):
        assert isp.value_of_level(0, 3) == 0
        assert isp.value_of_level(7, 3) == 1
        assert isp.value_of_level(1, 1) == 1

    def test_out_of_range(self):
        with pytest.raises(LevelOutOfRange):
            isp.value_of_level(8, 3)


class TestNorms:
    def test_identical_images(self):
        a = img(P211, 0, 1, 0, 1)
        for p in (0, 1, 2, 3):
            assert isp.norm_distance(a, a, p) == 0

    def test_single_flip_binary(self):
        a = img(P211, 0, 0, 0, 0)
        b = img(P211, 0, 0, 0, 1)
        assert isp.norm_distance(a, b, 0) == 1
        assert isp.norm_distance(a, b, 1) == 1
        assert isp.norm_distance(a, b, 2) == 1.0

    def test_all_flipped_l1(self):
        a = img(P211, 0, 0, 0, 0)
        b = img(P211, 1, 1, 1, 1)
        assert isp.norm_distance(a, b, 1) == 4

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            isp.norm_distance(img(P211, 0, 0, 0, 0), img(P212, 0, 0, 0, 0), 1)

    def test_quantization_lower_bound(self):
        # ||a-b||_p^p >= ||a-b||_0 / (2^b-1)^p, exhaustively on (2,1,2)
        images = list(isp.enumerate_space(P212))
        for a in images[:32]:
            for b in images[::17]:
                for p in (1, 2):
                    power = isp.norm_pth_power(a, b, p)
                    count = isp.norm_distance(a, b, 0)
                    assert power >= Fraction(count, P212.max_level ** p)
                    assert power <= count  # each |delta| <= 1

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=80, deadline=None)
    def test_triangle_inequality(self, ra, rb, rc):
        a = isp.image_from_rank(P212, ra)
        b = isp.image_from_rank(P212, rb)
        c = isp.image_from_rank(P212, rc)
        for p in (1, 2):
            ab = float(isp.norm_distance(a, b, p))
            bc = float(isp.norm_distance(b, c, p))
            ac = float(isp.norm_distance(a, c, p))
            assert ac <= ab + bc + 1e-12
        assert (isp.norm_distance(a, c, 0)
                <= isp.norm_distance(a, b, 0) + isp.norm_distance(b, c, 0))

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=60, deadline=None)
    def test_l1_below_count(self, ra, rb):
        a = isp.image_from_rank(P212, ra)
        b = isp.image_from_rank(P212, rb)
        assert isp.norm_distance(a, b, 1) <= isp.norm_distance(a, b, 0)


class TestEnumeration:
    def test_counts(self):
        assert len(list(isp.enumerate_space(isp.SpaceParams(1, 1, 1)))) == 2
        assert len(list(isp.enumerate_space(P211))) == 16
        assert len(list(isp.enumerate_space(P212))) == 256

    def test_unique_and_ordered(self):
        seen = [im.space_rank() for im in isp.enumerate_space(P211)]
        assert seen == list(range(16))

    def test_cap(self):
        # enumeration takes no bound of its own; the dense oracle refuses
        # a space beyond MATRIX_CAP
        params = isp.SpaceParams(2, 1, 3)
        with pytest.raises(SpaceTooLarge) as raised:
            rb.robust_flags_by_matrix(sum_classifier(params),
                                      isp.PerturbationBudget(0, 1))
        assert str(raised.value) == "space holds 4096 images, cap is 2048"


# A space one bit beyond the enumeration bound: every full scan refuses it
# through check_enumerable before it labels, draws or allocates anything.
BEYOND = isp.SpaceParams(1, 1, 21)
BEYOND_MESSAGE = "space holds 2097152 images, cap is 1048576"
BEYOND_ZERO = isp.ImageTensor(BEYOND, (0,))
BEYOND_ENTRY_POINTS = {
    "labels": lambda: sum_classifier(BEYOND).labels(),
    "random-uniform": lambda: random_classifier(BEYOND, 2, "uniform", 0),
    "random-balanced": lambda: random_classifier(BEYOND, 2, "balanced", 0),
    "find_perturbation": lambda: perturb.find_perturbation(
        sum_classifier(BEYOND), BEYOND_ZERO, 1.0, seed=0),
    "failure_rate": lambda: perturb.failure_rate(
        sum_classifier(BEYOND), 0, 1.0, 10, 0),
    "nearest_cell_exhaustive": lambda: perturb.nearest_cell_exhaustive(
        sum_classifier(BEYOND), [perturb.ContinuousPoint((0.5,))], 0),
    "minimal_perturbation": lambda: perturb.minimal_perturbation(
        sum_classifier(BEYOND), BEYOND_ZERO, 1),
    "image_is_robust": lambda: rb.image_is_robust(
        random_classifier(BEYOND, 2, "linear_threshold", 0), BEYOND_ZERO,
        isp.PerturbationBudget(2, 0.5)),
    "class_robust_fraction": lambda: rb.class_robust_fraction(
        sum_classifier(BEYOND), 0, isp.PerturbationBudget(0, 1)),
}


class TestEnumerationBound:
    def test_check_enumerable(self):
        isp.check_enumerable(isp.SpaceParams(1, 1, 20))
        with pytest.raises(SpaceTooLarge) as raised:
            isp.check_enumerable(BEYOND)
        assert str(raised.value) == BEYOND_MESSAGE

    @pytest.mark.parametrize("entry", sorted(BEYOND_ENTRY_POINTS))
    def test_every_entry_point_raises_space_too_large(self, entry):
        tracemalloc.start()
        try:
            with pytest.raises(SpaceTooLarge) as raised:
                BEYOND_ENTRY_POINTS[entry]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(raised.value) == BEYOND_MESSAGE
        assert peak < 1 << 20  # a 2^21-entry label array is 2 MiB or more


class TestPerturbationBudget:
    # a negative size_pow gave level threshold -9 on (2,1,2), so every image
    # read as robust; a NaN or infinite size failed only in level_threshold
    @pytest.mark.parametrize("size,size_pow", [(1.0, Fraction(-1)),
                                               (math.nan, None),
                                               (math.inf, None)],
                             ids=["negative-size-pow", "nan", "inf"])
    def test_rejects_invalid_size(self, size, size_pow):
        with pytest.raises(ValueError, match="size"):
            isp.PerturbationBudget(2, size, size_pow=size_pow)


class TestSampling:
    def test_deterministic(self):
        a = isp.sample_uniform(P212, seed=42)
        b = isp.sample_uniform(P212, seed=42)
        assert a == b

    def test_index_streams_differ(self):
        a = isp.sample_uniform(P212, seed=42, index=0)
        b = isp.sample_uniform(P212, seed=42, index=1)
        assert a != b  # 1/256 chance of collision would be a fixed fact

    def test_levels_uniform(self):
        params = isp.SpaceParams(1, 1, 1)
        rng = isp.philox_rng(9)
        draws = [isp.sample_uniform(params, 0, rng=rng).levels[0]
                 for _ in range(20000)]
        mean = float(np.mean(draws))
        assert abs(mean - 0.5) < 0.011  # ~3 sigma for 2e4 coin flips

    def test_histogram_flat_for_b2(self):
        params = isp.SpaceParams(1, 1, 2)
        rng = isp.philox_rng(11)
        draws = np.array([isp.sample_uniform(params, 0, rng=rng).levels[0]
                          for _ in range(20000)])
        counts = np.bincount(draws, minlength=4)
        # chi-square with 3 dof, 99% critical value 11.34
        expected = len(draws) / 4
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 11.34


def raw_words(seed, index, count):
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    return np.random.Philox(key=key).random_raw(count)


class TestPhiloxWords:
    def test_every_failure_rate_stream_of_seed_7(self):
        # theorem3's failure-rate checks read indices 0..9999;
        # 0..19999 covers them and a margin beyond
        got = isp.philox_words(7, np.arange(20_000), 8)
        assert got.dtype == np.uint64 and got.shape == (20_000, 8)
        for index in range(20_000):
            assert (got[index] == raw_words(7, index, 8)).all(), index

    def test_seed_0_and_keys_at_or_above_2_63(self):
        top = (1 << 64) - 1
        indices = [0, 1, 5, 1 << 63, (1 << 63) + 1, top - 1, top]
        for seed in (0, 1 << 63, (1 << 63) + 12345, top):
            got = isp.philox_words(seed, indices, 13)
            for row, index in zip(got, indices):
                assert (row == raw_words(seed, index, 13)).all(), (seed, index)

    def test_python_ints_wrap_like_philox_rng(self):
        big = (1 << 64) + 9
        assert (isp.philox_words(big, [big, -1], 4)
                == [raw_words(big, big, 4), raw_words(big, -1, 4)]).all()
        # an int64 array wraps -1 to 2^64 - 1, as the key mask does
        assert (isp.philox_words(3, np.array([-1, 2]), 4)
                == isp.philox_words(3, [(1 << 64) - 1, 2], 4)).all()

    def test_windows_start_anywhere(self):
        # every count cuts the last block of four lanes at another lane
        indices = [0, 3, 1 << 40]
        for count in (1, 2, 3, 4, 5, 9):
            got = isp.philox_words(11, indices, count)
            assert got.shape == (3, count)
            for row, index in zip(got, indices):
                assert (row == raw_words(11, index, count)).all()

    def test_no_streams(self):
        assert isp.philox_words(1, [], 4).shape == (0, 4)


class TestSerialization:
    def test_round_trip_exhaustive(self):
        for image in isp.enumerate_space(P211):
            assert isp.decode_image(isp.encode_image(image)) == image

    @given(st.integers(1, 3), st.integers(1, 2), st.integers(1, 3),
           st.integers(0, 10 ** 12))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random_spaces(self, n, h, b, rank_seed):
        params = isp.SpaceParams(n, h, b)
        image = isp.image_from_rank(params, rank_seed % params.total_images)
        encoded = isp.encode_image(image)
        assert isp.decode_image(encoded) == image
        assert isp.encode_image(isp.decode_image(encoded)) == encoded

    def test_rejects_overflow_level(self):
        payload = {"n": 2, "h": 1, "b": 1, "levels": [0, 0, 0, 2]}
        with pytest.raises(MalformedInput) as err:
            isp.decode_image(json.dumps(payload))
        assert err.value.position == 3

    def test_rejects_wrong_length(self):
        payload = {"n": 2, "h": 1, "b": 1, "levels": [0, 0, 0]}
        with pytest.raises(MalformedInput):
            isp.decode_image(json.dumps(payload))

    def test_rejects_float_levels(self):
        payload = '{"n": 2, "h": 1, "b": 1, "levels": [0, 0.0, 0, 0]}'
        with pytest.raises(MalformedInput):
            isp.decode_image(payload)

    def test_rejects_bad_json(self):
        with pytest.raises(MalformedInput):
            isp.decode_image(b"{nope")


class TestCells:
    def test_binary_cells(self):
        one = isp.SpaceParams(1, 1, 1)
        assert cell_of_point(one, [0.3]).levels == (0,)
        assert cell_of_point(one, [0.5]).levels == (1,)
        assert cell_of_point(one, [1.0]).levels == (1,)

    def test_flatten_lands_in_own_cell(self):
        for image in isp.enumerate_space(P212):
            assert cell_of_point(P212, isp.flatten(image)) == image

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            cell_of_point(isp.SpaceParams(1, 1, 1), [1.5])
