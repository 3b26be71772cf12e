"""The slot-packed hamming sweeps against the per-subset loops they replace,
and the verify configuration's contracts."""

import collections
import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from robustness_envelope import cli, exactmath, perturb, robustness, verify
from robustness_envelope import hamming as hm
from robustness_envelope.classifiers import random_classifier, sum_classifier
from robustness_envelope.image_space import (
    PerturbationBudget,
    SpaceParams,
    philox_rng,
)


# --- oracle: one subset at a time ---------------------------------------------

def oracle_interior_sizes(graph, bits, max_radius):
    count = graph.vertex_count
    grown = bits ^ ((1 << count) - 1)
    sizes = [bits.bit_count()]
    for _ in range(max_radius):
        grown = hm._expand_bits(graph.dims, graph.alphabet, grown)
        sizes.append(count - grown.bit_count())
    return sizes


def oracle_check_interior_ratio(sizes, subset_size, cases, worst):
    for c, radius, bound in cases:
        interior = sizes[min(radius, len(sizes) - 1)]
        margin = bound - interior / subset_size
        if margin < worst[0]:
            worst[0] = margin
        if margin <= 1e-9:
            cmp = exactmath.compare_scaled_exp(
                Fraction(interior, subset_size), Fraction(2),
                Fraction(-2) * Fraction(c) * Fraction(c))
            if cmp >= 0:
                return (c, subset_size, interior)
    return None


def oracle_interior_sweep(check_id, graph, subsets, detail):
    cases = hm.interior_ratio_cases(graph.dims, verify._C_GRID)
    max_radius = max(radius for _, radius, _ in cases)
    worst = [math.inf]
    for bits in subsets:
        sizes = oracle_interior_sizes(graph, bits, max_radius)
        bad = oracle_check_interior_ratio(sizes, bits.bit_count(), cases, worst)
        if bad is not None:
            return verify.CheckResult(
                check_id, False, worst[0],
                f"counterexample bits={bits:#x} at c={bad[0]}")
    return verify.CheckResult(check_id, True, worst[0], detail)


def oracle_exhaustive(dims, q):
    graph = hm.GraphParams(dims, q)
    half = graph.vertex_count // 2
    subsets = (bits for bits in range(1, 1 << graph.vertex_count)
               if bits.bit_count() <= half)
    return oracle_interior_sweep(
        f"hamming/interior-ratio-H({dims},{q})-exhaustive", graph, subsets,
        f"all subsets with 1 <= |S| <= {half}, c in {verify._C_GRID}")


def oracle_random_subsets(count, how_many, seed):
    full = (1 << count) - 1
    half = count // 2
    rng = philox_rng(seed)
    nbytes = (count + 7) // 8
    drawn = 0
    while drawn < how_many:
        bits = int.from_bytes(rng.bytes(nbytes), "little") & full
        if bits.bit_count() > half:
            bits ^= full
        if bits == 0 or bits.bit_count() > half:
            continue
        drawn += 1
        yield bits


def oracle_random(dims, q, how_many, seed):
    graph = hm.GraphParams(dims, q)
    return oracle_interior_sweep(
        f"hamming/interior-ratio-H({dims},{q})-random", graph,
        oracle_random_subsets(graph.vertex_count, how_many, seed),
        f"{how_many} seeded subsets, c in {verify._C_GRID}")


def oracle_harper(dims, q, k_values, tol=1e-9):
    count = q ** dims
    rhs_cache = {}
    worst = math.inf
    tol_fraction = Fraction(tol)
    for bits in range(1, (1 << count) - 1):
        size = bits.bit_count()
        expanded = bits
        for k in range(1, max(k_values) + 1):
            expanded = hm._expand_bits(dims, q, expanded)
            if k not in k_values:
                continue
            rhs = rhs_cache.get((k, size))
            if rhs is None:
                rhs = exactmath.harper_rhs(dims, k, Fraction(size, count),
                                           tol_fraction)
                rhs_cache[(k, size)] = rhs
            lhs = Fraction(expanded.bit_count(), count)
            margin = float(lhs - rhs)
            if margin < worst:
                worst = margin
            if lhs < rhs - tol_fraction:
                return verify.CheckResult(
                    f"hamming/expansion-lower-bound-H({dims},{q})", False,
                    worst, f"counterexample bits={bits:#x}, k={k}")
    return verify.CheckResult(
        f"hamming/expansion-lower-bound-H({dims},{q})", True, worst,
        f"all proper subsets, k in {sorted(k_values)}, tol {tol}; "
        "integer shell parameter convention")


def same_result(got, want):
    assert type(got.margin) is type(want.margin)
    assert got == want


# --- batched sweeps equal the oracle ------------------------------------------

class TestSweepsMatchOracle:
    @pytest.mark.parametrize("seed", [7, 2024])
    @pytest.mark.parametrize("how_many", [1, 4095, 4097, 9000])
    @pytest.mark.parametrize("dims,q", [(6, 2), (4, 3)])
    def test_random(self, dims, q, how_many, seed):
        same_result(verify._sweep_hamgraph_random(dims, q, how_many, seed),
                    oracle_random(dims, q, how_many, seed))

    @pytest.mark.parametrize("dims,q", [(4, 2), (2, 4)])
    def test_exhaustive(self, dims, q):
        same_result(verify._sweep_hamgraph_exhaustive(dims, q),
                    oracle_exhaustive(dims, q))

    @pytest.mark.parametrize("dims,q,k_values", [(4, 2, {1, 2, 3}),
                                                 (2, 3, {1})])
    def test_harper(self, dims, q, k_values):
        same_result(verify._sweep_harper(dims, q, k_values),
                    oracle_harper(dims, q, k_values))

    @pytest.mark.parametrize("count,seed", [(64, 7), (81, 8), (81, 99)])
    def test_random_draws(self, count, seed):
        drawn = [hm.pack_slots(row) for rows in
                 hm.seeded_subset_rows(count, 9000, seed) for row in rows]
        assert drawn == list(oracle_random_subsets(count, 9000, seed))


@pytest.mark.parametrize("dims,q", [(4, 2), (2, 4), (4, 3), (6, 2)])
def test_interior_sweeps_expand_at_most_the_diameter(monkeypatch, dims, q):
    # Exp^k of any set is fixed from k = dims on, so no chunk expands
    # further, whatever radius theorem 1 asks for
    steps = []
    real = hm.expansion_sizes

    def expansion_sizes(graph, blocks, k):
        steps.append(k)
        return real(graph, blocks, k)

    monkeypatch.setattr(hm, "expansion_sizes", expansion_sizes)
    if q ** dims <= 16:
        got = verify._sweep_hamgraph_exhaustive(dims, q)
    else:
        got = verify._sweep_hamgraph_random(dims, q, 100, 7)
    assert got.passed and steps == [dims]


class TestHarperToleranceEdge:
    """A set exactly ``HARPER_TOL`` below Harper's bound holds, and one
    ``2^-200`` further below fails, per subset and in the sweep."""

    TOL = Fraction(hm.HARPER_TOL)
    BELOW = Fraction(1, 2 ** 200)

    @pytest.mark.parametrize("extra,holds", [(0, True), (BELOW, False)])
    def test_harper_check(self, monkeypatch, extra, holds):
        s = hm.HammingSubset.from_members(hm.GraphParams(4, 2), [0])
        lhs = Fraction(5, 16)  # a vertex and its four neighbours
        monkeypatch.setattr(exactmath, "harper_rhs",
                            lambda *args: lhs + self.TOL + extra)
        check = hm.harper_check(s, 1)
        assert check.expansion_fraction == lhs
        assert check.lower_bound == lhs + self.TOL + extra
        assert check.holds is holds

    @pytest.mark.parametrize("extra,holds", [(0, True), (BELOW, False)])
    def test_sweep(self, monkeypatch, extra, holds):
        # the bound at each size is the smallest |Exp^1 S| of that size
        # plus the tolerance: the smallest sets sit on the edge
        graph = hm.GraphParams(2, 3)
        count = graph.vertex_count
        least = {}
        for bits in range(1, (1 << count) - 1):
            reached = hm.expand(hm.HammingSubset(graph, bits)).size
            size = bits.bit_count()
            least[size] = min(least.get(size, count), reached)

        def rhs(dims, k, fraction, tol, roots=None):
            return Fraction(least[fraction * count], count) + self.TOL + extra

        monkeypatch.setattr(exactmath, "harper_rhs", rhs)
        got = verify._sweep_harper(2, 3, {1})
        same_result(got, oracle_harper(2, 3, {1}))
        assert got.passed is holds
        if holds:
            assert got.margin == -hm.HARPER_TOL
        else:  # every singleton reaches 5 of 9 vertices, the least
            assert got.detail == "counterexample bits=0x1, k=1"


def failing_escalation(at):
    """A certified comparison that fails its ``at``-th call only."""
    calls = [0]

    def compare(ratio, scale, exponent):
        calls[0] += 1
        return 1 if calls[0] == at else -1

    return compare


class TestForcedFailure:
    def patch_cases(self, monkeypatch):
        real = hm.interior_ratio_cases

        def cases(dims, c_values):
            grid = real(dims, c_values)
            # a zero bound escalates every subset at the middle case, with
            # margin -|Int^1 S|/|S|: the worst margin then depends on which
            # subsets precede the failing one
            return [grid[0], (1.0, 1, 0.0), grid[-1]]

        monkeypatch.setattr(hm, "interior_ratio_cases", cases)

    @pytest.mark.parametrize("at", [1, 4096, 5000])
    def test_random(self, monkeypatch, at):
        self.patch_cases(monkeypatch)
        results = []
        for sweep in (verify._sweep_hamgraph_random, oracle_random):
            monkeypatch.setattr(exactmath, "compare_scaled_exp",
                                failing_escalation(at))
            results.append(sweep(4, 3, 9000, 7))
        assert not results[1].passed and "at c=1.0" in results[1].detail
        assert at == 1 or results[1].margin < 0
        same_result(*results)

    def test_exhaustive(self, monkeypatch):
        self.patch_cases(monkeypatch)
        results = []
        for sweep in (verify._sweep_hamgraph_exhaustive, oracle_exhaustive):
            monkeypatch.setattr(exactmath, "compare_scaled_exp",
                                failing_escalation(6000))
            results.append(sweep(4, 2))
        assert not results[1].passed
        same_result(*results)

    def test_harper(self, monkeypatch):
        real = exactmath.harper_rhs

        def rhs(dims, k, fraction, tol, roots=None):
            # unreachable at k >= 2 for |S| = 13 of 16: first met at 0x1fff,
            # whose k = 3 margin is lower still but comes after the failure
            if k >= 2 and fraction == Fraction(13, 16):
                return Fraction(k)
            return real(dims, k, fraction, tol, roots)

        monkeypatch.setattr(exactmath, "harper_rhs", rhs)
        got = verify._sweep_harper(4, 2, {1, 2, 3})
        want = oracle_harper(4, 2, {1, 2, 3})
        assert want.detail == "counterexample bits=0x1fff, k=2"
        same_result(got, want)


def test_theorem1_is_decided_in_one_place(monkeypatch, capsys):
    # Radius 0 and bound 0 at c = 1 in the one helper: every member is its
    # own interior, and the certified comparison confirms 1 >= 2 e^-2.  So
    # all three sites fail, and only through the patched cases.
    real = hm.interior_ratio_cases

    def cases(dims, c_values):
        return [(c, 0, 0.0) if c == 1.0 else (c, radius, bound)
                for c, radius, bound in real(dims, c_values)]

    monkeypatch.setattr(hm, "interior_ratio_cases", cases)
    report = robustness.theorem1_holds(sum_classifier(SpaceParams(2, 1, 1)),
                                       [0.5, 1.0])
    assert [(e.c, e.holds) for e in report.entries] == [(0.5, True),
                                                        (1.0, False)]
    assert not hm.check_hamgraph_theorem(
        hm.HammingSubset.from_members(hm.GraphParams(4, 2), [0, 1]), 1.0).holds
    swept = verify._sweep_hamgraph_random(4, 3, 100, 7)
    assert not swept.passed and swept.detail.endswith("at c=1.0")
    assert cli.main(["verify", "theorem1", "--balanced-small", "1",
                     "--balanced-large", "1"]) == 1
    out = capsys.readouterr().out
    assert ("FAIL theorem1/sum-(2,1,1) margin=-1 -- "
            "violated by sum label 0 at c=1.0") in out


def one_call_per_classifier(check_id, classifiers, c_values):
    """Oracle for ``verify._theorem1_batch``: one ``theorem1_holds`` call
    per classifier, walked in order."""
    worst = math.inf
    for classifier in classifiers:
        for entry in robustness.theorem1_holds(classifier, c_values).entries:
            worst = min(worst, entry.margin)
            if not entry.holds:
                return verify.CheckResult(
                    check_id, False, worst, f"violated by {classifier.spec} "
                    f"label {entry.label} at c={entry.c}")
    return verify.CheckResult(check_id, True, worst,
                              f"c grid {tuple(c_values)}")


def test_theorem1_batch_fails_where_single_calls_do(monkeypatch):
    # At c = 2 the patched case has radius 1 and float bound 0.2: a class
    # of 8 with 2 members at distance > 1 from the other class fails (the
    # certified comparison confirms 1/4 >= 2 e^-8), one with 1 passes.
    # Every classifier but one has at most 1, and that one sits after the
    # first chunk of 2048 rows.
    params = SpaceParams(2, 1, 1)
    graph = hm.GraphParams(params.dimension, params.level_count)

    def deepest(classifier):
        labels = classifier.labels()
        return max(hm.interior_k(hm.HammingSubset.from_members(
            graph, np.flatnonzero(labels == label).tolist()), 1).size
            for label in (0, 1))

    shallow, deep = [], []
    for seed in range(1200):
        classifier = random_classifier(params, 2, "balanced", seed)
        (deep if deepest(classifier) >= 2 else shallow).append(classifier)
    assert len(shallow) >= 1100 and deep
    batch = shallow[:1050] + deep[:1] + shallow[1050:1100]
    real = hm.interior_ratio_cases

    def cases(dims, c_values):
        return [(c, 1, 0.2) if c == 2.0 else (c, radius, bound)
                for c, radius, bound in real(dims, c_values)]

    monkeypatch.setattr(hm, "interior_ratio_cases", cases)
    grid = (0.5, 2.0)
    got = verify._theorem1_batch("theorem1/forced", batch, grid)
    want = one_call_per_classifier("theorem1/forced", batch, grid)
    assert got == want
    assert not got.passed and got.detail.startswith(
        f"violated by {deep[0].spec} label ")
    # and a batch that holds everywhere reads the same worst margin
    assert (verify._theorem1_batch("theorem1/ok", shallow[:300], grid)
            == one_call_per_classifier("theorem1/ok", shallow[:300], grid))


def test_first_failure_worst_margin():
    margins = np.array([[0.5, -3.0], [0.25, -1.0], [-2.0, -4.0]])
    assert verify._first_failure(margins, iter([])) == (-4.0, None)
    assert verify._first_failure(margins, iter([(1, 0)])) == (-3.0, (1, 0))
    assert verify._first_failure(margins, iter([(2, 0), (2, 1)])) == (-3.0, (2, 0))
    assert verify._first_failure(margins[1:], iter([(1, 0)])) == (-2.0, (1, 0))


# --- reductions suite -----------------------------------------------------------

def old_order_violation(classifier, sizes=(1, 2, 3), norms=(2, 3)):
    """The reductions in the order the suite checks them, one engine call
    per implication: L1->L0 at d, then L0->Lp for each p, d by d."""
    top = classifier.params.max_level
    for d in sizes:
        _, (l1, l0) = robustness._exhaustive(
            classifier, [PerturbationBudget(1, Fraction(d)),
                         PerturbationBudget(0, Fraction(d))])
        if not np.all(~l1 | l0):
            return d, "L1->L0"
        for p in norms:
            small = PerturbationBudget(p, float(d) ** (1 / p) / top,
                                       size_pow=Fraction(d) / Fraction(top) ** p)
            large = PerturbationBudget(p, float(d) ** (1 / p), size_pow=Fraction(d))
            _, (l0, below, above) = robustness._exhaustive(
                classifier, [PerturbationBudget(0, Fraction(d)), small, large])
            if not (np.all(~l0 | below) and np.all(~above | l0)):
                return d, f"L0->L{p}"
    return None


def forcing_engine(monkeypatch, forced, spec=None):
    """Patch the exhaustive engine so every budget keyed ``(p, size^p)`` in
    ``forced`` gets that constant verdict for every image, for the
    classifier ``spec`` only when one is given."""
    real = robustness._exhaustive

    def engine(classifier, budgets):
        labels, verdicts = real(classifier, budgets)
        for i, budget in enumerate(budgets):
            key = (budget.p, budget.exact_size_pow())
            if key in forced and spec in (None, classifier.spec):
                verdicts[i] = np.full_like(verdicts[i], forced[key])
        return labels, verdicts

    monkeypatch.setattr(robustness, "_exhaustive", engine)


class TestReductionsSuite:
    @pytest.mark.parametrize("forced,spec", [
        ({(0, 2): False}, None),                # L0 at d = 2 never robust
        ({(3, 1): True}, None),                 # L3 at d = 1 always robust
        ({(0, 2): False, (3, 1): True}, None),  # both: d = 1 comes first
        ({(2, Fraction(1, 9)): False}, None),   # small L2 budget at d = 1, b = 2
        ({(1, 3): True, (3, 3): False}, None),
        ({(3, 1): True, (2, 1): True}, None),   # both: p = 2 comes first
        ({(3, 2): True}, "balanced:12"),        # a later classifier only
        ({(2, 2): True, (1, 2): True}, "uniform:22:3"),
    ], ids=str)
    def test_forced_failure_reports_old_order(self, monkeypatch, forced, spec):
        forcing_engine(monkeypatch, forced, spec)
        report = verify.suite_reductions(verify.VerifyConfig())
        failures = 0
        for shape, check in zip(((2, 1, 1), (2, 1, 2), (3, 1, 1)), report.checks):
            want = None
            for classifier in verify.classifier_zoo(SpaceParams(*shape)):
                found = old_order_violation(classifier)
                if found:
                    want = (classifier.spec, *found)
                    break
            failures += want is not None
            assert check.passed == (want is None)
            assert check.detail == ("d in (1,2,3), p in (2,3), exhaustive"
                                    + (f"; violated {want}" if want else ""))
        assert failures > 0

    def test_each_zoo_image_decided_once(self, monkeypatch):
        real_zoo = verify.classifier_zoo
        counts = []

        def zoo(params):
            handles = []
            for handle in real_zoo(params):
                calls = [0]
                counts.append((params, calls))

                def decide(image, handle=handle, calls=calls):
                    calls[0] += 1
                    return handle.decide(image)

                handles.append(dataclasses.replace(handle, decide=decide))
            return handles

        monkeypatch.setattr(verify, "classifier_zoo", zoo)
        assert verify.suite_reductions(verify.VerifyConfig()).passed
        assert len(counts) == 18
        assert all(calls[0] == params.total_images for params, calls in counts)


# --- slot-packed kernels -------------------------------------------------------

def unpack(bits, slots, width):
    return [bits >> (i * width) & ((1 << width) - 1) for i in range(slots)]


class TestSlotKernels:
    @pytest.mark.parametrize("dims,q", [(6, 2), (4, 3), (2, 4), (2, 3)])
    def test_slots_equal_single_calls(self, dims, q):
        count = q ** dims
        width = hm._slot_width(count)
        rand = random.Random(dims * 10 + q)
        subsets = [0, (1 << count) - 1, 1 << (count - 1), 1]
        subsets += [rand.getrandbits(count) for _ in range(40)]
        subsets += [1 << rand.randrange(count) for _ in range(10)]
        packed = sum(bits << (i * width) for i, bits in enumerate(subsets))
        want = [hm._expand_bits(dims, q, bits) for bits in subsets]
        n = len(subsets)
        got = hm._expand_bits(dims, q, packed, slots=n)
        assert unpack(got, n, width) == want
        # masks built once for more slots serve a shorter chunk
        masks = hm._slot_masks(dims, q, n + 7)
        assert hm._expand_bits(dims, q, packed, n, masks) == got

    def test_pack_and_sizes(self):
        rows = np.array([[1, 0], [2 ** 64 - 1, 3], [0, 2 ** 17]], dtype=np.uint64)
        packed = hm.pack_slots(rows)
        assert unpack(packed, 3, 128) == [1, 2 ** 64 - 1 + (3 << 64), 1 << 81]
        assert np.array_equal(hm._slot_rows(packed, 3, 2), rows)
        assert hm._row_sizes(hm._slot_rows(packed, 3, 2)).tolist() == [1, 66, 1]

    @pytest.mark.parametrize("dims,q", [(4, 2), (2, 4), (2, 3)])
    def test_expansion_sizes_equal_single_calls(self, dims, q):
        graph = hm.GraphParams(dims, q)
        count = graph.vertex_count
        chunks = list(hm.proper_subset_rows(count, count // 2))
        assert sum(map(len, chunks)) == sum(
            1 for bits in range(1, 1 << count) if bits.bit_count() <= count // 2)
        steps = 3
        for rows, sizes in hm.expansion_sizes(graph, chunks, steps):
            for row, got in zip(rows[::97], sizes[::97]):
                bits = hm.pack_slots(row)
                want = [bits.bit_count()]
                for _ in range(steps):
                    bits = hm._expand_bits(dims, q, bits)
                    want.append(bits.bit_count())
                assert got.tolist() == want

    def test_expansion_sizes_masks_fit_the_chunk(self):
        # masks for CHUNK slots of H(11, 2) take over 10 MiB
        graph = hm.GraphParams(11, 2)
        rows = np.zeros((2, hm._slot_width(graph.vertex_count) // 64),
                        dtype=np.uint64)
        rows[:, 0] = [1, 6]
        hm._step_masks(11, 2)  # cached across calls: outside the trace
        tracemalloc.start()
        try:
            [(_, sizes)] = hm.expansion_sizes(graph, [rows], 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert sizes.tolist() == [[1, 12, 67], [2, 22, 112]]

    @pytest.mark.parametrize("dims,q", [(4, 2), (2, 4), (6, 2)])
    def test_expansion_sizes_any_chunking(self, dims, q):
        graph = hm.GraphParams(dims, q)
        rows = next(hm.seeded_subset_rows(graph.vertex_count, hm.CHUNK, 3))
        steps = 3

        def sizes_of(chunks):
            return np.concatenate([sizes for _, sizes in
                                   hm.expansion_sizes(graph, chunks, steps)])

        want = sizes_of([rows])
        for size in (1, 3, hm.CHUNK):
            assert np.array_equal(want, sizes_of(
                rows[at:at + size] for at in range(0, len(rows), size)))
        # masks built for a small chunk are rebuilt for a larger one
        for cut in (1, 5, 700):
            assert np.array_equal(want, sizes_of([rows[:cut], rows[cut:]]))
            assert np.array_equal(want[:cut], sizes_of([rows[:cut]]))
            assert np.array_equal(want[cut:], sizes_of([rows[cut:]]))

    def test_expansion_sizes_split_oversized_block(self):
        # a block of CHUNK + 1 rows expands as a chunk of CHUNK, then 1
        graph = hm.GraphParams(4, 2)
        rows = np.arange(1, hm.CHUNK + 2, dtype=np.uint64)[:, None]
        chunks = list(hm.expansion_sizes(graph, [rows], 2))
        assert [len(chunk) for chunk, _ in chunks] == [hm.CHUNK, 1]
        assert np.array_equal(np.concatenate([c for c, _ in chunks]), rows)
        for at, (_, sizes) in zip((0, hm.CHUNK), chunks):
            [(_, want)] = hm.expansion_sizes(graph, [rows[at:at + hm.CHUNK]], 2)
            assert np.array_equal(sizes, want)

    @pytest.mark.parametrize("nbytes", [8, 11])
    def test_bulk_draws_equal_per_call_draws(self, nbytes):
        # one rng.bytes(nbytes) reads nbytes rounded up to 32-bit words
        stride = 4 * -(-nbytes // 4)
        per_call = philox_rng(5)
        want = [per_call.bytes(nbytes) for _ in range(12)]
        bulk = philox_rng(5)
        data = bulk.bytes(5 * stride) + bulk.bytes(7 * stride)  # two chunks
        assert [data[i * stride:i * stride + nbytes] for i in range(12)] == want


# --- configuration -------------------------------------------------------------

class TestVacuousCounts:
    @pytest.mark.parametrize("field", ["random_subsets", "balanced_small",
                                       "balanced_large", "samples"])
    def test_config_rejects_zero(self, field):
        with pytest.raises(ValueError, match=field):
            verify.VerifyConfig(**{field: 0})
        verify.VerifyConfig(**{field: 1})

    @pytest.mark.parametrize("argv", [
        ["verify", "hamming", "--subsets", "0"],
        ["verify", "theorem1", "--balanced-small", "0"],
        ["verify", "theorem1", "--balanced-large", "-3"],
        ["verify", "all", "--samples", "0"],
    ])
    def test_cli_usage_error(self, argv, capsys):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert "error" in captured.err and captured.out == ""


# --- anti-concentration --------------------------------------------------------

class TestAnticoncSpotCheck:
    def test_spread_operation_runs_on_every_member(self, monkeypatch):
        calls = []
        real = exactmath.binomial_spread_holds

        def spy(n, y, t):
            calls.append((n, y, t))
            return real(n, y, t)

        monkeypatch.setattr(exactmath, "binomial_spread_holds", spy)
        suite = verify.suite_anticonc(verify.VerifyConfig())
        assert all(c.passed for c in suite.checks)
        family = [y for _, y in verify._symmetric_family()]
        assert len(calls) == 3 * len(family) * 3
        assert all(any(y == member for _, y, _ in calls) for member in family)
        assert all(t.denominator == 2 and t < Fraction(n, 2)
                   for n, _, t in calls)

    def test_wrong_spread_operation_fails_spot_check_only(self, monkeypatch):
        monkeypatch.setattr(exactmath, "binomial_spread_holds",
                            lambda n, y, t: False)
        checks = {c.check_id: c for c in
                  verify.suite_anticonc(verify.VerifyConfig()).checks}
        assert checks["anticonc/binomial-spread"].passed
        assert not checks["anticonc/operation-spot-check"].passed


# --- theorem3 ------------------------------------------------------------------

class TestWalkEqualsOracle:
    CFG = verify.VerifyConfig(samples=100)

    def checks(self):
        return {c.check_id: c for c in verify.suite_theorem3(self.CFG).checks}

    def test_incomplete_walk_fails_only_this_check(self, monkeypatch):
        # a walk at radius 0.5 that gives up after ten cells unless it
        # found one within 0.25, so only the radius 0.5 answers go wrong
        walk = perturb._CellWalk.walk

        def gives_up(self, coords, base_label, radius):
            best_d2, rank, examined = walk(self, coords, base_label, radius)
            if radius == 0.5 and examined > 10 and best_d2 > 0.25 * 0.25:
                return radius * radius, -1, examined
            return best_d2, rank, examined

        monkeypatch.setattr(perturb._CellWalk, "walk", gives_up)
        checks = self.checks()
        failed = [check_id for check_id, c in checks.items() if not c.passed]
        assert failed == ["theorem3/walk-equals-oracle"]
        detail = checks["theorem3/walk-equals-oracle"].detail
        assert "; mismatch ((2, 1, 2), 'sum', 0.5, " in detail

    def test_each_point_walked_once(self, monkeypatch):
        # 600 walk-contracts points, one per (member, radius), each walked
        # once at radius 2.0, and 1500 walk-equals-oracle draws walked once
        # at radius 0.5, each point for both of its check's radii; the
        # 10,000 failure-rate draws on the 256 cells of (2,1,2) go through
        # the dense kernel instead, besides the oracle's 600 + 1500 points;
        # every batch is decided by one hits tail
        radii = collections.Counter()
        walk = perturb._CellWalk.walk
        hits = perturb._CellWalk.hits
        kernel = perturb._nearest_cells
        tails = collections.Counter()
        dense = []

        def counted(self, coords, base_label, radius):
            radii[radius] += 1
            return walk(self, coords, base_label, radius)

        def tail(self, ranks, coords, d2, cells, base_label, at):
            tails[tuple(at)] += len(ranks)
            return hits(self, ranks, coords, d2, cells, base_label, at)

        def batched(bounds, coords, masked):
            dense.append(len(coords))
            return kernel(bounds, coords, masked)

        monkeypatch.setattr(perturb._CellWalk, "walk", counted)
        monkeypatch.setattr(perturb._CellWalk, "hits", tail)
        monkeypatch.setattr(perturb, "_nearest_cells", batched)
        verify.suite_theorem3(verify.VerifyConfig())
        assert radii == {2.0: 600, 0.5: 1500}
        assert sum(dense) == 10_000 + 600 + 1500
        assert tails == {(1.5, 2.0): 10_600, (0.25, 0.5): 1500}

    def test_dropped_cell_fails_only_walk_contracts(self, monkeypatch):
        # row 7 is member 3 at radius 2.0; a walks pass at 2.0 that loses
        # its cell makes it miss where the oracle hits.  walk-equals-oracle
        # walks at 0.5, and the failure rates use the dense kernel.
        passing = self.checks()["theorem3/walk-contracts-(2,1,2)"]
        walks = perturb._CellWalk.walks

        def drops(self, ranks, coords, base_label, radius):
            d2, cells = walks(self, ranks, coords, base_label, radius)
            if radius == 2.0:
                d2[7], cells[7] = math.inf, ranks[7]
            return d2, cells

        monkeypatch.setattr(perturb._CellWalk, "walks", drops)
        checks = self.checks()
        failed = [check_id for check_id, c in checks.items() if not c.passed]
        assert failed == ["theorem3/walk-contracts-(2,1,2)"]
        check = checks["theorem3/walk-contracts-(2,1,2)"]
        assert check.detail.endswith("; failed (3, 2.0, 'completeness')")
        # the worst margin of rows 0 .. 6 only, above that of all 600 rows
        assert math.inf > check.margin > passing.margin

    def test_oracle_disagreeing_fails(self, monkeypatch):
        oracle = perturb.nearest_cell_exhaustive
        monkeypatch.setattr(
            perturb, "nearest_cell_exhaustive",
            lambda classifier, points, base_label: [
                (d2 + 0.01, cell) for d2, cell in
                oracle(classifier, points, base_label)])
        check = self.checks()["theorem3/walk-equals-oracle"]
        assert not check.passed and "; mismatch (" in check.detail
