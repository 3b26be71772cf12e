"""The four benchmark workloads: what each runs, and how its outputs are
checked.

A workload builds its inputs from the seed (``build``), then yields the
operations of one round (``ops``); every round repeats the same
operations on freshly emptied caches, so a round costs what one fresh
command-line process pays.  ``check`` runs after the timed phase and
compares every output with :mod:`reference` or with a property the method
must have.  The split follows the layers later optimisations target: the
Hamming bitset kernels run only in ``verify-hamming``, exact PMF and tail
arithmetic mostly in ``verify-exact``, both exhaustive robustness engines
in ``exhaustive-robustness``, and none of these in ``sampled-robustness``.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np

import reference as ref
from robustness_envelope import (
    classifiers,
    image_space,
    perturb,
    robustness,
    verify,
)
from robustness_envelope.image_space import (
    ImageTensor,
    PerturbationBudget,
    SpaceParams,
)

MAX_REJECTIONS = 100_000


def derive(seed: int, *tags) -> int:
    """A 32-bit seed for one input, fixed by the workload seed and tags."""
    text = repr((seed,) + tags).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=4).digest(), "little")


# The linear-threshold classifier is fixed.  Its geometry sets the cost of
# a cell walk: over twelve seeds, 20 walks on (3,1,2) took 0.04 s to 1.05 s,
# which would swamp any change.  Seed 0 puts 30-70 % of every space used
# here in class 0.  The workload seed still draws the balanced and uniform
# classifiers, whose labels are i.i.d., and every sampled image.
LINEAR_THRESHOLD_SEED = 0


def battery(params: SpaceParams, seed: int, kinds) -> dict:
    """Classifiers by kind: the sum classifier and seeded random ones."""
    out = {}
    for kind in kinds:
        if kind == "sum":
            out[kind] = classifiers.sum_classifier(params)
        elif kind == "linear_threshold":
            out[kind] = classifiers.random_classifier(params, 2, kind,
                                                      LINEAR_THRESHOLD_SEED)
        else:
            out[kind] = classifiers.random_classifier(params, 2, kind,
                                                      derive(seed, kind, params.n,
                                                             params.h, params.b))
    return out


def all_labels(classifier) -> np.ndarray:
    """The classifier's label for every image, in rank order."""
    params = classifier.params
    levels = ref.space_levels(params.dimension, params.level_count)
    return np.array([classifier.decide(ImageTensor(params, tuple(row)))
                     for row in levels.tolist()], dtype=np.int64)


def sum_labels(params: SpaceParams) -> np.ndarray:
    """The sum classifier's labels in rank order, from its rule
    ``2 * level sum < dimension * top`` -> 0."""
    levels = ref.space_levels(params.dimension, params.level_count)
    return (2 * levels.sum(axis=1) >= params.dimension * params.max_level
            ).astype(np.int64)


def draw_member(classifier, label: int, rng):
    """A uniform member of one class by rejection, as the Monte Carlo
    estimators of the program draw it."""
    params = classifier.params
    for _ in range(MAX_REJECTIONS):
        candidate = image_space.sample_uniform(params, 0, rng=rng)
        if classifier.decide(candidate) == label:
            return candidate
    raise RuntimeError(f"no member of label {label} in {MAX_REJECTIONS} draws")


def margin_problem(check) -> str | None:
    """A passing check reports no margin, or a finite one that is not
    negative.  Three checks decide non-strict inequalities that are tight
    on the sweep (tail-ratio monotonicity, binomial spread, the Harper
    bound on H(4,2)), so a margin of exactly 0 is correct."""
    if not check.passed:
        return f"{check.check_id} failed: {check.detail}"
    if check.margin is not None and not (math.isfinite(check.margin)
                                         and check.margin >= 0):
        return f"{check.check_id} margin {check.margin!r}"
    return None


# --- verify suites -----------------------------------------------------------

class VerifyWorkload:
    """One operation per suite call, at the acceptance-scale defaults."""

    # check id -> reference computation of its worst margin
    REFERENCE_MARGINS = {
        "hamming/interior-ratio-H(4,2)-exhaustive":
            lambda: ref.hamming_interior_worst_margin(4, 2),
        "hamming/interior-ratio-H(2,4)-exhaustive":
            lambda: ref.hamming_interior_worst_margin(2, 4),
        "anticonc/sum-left-tail": ref.sum_left_tail_worst_margin,
    }

    def __init__(self, name: str, suites):
        self.name = name
        self.suites = tuple(suites)

    def build(self, seed: int) -> dict:
        return {"cfg": verify.VerifyConfig(seed=seed)}

    def reset(self, state: dict) -> None:
        pass

    def ops(self, state: dict):
        cfg = state["cfg"]
        for suite in self.suites:
            yield (suite,), lambda suite=suite: verify.SUITES[suite](cfg)

    def check(self, state: dict, ops) -> dict:
        expected = {}
        bad = {}
        for index, op in enumerate(ops):
            problems = [p for p in map(margin_problem, op.output.checks) if p]
            seen = {check.check_id for check in op.output.checks}
            problems += [f"{check_id} missing from the suite's checks"
                         for check_id in self.REFERENCE_MARGINS
                         if check_id.split("/")[0] == op.key[0]
                         and check_id not in seen]
            for check in op.output.checks:
                compute = self.REFERENCE_MARGINS.get(check.check_id)
                if compute is None:
                    continue
                if check.check_id not in expected:
                    expected[check.check_id] = compute()
                if check.margin != expected[check.check_id]:
                    problems.append(f"{check.check_id} margin {check.margin!r}"
                                    f" != reference {expected[check.check_id]!r}")
            if problems:
                bad[index] = "; ".join(problems)
        return bad


VERIFY_HAMMING = VerifyWorkload("verify-hamming", ["hamming"])
VERIFY_EXACT = VerifyWorkload(
    "verify-exact", sorted(set(verify.SUITES) - {"hamming"}))


# --- exhaustive robustness ---------------------------------------------------

F = Fraction
EXHAUSTIVE_KINDS = ("sum", "balanced", "uniform", "linear_threshold")
# shape -> budgets (p, size); every space up to 2048 images takes the
# dense engine, (2,1,3) with 4096 images the per-image engine, where only
# the sum classifier has a fast route for p >= 1.
EXHAUSTIVE_BUDGETS = {
    (2, 1, 2): [(0, F(1)), (0, F(2)), (1, F(1, 3)), (1, F(2, 3)), (1, F(1)),
                (2, F(1, 3)), (2, F(2, 3))],
    (1, 5, 2): [(0, F(1)), (0, F(2)), (1, F(1, 3)), (1, F(1)), (2, F(1, 3)),
                (2, F(2, 3))],
    (1, 11, 1): [(0, F(1)), (0, F(2)), (1, F(1)), (1, F(2)), (2, F(1)),
                 (2, F(2))],
    (2, 1, 3): [(0, F(1)), (0, F(2)), (1, F(1, 3)), (1, F(1)), (2, F(1, 3))],
}
THEOREM1_C = (0.5, 0.75, 1.0)
BRUTE_FORCE_MAX = 1024  # own pairwise brute force on spaces up to this size
# Both classes on the small spaces, class 0 on the others.  With both, the
# median operation falls inside the large cluster of 12-16 ms calls on the
# 1024-image space instead of on a gap between clusters.
LABELS_MAX = 1024


class ExhaustiveWorkload:
    """Exact class robust fractions and theorem-1 verdicts for a seeded
    battery, one operation per call."""

    name = "exhaustive-robustness"

    def build(self, seed: int) -> dict:
        plan = []
        for shape, budgets in EXHAUSTIVE_BUDGETS.items():
            params = SpaceParams(*shape)
            dense = params.total_images <= robustness.MATRIX_CAP
            labels = (0, 1) if params.total_images <= LABELS_MAX else (0,)
            for kind, clf in battery(params, seed, EXHAUSTIVE_KINDS).items():
                for label in labels:
                    for p, size in budgets:
                        if not dense and kind != "sum" and (p > 0 or size > 1):
                            continue
                        plan.append((("fraction", shape, kind, label, p, size),
                                     clf, PerturbationBudget(p, size)))
                if dense:
                    plan.append((("theorem1", shape, kind), clf, None))
        return {"plan": plan}

    def reset(self, state: dict) -> None:
        pass

    def ops(self, state: dict):
        for key, clf, budget in state["plan"]:
            if budget is None:
                yield key, lambda clf=clf: robustness.theorem1_holds(
                    clf, THEOREM1_C)
            else:
                yield key, lambda clf=clf, label=key[3], budget=budget: (
                    robustness.class_robust_fraction(clf, label, budget))

    def check(self, state: dict, ops) -> dict:
        classifiers = {key[1:3]: clf for key, clf, _ in state["plan"]}
        labels = {}
        levels = {}

        def space(shape):
            if shape not in levels:
                params = SpaceParams(*shape)
                levels[shape] = ref.space_levels(params.dimension,
                                                 params.level_count)
            return levels[shape]

        def labels_of(shape, kind):
            if (shape, kind) not in labels:
                labels[shape, kind] = all_labels(classifiers[shape, kind])
            return labels[shape, kind]

        brute = {}

        def brute_robust(shape, kind, d):
            if (shape, kind, d) not in brute:
                brute[shape, kind, d] = ref.count_norm_robust(
                    space(shape), labels_of(shape, kind), d)
            return brute[shape, kind, d]

        bad = {}
        fractions = {}
        for index, op in enumerate(ops):
            key = op.key
            shape, kind = key[1], key[2]
            params = SpaceParams(*shape)
            small = params.total_images <= BRUTE_FORCE_MAX
            problems = []
            if key[0] == "theorem1":
                own = labels_of(shape, kind)
                counts = np.bincount(own, minlength=2)
                interesting = {label for label, count in enumerate(counts)
                               if 1 <= count and 2 * count <= len(own)}
                for c in THEOREM1_C:
                    entries = [e for e in op.output.entries if e.c == c]
                    if {e.label for e in entries} != interesting:
                        problems.append(f"c={c}: classes "
                                        f"{sorted(e.label for e in entries)}"
                                        f" != interesting {sorted(interesting)}")
                    budget = ref.floor_c_sqrt(c, params.h * params.n ** 2) + 2
                    for e in entries:
                        if not (e.holds and e.budget == budget
                                and float(e.fraction) < 2 * math.exp(-2 * c * c)):
                            problems.append(f"c={c} label {e.label}: {e}")
                        if small:
                            members = own == e.label
                            robust = brute_robust(shape, kind, budget)
                            if e.robust_count != int((robust & members).sum()):
                                problems.append(f"c={c} label {e.label}: robust"
                                                f" count {e.robust_count}")
            else:
                label, p, size = key[3:]
                got = op.output.fraction
                fractions.setdefault((shape, kind, label, p), {})[size] = (
                    got, index)
                if kind == "sum" and p == 1:
                    want = ref.sum_l1_fraction(params.dimension,
                                               params.level_count, size, label)
                    if got != want:
                        problems.append(f"L1 closed form {want}, got {got}")
                if p == 0 and small:
                    members = labels_of(shape, kind) == label
                    robust = brute_robust(shape, kind, int(size))
                    want = F(int((robust & members).sum()), int(members.sum()))
                    if got != want:
                        problems.append(f"brute force {want}, got {got}")
            if problems:
                bad[index] = "; ".join(problems)

        # Fractions never increase as the budget grows.
        for group in fractions.values():
            ordered = sorted(group.items())
            for (_, (lo, _)), (size, (hi, index)) in zip(ordered, ordered[1:]):
                if hi > lo:
                    bad[index] = f"fraction rose to {hi} at size {size}"

        # Robust at L1 size d implies robust at L0 size d, image by image on
        # the dense spaces, by class counts on the per-image one.
        implied = {}
        for (shape, kind, label, p), group in fractions.items():
            if p != 1:
                continue
            for size, (l1, index) in group.items():
                if size.denominator != 1:
                    continue
                params = SpaceParams(*shape)
                clf = classifiers[shape, kind]
                if params.total_images <= robustness.MATRIX_CAP:
                    if (shape, kind, size) not in implied:
                        r1 = robustness.robust_flags(clf, PerturbationBudget(1, size))
                        r0 = robustness.robust_flags(clf, PerturbationBudget(0, size))
                        implied[shape, kind, size] = not (r1 & ~r0).any()
                    if not implied[shape, kind, size]:
                        bad[index] = f"robust at L1 {size} but not at L0"
                else:
                    l0 = fractions.get((shape, kind, label, 0), {}).get(size)
                    if l0 is not None and l1 > l0[0]:
                        bad[index] = f"L1 fraction {l1} above L0 {l0[0]}"
        return bad


EXHAUSTIVE = ExhaustiveWorkload()


# --- sampled robustness ------------------------------------------------------

# (shape, classifier kind, radius, searches); shapes small enough for the
# benchmark's own full cell scan.  The cost of one search is heavy-tailed
# (the nearest other-class cell of a deep member lies far away), so the
# groups are large: with 60 searches a group's work still varied by 10-35 %
# between seeds.
WALKS = [((3, 1, 2), kind, radius, 200)
         for kind in ("sum", "linear_threshold") for radius in (1.0, 1.5)] + \
        [((2, 1, 4), kind, radius, 150)
         for kind in ("sum", "linear_threshold") for radius in (0.5, 1.0)]
# (shape, classifier kind, (p, size), samples); spaces of 2^27 to 2^32
# images, far beyond enumeration.  No count-norm size 2 on (2,1,8): its
# ball holds 391,681 images, so one robust sample would cost seconds.
MC_SHAPES = ((2, 2, 4), (3, 1, 3), (2, 1, 8))
MC = [(shape, "sum", budget, 30) for shape in MC_SHAPES
      for budget in ((0, F(1)), (0, F(2)), (1, F(1, 2)), (1, F(1)), (2, F(1, 2)))
      if shape != (2, 1, 8) or budget != (0, F(2))] + \
     [(shape, "linear_threshold", (0, F(1)), 30) for shape in MC_SHAPES]
SCANNED = 6   # searches per walk group checked against the full cell scan
# The scan labels every cell; the sum classifier's labels come from its
# rule, other classifiers' from one decide per cell, kept to small spaces.
SCAN_DECIDE_MAX = 1 << 16
REPLAYED = 4  # searches per walk group replayed through failure_rate


class SampledWorkload:
    """Cell-walk searches and per-sample Monte Carlo verdicts, one
    operation per search or sample, each drawing its class-0 member from
    the stream keyed by (group seed, index)."""

    name = "sampled-robustness"

    def build(self, seed: int) -> dict:
        classifiers = {}
        for shape in {shape for shape, *_ in WALKS + MC}:
            params = SpaceParams(*shape)
            for kind, clf in battery(params, seed, ("sum", "linear_threshold")).items():
                classifiers[shape, kind] = clf
        walks = [(("walk", shape, kind, radius), classifiers[shape, kind],
                  radius, count, derive(seed, "walk", shape, kind, radius))
                 for shape, kind, radius, count in WALKS]
        mcs = [(("mc", shape, kind, p, size), classifiers[shape, kind],
                PerturbationBudget(p, size), count,
                derive(seed, "mc", shape, kind, p, size))
               for shape, kind, (p, size), count in MC]
        return {"classifiers": classifiers, "walks": walks, "mcs": mcs,
                "caches": {}}

    def reset(self, state: dict) -> None:
        # failure_rate keeps one label cache per call, that is per
        # (classifier, radius); here one per walk group per round, so every
        # round fills it again.
        state["caches"] = {key: {} for key, *_ in state["walks"]}

    def ops(self, state: dict):
        caches = state["caches"]
        for key, clf, radius, count, group_seed in state["walks"]:
            cache = caches[key]
            for index in range(count):
                def walk(clf=clf, radius=radius, cache=cache,
                         rng_key=(group_seed, index)):
                    rng = image_space.philox_rng(*rng_key)
                    member = draw_member(clf, 0, rng)
                    return member, perturb.find_perturbation(
                        clf, member, radius, rng=rng, label_cache=cache)
                yield key + (index,), walk
        for key, clf, budget, count, group_seed in state["mcs"]:
            for index in range(count):
                def sample(clf=clf, budget=budget, rng_key=(group_seed, index)):
                    rng = image_space.philox_rng(*rng_key)
                    member = draw_member(clf, 0, rng)
                    return member, robustness.image_is_robust(clf, member, budget)
                yield key + (index,), sample

    def check(self, state: dict, ops) -> dict:
        bad = {}
        cell_labels = {}
        # Operations of the first round by group, in position order; an
        # operation that raised is missing here and already counted failed.
        groups = {}
        for index, op in enumerate(ops):
            if op.round == 0:
                groups.setdefault(op.key[:-1], {})[op.key[-1]] = index
        seeds = {key: group_seed for key, _, _, _, group_seed
                 in state["walks"] + state["mcs"]}

        for index, op in enumerate(ops):
            key, position = op.key[:-1], op.key[-1]
            shape, kind = key[1], key[2]
            params = SpaceParams(*shape)
            clf = state["classifiers"][shape, kind]
            member, result = op.output
            top, q = params.max_level, params.level_count
            problems = []
            if clf.decide(member) != 0:
                problems.append("member not in class 0")
            if key[0] == "walk":
                radius = key[3]
                if result.succeeded:
                    moved = math.sqrt(sum((a - b) ** 2 for a, b in zip(
                        member.levels, result.result.levels))) / top
                    reach = radius + 2 * math.sqrt(params.dimension) / q
                    if clf.decide(result.result) == 0:
                        problems.append("found image is in class 0")
                    if moved > reach + 1e-9:
                        problems.append(f"moved {moved} beyond {reach}")
                if position < SCANNED and (kind == "sum" or params.total_images
                                           <= SCAN_DECIDE_MAX):
                    if (shape, kind) not in cell_labels:
                        cell_labels[shape, kind] = (
                            sum_labels(params) if kind == "sum"
                            else all_labels(clf))
                    rng = image_space.philox_rng(seeds[key], position)
                    draw_member(clf, 0, rng)
                    point = perturb.sample_point_in_cell(member, rng).coords
                    want = ref.cell_scan(point, cell_labels[shape, kind], 0,
                                         params.dimension, q, radius)
                    got = result.result.levels if result.succeeded else None
                    if got != want:
                        problems.append(f"walk found {got}, full scan {want}")
            else:
                p, size = key[3], key[4]
                if kind != "sum":  # count norm, size 1: every single change
                    want = all(clf.decide(ImageTensor(params, member.levels[:i] + (v,)
                                                      + member.levels[i + 1:])) == 0
                               for i in range(params.dimension) for v in range(q))
                elif p == 0:
                    want = ref.sum_l0_robust(member.levels, top, int(size))
                elif p == 1:
                    want = ref.sum_l1_robust(member.levels, top, size)
                else:
                    want = ref.sum_l2_robust(member.levels, top, size)
                if result != want:
                    problems.append(f"verdict {result}, closed form {want}")
            if problems:
                bad[index] = "; ".join(problems)

        # The per-operation loop reproduces the program's estimators: the
        # first searches of each walk group replay through failure_rate, and
        # every Monte Carlo group through class_robust_fraction.
        def first_round(key, count):
            """Indices of the group's first ``count`` operations in the
            first round, or None if one of them raised."""
            group = groups.get(key, {})
            if any(position not in group for position in range(count)):
                return None
            return [group[position] for position in range(count)]

        for key, clf, radius, count, group_seed in state["walks"]:
            indices = first_round(key, REPLAYED)
            if indices is None:
                continue
            want = sum(not ops[i].output[1].succeeded for i in indices)
            got = perturb.failure_rate(clf, 0, radius, REPLAYED, group_seed).failures
            if got != want:
                for i in indices:
                    bad[i] = f"failure_rate counts {got} failures, loop {want}"
        for key, clf, budget, count, group_seed in state["mcs"]:
            indices = first_round(key, count)
            if indices is None:
                continue
            want = sum(ops[i].output[1] for i in indices)
            got = robustness.class_robust_fraction(
                clf, 0, budget, "monte_carlo", samples=count,
                seed=group_seed).robust_count
            if got != want:
                for i in indices:
                    bad[i] = f"class_robust_fraction counts {got}, loop {want}"
        return bad


SAMPLED = SampledWorkload()

WORKLOADS = {w.name: w for w in (VERIFY_HAMMING, VERIFY_EXACT, EXHAUSTIVE,
                                 SAMPLED)}
