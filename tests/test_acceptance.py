"""Acceptance gate: each test runs one criterion at its stated scale and
tolerance and prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
whole module takes a few minutes at full scale.
"""

import csv
import json
from fractions import Fraction

import numpy as np
import pytest

from robustness_envelope import cli
from robustness_envelope import bounds as bd
from robustness_envelope import perturb as pt
from robustness_envelope import robustness as rb
from robustness_envelope import verify
from robustness_envelope.classifiers import sum_classifier
from robustness_envelope.image_space import (
    ImageTensor,
    PerturbationBudget,
    SpaceParams,
    enumerate_space,
)
from test_image_space import encode_image

CFG = verify.VerifyConfig()  # acceptance-scale defaults


def report_line(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion-{number:02d}: {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def run_checks(number, checks, detail):
    for check in checks:
        if not check.passed:
            report_line(number, False, f"{check.check_id}: {check.detail}")
    margins = [c.margin for c in checks if c.margin is not None]
    worst = f", min margin {min(margins):.3g}" if margins else ""
    report_line(number, True, detail + worst)


# Every check of ``verify all --seed 7``:
# (suite, check id, passed, repr of the margin, detail).
VERIFY_ALL_PINNED = [
    ("anticonc", "anticonc/binomial-spread", True, "1.9073486328125e-07",
     "n in 2..20, symmetric family, all admissible half-integer t"),
    ("anticonc", "anticonc/sum-left-tail", True, "0.11217337687398343",
     "n in 2..64, 2k in (2,4,8), t grid"),
    ("anticonc", "anticonc/operation-spot-check", True, "None",
     "direct operation calls agree on spot grid"),
    ("binomial", "binomial/pascal-identity", True, "None",
     "n <= 200, exhaustive"),
    ("binomial", "binomial/row-sum", True, "None", "n <= 200, exhaustive"),
    ("binomial", "binomial/mode-bound", True, "0.45163270528973953",
     "n <= 10000, min log gap 0.451633"),
    ("binomial", "binomial/tail-ratio-monotone", True, "3.59e-38",
     "n <= 40, k <= 5, p in j/10; exhaustive"),
    ("binomial", "binomial/hoeffding-ratio", True, "3.8309579032561554e-29",
     "admissible sweep n <= 64, p in (1/4,1/2,3/4); exhaustive"),
    ("binomial", "binomial/tail-vs-convolution", True, "None",
     "n <= 64, tails equal exact convolution CDFs"),
    ("gaussian", "gaussian/ratio-monotone", True, "0.00026427658130931424",
     "Phi(x-k)/Phi(x) nondecreasing on the grid"),
    ("gaussian", "gaussian/tail-bound", True, "0.1213719017765844",
     "Phi(x) < exp(-x^2/2) for x <= 1/2"),
    ("gaussian", "gaussian/ratio-bound-at-half", True, "0.3320522270767977",
     "Phi(1/2-c)/Phi(1/2) < 2 exp(-c^2/2)"),
    ("gaussian", "gaussian/ratio-bound-general", True, "0.3320522270767977",
     "same bound anchored at every grid x <= 1/2"),
    ("hamming", "hamming/interior-ratio-H(4,2)-exhaustive", True,
     "0.0006709252558050237",
     "all subsets with 1 <= |S| <= 8, c in "
     "[0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]"),
    ("hamming", "hamming/interior-ratio-H(2,4)-exhaustive", True,
     "0.0006709252558050237",
     "all subsets with 1 <= |S| <= 8, c in "
     "[0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]"),
    ("hamming", "hamming/interior-ratio-H(6,2)-random", True,
     "0.0006709252558050237",
     "100000 seeded subsets, c in [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]"),
    ("hamming", "hamming/interior-ratio-H(4,3)-random", True,
     "0.0006709252558050237",
     "100000 seeded subsets, c in [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]"),
    ("hamming", "hamming/expansion-lower-bound-H(4,2)", True, "0.0",
     "all proper subsets, k in [1, 2, 3], tol 1e-09; "
     "integer shell parameter convention"),
    ("hamming", "hamming/expansion-lower-bound-H(2,3)", True,
     "4.042198674550024e-13",
     "all proper subsets, k in [1], tol 1e-09; "
     "integer shell parameter convention"),
    ("hamming", "hamming/operator-invariants", True, "None",
     "expand cross-check, extensivity, composition, duality on 600 random "
     "subsets"),
    ("reductions", "reductions/zoo-(2, 1, 1)", True, "None",
     "d in (1,2,3), p in (2,3), exhaustive"),
    ("reductions", "reductions/zoo-(2, 1, 2)", True, "None",
     "d in (1,2,3), p in (2,3), exhaustive"),
    ("reductions", "reductions/zoo-(3, 1, 1)", True, "None",
     "d in (1,2,3), p in (2,3), exhaustive"),
    ("theorem1", "theorem1/sum-(2,1,1)", True, "0.2706705664732254",
     "c grid (0.5, 0.75, 1.0)"),
    ("theorem1", "theorem1/balanced-x1000-(2,1,1)", True, "0.2706705664732254",
     "c grid (0.5, 0.75, 1.0)"),
    ("theorem1", "theorem1/balanced-x100-(2,1,2)", True, "0.2706705664732254",
     "c grid (0.5, 0.75, 1.0)"),
    ("theorem1", "theorem1/sum-(2,1,2)", True, "0.2706705664732254",
     "c grid (0.5, 0.75, 1.0)"),
    ("theorem2", "theorem2/exact-fractions-(16,1,1)", True, "0.2",
     "c in {0.05..0.20}, exact tail ratios"),
    ("theorem2", "theorem2/analytic-vs-exhaustive-(2, 1, 1)", True, "None",
     "exact agreement on d grid"),
    ("theorem2", "theorem2/analytic-vs-exhaustive-(3, 1, 1)", True, "None",
     "exact agreement on d grid"),
    ("theorem3", "theorem3/walk-contracts-(2,1,2)", True, "1.4459074466105402",
     "300 seeded members, radii (1.5, 2.0): success iff a different-class "
     "cell intersects the ball; exact length bound"),
    ("theorem3", "theorem3/walk-equals-oracle", True, "None",
     "500 failure_rate draws per case, radii (0.25, 0.5): walk success iff "
     "the oracle's nearest different-class cell is within the radius; "
     "failures (2, 1, 2) sum 81, 6; (3, 1, 1) linthresh:0 122, 4; "
     "(1, 3, 1) sum 171, 6"),
    ("theorem3", "theorem3/failure-rate-r1.5", True, "0.6689209363460229",
     "0/10000 failures, CI (0.0000, 0.0004), bound 0.6693"),
    ("theorem3", "theorem3/failure-rate-r2.0", True, "0.2902865681025488",
     "0/10000 failures, CI (0.0000, 0.0004), bound 0.2907"),
    ("theorem3", "theorem3/l2-robust-fraction-(2,1,2)", True,
     "0.2706705664732254",
     "exhaustive class-0 fraction at size c + 2n sqrt(h)/2^b below "
     "2 exp(-c^2/2)"),
    ("theorem3", "theorem3/higher-p-reduction-(2,1,2)", True, "None",
     "robust at Lp size d^(2/p) implies robust at L2 size d, p in (3,4)"),
]


@pytest.fixture(scope="module")
def reports():
    """Every suite's report at the acceptance scale, run once per module."""
    return {r.suite: r for r in verify.run_suites(verify.SUITES, CFG)}


def test_verify_all_pinned(reports):
    assert [(r.suite, c.check_id, c.passed, repr(c.margin), c.detail)
            for r in reports.values() for c in r.checks] == VERIFY_ALL_PINNED


def test_criterion_01_binomial_suite(reports):
    wanted = {"binomial/mode-bound", "binomial/tail-ratio-monotone",
              "binomial/hoeffding-ratio"}
    checks = [c for c in reports["binomial"].checks if c.check_id in wanted]
    assert len(checks) == 3
    run_checks(1, checks,
               "mode bound n<=1e4, tail-ratio monotone n<=40, "
               "Hoeffding sweep n<=64, zero violations")


def test_criterion_02_hamming_isoperimetry(reports):
    checks = [c for c in reports["hamming"].checks
              if "interior-ratio" in c.check_id]
    ids = {c.check_id for c in checks}
    assert {"hamming/interior-ratio-H(4,2)-exhaustive",
            "hamming/interior-ratio-H(6,2)-random",
            "hamming/interior-ratio-H(4,3)-random"} <= ids
    assert len(ids) == 4
    run_checks(2, checks,
               "interior ratio < 2e^(-2c^2): H(4,2) exhaustive |S|<=8 and "
               "2x100000 random subsets of H(6,2), H(4,3)")


def test_criterion_03_harper_lower_bound(reports):
    checks = [c for c in reports["hamming"].checks
              if "expansion-lower-bound" in c.check_id]
    assert len(checks) == 2
    run_checks(3, checks,
               "expansion >= tail bound - 1e-9: H(4,2) k in 1..3, H(2,3) k=1, "
               "exhaustive")


def test_criterion_04_theorem1_desk_scale(reports):
    run_checks(4, list(reports["theorem1"].checks),
               "robust fraction < 2e^(-2c^2) for sum + 1000 balanced on "
               "(2,1,1) and 100 on (2,1,2), c in {0.5,0.75,1.0}")


def test_criterion_05_theorem2_exact(reports):
    run_checks(5, list(reports["theorem2"].checks),
               "exact class-0 fractions >= 1-4c on (16,1,1) and exhaustive "
               "agreement on (2,1,1), (3,1,1), zero tolerance")


def test_criterion_06_anti_concentration(reports):
    run_checks(6, list(reports["anticonc"].checks),
               "binomial-spread n<=20 and left-tail bound n<=64, "
               "2k in {2,4,8}, exact convolutions, zero violations")


def test_criterion_07_norm_reductions(reports):
    run_checks(7, list(reports["reductions"].checks),
               "L1->L0 and L0->Lp reductions, zoo on (2,1,1), (2,1,2), "
               "(3,1,1), d<=3, p in {2,3}, zero violations")


def test_criterion_08_walk_contracts(reports):
    wanted = [c for c in reports["theorem3"].checks
              if "walk-contracts" in c.check_id or "failure-rate" in c.check_id]
    assert len(wanted) == 3
    run_checks(8, wanted,
               "length bound exact on every success; failure rate over "
               "10000 samples within 2e^(-c^2/2)+0.02 at c in {1.5,2.0}")


# attack --method findpert cases: (classifier, shape, levels, radius, seed)
# -> (exit code, result, repr of l2_moved, cells_examined).
FINDPERT_PINNED = [
    (("sum", (2, 1, 2), (1, 0, 2, 0), 1.5, 11),
     (0, [1, 1, 3, 1], "0.5773502691896257", 21)),
    (("sum", (2, 1, 2), (0, 0, 0, 1), 0.1, 3), (1, None, "0.0", 4)),
    (("balanced:21", (2, 1, 2), (3, 1, 0, 2), 0.8, 2),
     (0, [3, 1, 1, 2], "0.3333333333333333", 3)),
    (("linthresh:3", (3, 1, 2), (0, 1, 2, 3, 0, 1, 2, 3, 0), 1.0, 5),
     (0, [0, 1, 1, 3, 0, 1, 3, 3, 1], "0.5773502691896257", 38)),
    (("linthresh:0", (2, 1, 4), (2, 7, 11, 4), 0.5, 9),
     (0, [2, 8, 11, 4], "0.06666666666666667", 5)),
    (("uniform:4:3", (2, 1, 3), (5, 0, 7, 2), 0.6, 13),
     (0, [6, 0, 7, 2], "0.14285714285714285", 6)),
    (("sum", (3, 1, 2), (0, 0, 1, 0, 2, 0, 0, 1, 0), 1.0, 21),
     (0, [1, 1, 2, 1, 3, 1, 2, 2, 1], "1.1547005383792515", 18634)),
]


@pytest.mark.parametrize("case,expected", FINDPERT_PINNED,
                         ids=[f"{c[0]}-{c[1]}-r{c[3]}" for c, _ in FINDPERT_PINNED])
def test_criterion_08_findpert_cli_pinned(case, expected, capsys, tmp_path):
    spec, shape, levels, radius, seed = case
    path = tmp_path / "img.json"
    path.write_bytes(encode_image(ImageTensor(SpaceParams(*shape), levels)))
    code = cli.main(["attack", "--image", str(path), "--classifier", spec,
                     "--method", "findpert", "--radius", str(radius),
                     "--seed", str(seed)])
    out = json.loads(capsys.readouterr().out)
    assert (code, out["result"], repr(out["l2_moved"]),
            out["cells_examined"]) == expected


def test_criterion_09_gaussian_suite(reports):
    run_checks(9, list(reports["gaussian"].checks),
               "normal-CDF checks on x in [-6,0.5] step 0.01, "
               "c in {0.1..4.0}, certified precision 1e-12")


def test_criterion_10_average_distance():
    n, h, b = 8, 1, 2
    pairs = 100_000
    rng = np.random.default_rng(20240501)
    dim, top = n * n * h, (1 << b) - 1
    x = rng.integers(0, 1 << b, size=(pairs, dim))
    y = rng.integers(0, 1 << b, size=(pairs, dim))
    diff = np.abs(x - y)
    means = {
        0: float((diff != 0).sum(axis=1).mean()),
        1: float((diff / top).sum(axis=1).mean()),
        2: float(np.sqrt(((diff / top) ** 2).sum(axis=1)).mean()),
    }
    for p, mean in means.items():
        bound = bd.avg_distance_lower_bound(n, h, b, p)
        if mean < bound:
            report_line(10, False, f"p={p}: mean {mean:.4f} < bound {bound:.4f}")
    detail = ", ".join(
        f"p={p}: mean {mean:.3f} >= bound "
        f"{bd.avg_distance_lower_bound(n, h, b, p):.3f}"
        for p, mean in means.items())
    report_line(10, True, f"100000 uniform pairs in (8,1,2): {detail}")


def test_criterion_11_table_snapshot(capsys):
    code = cli.main(["bounds", "--r", "0.5", "--n", "224", "--h", "3",
                     "--b", "8", "--p", "0,1,2"])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.reader(
        [line for line in out.splitlines() if line and not line.startswith("#")]))
    pinned = {
        "0": ("325.014", "46.4974"),
        "1": ("325.014", "46.4974"),
        "2": ("4.69620", "0.0267408"),
    }
    for row in rows[1:]:
        expect = pinned[row[0]]
        if (row[1], row[2]) != expect:
            report_line(11, False,
                        f"p={row[0]}: got {(row[1], row[2])}, want {expect}")
    report_line(11, True,
                "bounds --r 0.5 --n 224 --h 3 --b 8 reproduces pinned "
                "6-digit values " + str(sorted(pinned.items())))


def test_criterion_12_oracle_coherence():
    from robustness_envelope.classifiers import random_classifier
    budget_grid = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2),
                   Fraction(2), Fraction(3))
    mismatches = 0
    for shape in ((2, 1, 1), (2, 1, 2)):
        params = SpaceParams(*shape)
        sum_c = sum_classifier(params)
        battery = [sum_c, random_classifier(params, 2, "balanced", 77)]
        for image in enumerate_space(params):
            for p in (0, 1, 2):
                greedy = pt.attack_sum_classifier(image, p)
                oracle = pt.minimal_perturbation(sum_c, image, p)
                if greedy.exact != oracle.exact:
                    mismatches += 1
                for classifier in battery:
                    minimal = pt.minimal_perturbation(classifier, image, p)
                    for d in budget_grid:
                        budget = PerturbationBudget(p, d, size_pow=d ** max(p, 1))
                        robust = rb.image_is_robust(classifier, image, budget)
                        threshold = d if p <= 1 else d ** 2
                        if robust != (minimal.exact > threshold):
                            mismatches += 1
    report_line(12, mismatches == 0,
                "minimal-perturbation <=> robustness equivalence and greedy "
                f"attack agreement on (2,1,1) and (2,1,2): {mismatches} "
                "mismatches")
