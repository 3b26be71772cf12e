import csv
import dataclasses
import io
import json
import math
from fractions import Fraction

import pytest

from robustness_envelope import cli, exactmath, image_space, verify
from robustness_envelope.image_space import ImageTensor, SpaceParams, encode_image


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBounds:
    def test_csv_three_rows(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--r", "0.5", "--n", "224",
                               "--h", "3", "--b", "8", "--p", "0,1,2")
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        rows = list(csv.reader(lines))
        assert rows[0][0] == "p"
        assert len(rows) == 4
        assert rows[3][1] == "4.69620"

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--r", "0.5", "--n", "224",
                               "--h", "3", "--b", "8", "--p", "0,1,2",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 3
        assert payload["config"]["r"] == 0.5

    def test_missing_r_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["bounds", "--n", "4", "--h", "1", "--b", "1"])
        assert exit_info.value.code == 2

    def test_c_parametrization(self, capsys):
        # c = 1 reproduces the unit-c expansion size 2 + sqrt(h) n
        code, out, _ = run_cli(capsys, "bounds", "--c", "1.0", "--n", "10",
                               "--h", "1", "--b", "1", "--p", "1")
        assert code == 0
        row = [l for l in out.splitlines() if l.startswith("1,")][0]
        assert row.split(",")[1] == "12.0000"

    def test_c_outside_domain_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--c", "0.3", "--n", "10",
                               "--h", "1", "--b", "1")
        assert code == 2 and "outside" in err

    @pytest.mark.parametrize("c", ["-1", "0", "-0.5", "nan"])
    def test_nonpositive_c_exits_2(self, capsys, c):
        # a negative c would map to the same r as -c while its row reads |c|
        code, out, err = run_cli(capsys, "bounds", "--c", c, "--n", "4",
                                 "--h", "1", "--b", "1", "--p", "0",
                                 "--format", "json")
        assert code == 2 and "--c must be positive" in err and out == ""

    def test_r_and_c_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["bounds", "--r", "0.5", "--c", "1.0", "--n", "4",
                      "--h", "1", "--b", "1"])
        assert exit_info.value.code == 2

    def test_invalid_r_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--r", "1.5", "--n", "4",
                               "--h", "1", "--b", "1")
        assert code == 2 and "error" in err


class TestVerify:
    def test_binomial_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "binomial", "--seed", "7")
        assert code == 0
        assert "PASS binomial/mode-bound" in out
        assert out.strip().endswith("PASS overall")

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "theorem2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert all(c["passed"] for c in payload["checks"])

    def test_deterministic_report(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "theorem2", "--seed", "7")
        _, second, _ = run_cli(capsys, "verify", "theorem2", "--seed", "7")
        assert first == second

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["verify", "nonsense"])
        assert exit_info.value.code == 2

    def test_every_config_field_has_a_flag(self, capsys, monkeypatch):
        # each VerifyConfig field must be settable from the command line
        seen = []
        monkeypatch.setattr(verify, "run_suites",
                            lambda names, cfg: seen.append(cfg) or [])
        code, out, _ = run_cli(capsys, "verify", "all", "--seed", "8",
                               "--samples", "9", "--subsets", "10",
                               "--balanced-small", "11", "--balanced-large",
                               "12", "--format", "json")
        assert code == 0
        (cfg,) = seen
        default = verify.VerifyConfig()
        assert [f.name for f in dataclasses.fields(cfg)
                if getattr(cfg, f.name) == getattr(default, f.name)] == []
        # and each is recorded, with its value, under its flag's name
        flags = {"random_subsets": "subsets"}
        config = json.loads(out)["config"]
        assert {flags.get(f.name, f.name): getattr(cfg, f.name)
                for f in dataclasses.fields(cfg)}.items() <= config.items()

    def test_injected_mutant_detected(self, capsys, monkeypatch):
        # Weakening the tail-ratio bound exponent must trip the sweep and
        # name the counterexample.
        monkeypatch.setattr(
            exactmath, "hoeffding_exponent",
            lambda n, k: Fraction(-3 * (k - 1) ** 2, n))
        code, out, _ = run_cli(capsys, "verify", "binomial")
        assert code == 1
        assert "FAIL binomial/hoeffding-ratio" in out
        assert "first violation" in out


class TestAttack:
    def test_minimal_distance_two(self, capsys, tmp_path):
        image = ImageTensor(SpaceParams(2, 1, 1), (0, 0, 0, 0))
        path = tmp_path / "img.json"
        path.write_bytes(encode_image(image))
        code, out, _ = run_cli(capsys, "attack", "--image", str(path),
                               "--norm", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["distance"] == 2.0

    def test_findpert_success_and_bound(self, capsys, tmp_path):
        image = ImageTensor(SpaceParams(2, 1, 2), (0, 0, 0, 0))
        path = tmp_path / "img.json"
        path.write_bytes(encode_image(image))
        code, out, _ = run_cli(capsys, "attack", "--image", str(path),
                               "--method", "findpert", "--radius", "2",
                               "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["l2_moved"] <= 2 + 2 * 2 * 1 / 4

    def test_failure_marker_exits_1(self, capsys, tmp_path):
        image = ImageTensor(SpaceParams(2, 1, 2), (0, 0, 0, 0))
        path = tmp_path / "img.json"
        path.write_bytes(encode_image(image))
        code, out, _ = run_cli(capsys, "attack", "--image", str(path),
                               "--method", "findpert", "--radius", "0.01",
                               "--seed", "1")
        assert code == 1
        assert json.loads(out)["result"] is None

    @pytest.mark.parametrize("radius", ["-1", "-0.3", "nan"])
    def test_bad_findpert_radius_exits_2(self, capsys, tmp_path, radius):
        image = ImageTensor(SpaceParams(2, 1, 2), (0, 0, 0, 0))
        path = tmp_path / "img.json"
        path.write_bytes(encode_image(image))
        code, out, err = run_cli(capsys, "attack", "--image", str(path),
                                 "--method", "findpert", f"--radius={radius}",
                                 "--seed", "1")
        assert code == 2 and out == ""
        assert "radius must be >= 0" in err

    def test_negative_norm_exits_2(self, capsys, tmp_path):
        path = tmp_path / "img.json"
        path.write_bytes(encode_image(ImageTensor(SpaceParams(1, 1, 1), (0,))))
        code, out, err = run_cli(capsys, "attack", "--image", str(path),
                                 "--method", "minimal", "--norm", "-1")
        assert code == 2 and out == ""
        assert "error: p must be >= 0, got -1" in err

    def test_cap_images_flag_is_gone(self, capsys, tmp_path):
        path = tmp_path / "img.json"
        path.write_bytes(encode_image(ImageTensor(SpaceParams(2, 1, 2),
                                                  (0, 0, 0, 0))))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["attack", "--image", str(path), "--method", "findpert",
                      "--radius", "2", "--seed", "1", "--cap-images", "10"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --cap-images" in capsys.readouterr().err

    def test_malformed_image_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, _, err = run_cli(capsys, "attack", "--image", str(path),
                               "--norm", "0")
        assert code == 2 and "error" in err


class TestEstimate:
    def test_ci_covers_exact(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--n", "3", "--h", "1",
                               "--b", "1", "--classifier", "sum", "--label",
                               "0", "--norm", "0", "--size", "1",
                               "--samples", "2000", "--seed", "11")
        assert code == 0
        payload = json.loads(out)
        report = payload["report"]
        from robustness_envelope import robustness as rb
        from robustness_envelope.classifiers import sum_classifier
        from robustness_envelope.image_space import PerturbationBudget
        exact = rb.class_robust_fraction(
            sum_classifier(SpaceParams(3, 1, 1)), 0, PerturbationBudget(0, 1))
        assert report["ci_lo"] <= float(exact.fraction) <= report["ci_hi"]

    def test_decimal_size_is_exact(self, capsys):
        # "0.6" is the budget 3/5: level threshold 9 of 15, exact class-0
        # fraction 7/40; the float 0.5999... gave threshold 8 (7/30)
        from robustness_envelope.classifiers import sum_classifier
        from robustness_envelope.image_space import PerturbationBudget
        from robustness_envelope.robustness import (
            class_robust_fraction,
            level_threshold,
        )
        argv = ["estimate", "--n", "1", "--h", "2", "--b", "4", "--classifier",
                "sum", "--label", "0", "--norm", "1", "--size", "0.6",
                "--samples", "2000", "--seed", "7"]
        args = cli.build_parser().parse_args(argv)
        assert args.size == Fraction(3, 5)
        budget = PerturbationBudget(1, args.size)
        assert level_threshold(SpaceParams(1, 2, 4), budget) == 9
        assert class_robust_fraction(sum_classifier(SpaceParams(1, 2, 4)), 0,
                                     budget).fraction == Fraction(7, 40)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["size"] == 0.6
        report = payload["report"]
        assert report["ci_lo"] <= 7 / 40 <= report["ci_hi"]

    def test_zero_samples_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--n", "2", "--h", "1",
                               "--b", "1", "--norm", "0", "--size", "1",
                               "--samples", "0", "--seed", "1")
        assert code == 2 and "error" in err

    def test_label_out_of_range_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "estimate", "--n", "2", "--h", "1",
                                 "--b", "1", "--classifier", "sum", "--label",
                                 "5", "--norm", "0", "--size", "1",
                                 "--samples", "3", "--seed", "1")
        assert code == 2 and out == ""
        assert "error: label must be in [0, 2), got 5" in err

    def test_space_beyond_the_bound_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "estimate", "--n", "1", "--h", "1",
                                 "--b", "21", "--classifier", "uniform:1:2",
                                 "--norm", "0", "--size", "1",
                                 "--samples", "3", "--seed", "1")
        assert code == 2 and out == ""
        assert "error: space holds 2097152 images, cap is 1048576" in err

    def test_empty_class_exits_2_before_any_draw(self, capsys, monkeypatch):
        # labels [1, 1]: no image wears label 2
        def no_draw(*args, **kwargs):
            raise AssertionError("drew an image")

        monkeypatch.setattr(image_space, "sample_uniform", no_draw)
        code, out, err = run_cli(capsys, "estimate", "--n", "1", "--h", "1",
                                 "--b", "1", "--classifier", "uniform:1:3",
                                 "--label", "2", "--norm", "0", "--size", "1",
                                 "--samples", "3", "--seed", "1")
        assert code == 2 and out == ""
        assert err == "error: label 2 has no members\n"

    def test_seed_reproducibility_byte_identical(self, capsys):
        args = ("estimate", "--n", "2", "--h", "1", "--b", "1", "--norm", "0",
                "--size", "1", "--samples", "300", "--seed", "4")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--n", "2", "--h", "1",
                               "--b", "1", "--norm", "1", "--size", "1",
                               "--samples", "100", "--seed", "2",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "n" and rows[1][0] == "2"


# Decimals with no exact binary form, and a few that have one.
DECIMALS = ([f"0.{i:02d}" for i in range(1, 100)]
            + ["0.1", "0.7071067811865476", "1e-3", "0.333333333333333333333",
               "2.5", "1.4142135623730951"])


class TestExactDecimals:
    """--r, --c and --radius parse as exact Fractions.  No decimal picks a
    different table entry or search ball than its float would."""

    def test_parse_rounds_like_float(self):
        for text in DECIMALS:
            assert float(Fraction(text)) == float(text)

    def test_exact_r_gives_the_same_table_entries(self):
        from robustness_envelope import bounds
        for text in DECIMALS[:99]:
            for shape in ((224, 3, 8), (10, 1, 1)):
                exact = bounds.bounds_table(Fraction(text), *shape, [0, 1, 2])
                rounded = bounds.bounds_table(float(text), *shape, [0, 1, 2])
                assert [(row.upper_text, row.lower_text) for row in exact] == \
                    [(row.upper_text, row.lower_text) for row in rounded]

    def test_exact_r_c_lower(self, capsys):
        # (1 - 0.07) / 4 in binary floats is 0.23249999999999998
        code, out, _ = run_cli(capsys, "bounds", "--r", "0.07", "--n", "10",
                               "--h", "1", "--b", "1", "--p", "1")
        assert code == 0
        rows = list(csv.reader(l for l in out.splitlines()
                               if l and not l.startswith("#")))
        assert rows[0][4] == "c_lower" and rows[1][4] == "0.2325"
        code, out, _ = run_cli(capsys, "bounds", "--r", "0.07", "--n", "10",
                               "--h", "1", "--b", "1", "--format", "json")
        assert json.loads(out)["config"]["r"] == 0.07

    def test_radius_picks_the_same_ball(self):
        from robustness_envelope import perturb
        from robustness_envelope.classifiers import sum_classifier
        params = SpaceParams(2, 1, 2)
        classifier = sum_classifier(params)
        image = ImageTensor(params, (0, 1, 0, 0))
        for text in DECIMALS + ["0.5", "0.25", "0.75"]:
            exact = perturb.find_perturbation(classifier, image, Fraction(text),
                                              seed=3)
            rounded = perturb.find_perturbation(classifier, image, float(text),
                                                seed=3)
            assert exact == rounded

    def test_radius_config_stays_float(self, capsys, tmp_path):
        image = ImageTensor(SpaceParams(2, 1, 2), (0, 0, 0, 0))
        path = tmp_path / "img.json"
        path.write_bytes(encode_image(image))
        for text, radius in (("0.1", 0.1), ("inf", math.inf)):
            code, out, _ = run_cli(capsys, "attack", "--image", str(path),
                                   "--method", "findpert", "--radius", text,
                                   "--seed", "1")
            payload = json.loads(out)
            assert payload["config"]["radius"] == radius
            assert code == (1 if text == "0.1" else 0)

    def test_c_parses_exactly_and_prints_float(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--c", "0.75", "--n", "10",
                               "--h", "1", "--b", "1", "--format", "json")
        assert code == 0
        config = json.loads(out)["config"]
        assert config["c"] == 0.75
        assert config["r"] == 2.0 * math.exp(-2.0 * 0.75 * 0.75)

    def test_unparsable_decimal_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["bounds", "--r", "half", "--n", "4", "--h", "1",
                      "--b", "1"])
        assert exit_info.value.code == 2

    def overflow_refused(self, capsys, monkeypatch, flag, argv):
        # 1e400 parses as a Fraction, but its float overflows: refused by
        # the parser with one error line, before any command runs
        def runs(args):
            raise AssertionError("the command ran")

        for name in ("cmd_bounds", "cmd_attack", "cmd_estimate"):
            monkeypatch.setattr(cli, name, runs)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert exit_info.value.code == 2 and out == ""
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"robustness-envelope {argv[0]}: error: argument {flag}: "
            "1e400 overflows a float"]

    def test_overflowing_radius_exits_2(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "img.json"
        path.write_bytes(encode_image(ImageTensor(SpaceParams(2, 1, 2),
                                                  (0, 0, 0, 0))))
        self.overflow_refused(capsys, monkeypatch, "--radius", [
            "attack", "--image", str(path), "--method", "findpert",
            "--radius", "1e400", "--seed", "1"])

    def test_overflowing_c_exits_2(self, capsys, monkeypatch):
        self.overflow_refused(capsys, monkeypatch, "--c", [
            "bounds", "--c", "1e400", "--n", "4", "--h", "1", "--b", "1"])

    def test_overflowing_size_exits_2(self, capsys, monkeypatch):
        self.overflow_refused(capsys, monkeypatch, "--size", [
            "estimate", "--n", "2", "--h", "1", "--b", "2", "--norm", "2",
            "--size", "1e400", "--samples", "10", "--seed", "1"])


class TestOutputFile:
    def test_writes_to_path(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "bounds", "--r", "0.5", "--n", "4",
                               "--h", "1", "--b", "1", "--output", str(target))
        assert code == 0 and out == ""
        assert "upper_size" in target.read_text()
