"""Command-line front end: bound tables, verification suites, attacks,
and Monte Carlo estimation.

Exit codes: 0 on success, 1 when a verification check fails or an attack
returns the failure marker, 2 on usage or input errors.  Every stochastic
command requires a seed and embeds its full configuration in the output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

from . import bounds, perturb, robustness, verify
from .classifiers import parse_classifier_spec
from .errors import EnvelopeError, MalformedInput
from .image_space import PerturbationBudget, SpaceParams, decode_image

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _config(**fields) -> dict:
    """The invocation, embedded in every report for reproducibility,
    without the fields a command leaves None."""
    return {k: v for k, v in fields.items() if v is not None}


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part != ""]


def _decimal(text: str) -> Fraction | float:
    """A decimal parsed exactly (0.1 is 1/10), refused if its float
    overflows, since reports print it as a float; ``inf`` and ``nan`` stay
    floats for the command to accept or reject."""
    try:
        value = Fraction(text)
        float(value)
    except ValueError:
        return float(text)
    except OverflowError:
        raise argparse.ArgumentTypeError(f"{text} overflows a float") from None
    return value


def cmd_bounds(args) -> int:
    r = args.r
    c = None if args.c is None else float(args.c)
    if r is None:
        # c parametrizes the count-norm route: r = 2 exp(-2 c^2), c > 0
        if not c > 0:
            print(f"error: --c must be positive, got {c}", file=sys.stderr)
            return EXIT_USAGE
        r = 2.0 * math.exp(-2.0 * c * c)
        if not (0 < r < 1):
            print(f"error: --c {c} maps to r={r:.4f} outside (0, 1)",
                  file=sys.stderr)
            return EXIT_USAGE
    rows = bounds.bounds_table(r, args.n, args.h, args.b, args.p)
    config = _config(command="bounds", r=float(r), c=c, n=args.n, h=args.h,
                     b=args.b, p=args.p, format=args.format,
                     rounding=bounds.ROUNDING_NOTE)
    if args.format == "json":
        payload = {"config": config, "rows": [row.to_dict() for row in rows]}
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.output)
    else:
        buffer = io.StringIO()
        buffer.write(f"# rounding={bounds.ROUNDING_NOTE}\n")
        writer = csv.writer(buffer)
        writer.writerow(bounds.TABLE_CSV_HEADER)
        for row in rows:
            writer.writerow(row.csv_row())
        _emit(buffer.getvalue(), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    names = sorted(verify.SUITES) if args.suite == "all" else [args.suite]
    cfg = verify.VerifyConfig(seed=args.seed, samples=args.samples,
                              random_subsets=args.subsets,
                              balanced_small=args.balanced_small,
                              balanced_large=args.balanced_large)
    reports = verify.run_suites(names, cfg)
    config = _config(command="verify", suite=args.suite, seed=args.seed,
                     samples=args.samples, subsets=args.subsets,
                     balanced_small=args.balanced_small,
                     balanced_large=args.balanced_large, format=args.format)
    all_passed = all(r.passed for r in reports)
    if args.format == "json":
        payload = {
            "config": config,
            "passed": all_passed,
            "checks": [{"suite": r.suite, "check": c.check_id,
                        "passed": c.passed, "margin": c.margin,
                        "detail": c.detail}
                       for r in reports for c in r.checks],
        }
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.output)
    else:
        lines = [f"# config={json.dumps(config, sort_keys=True)}"]
        for report in reports:
            for check in report.checks:
                status = "PASS" if check.passed else "FAIL"
                margin = "" if check.margin is None else f" margin={check.margin:.6g}"
                lines.append(f"{status} {check.check_id}{margin} -- {check.detail}")
        lines.append(f"{'PASS' if all_passed else 'FAIL'} overall")
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def cmd_attack(args) -> int:
    try:
        with open(args.image, "rb") as f:
            image = decode_image(f.read())
    except (OSError, MalformedInput) as e:
        print(f"error: cannot read image: {e}", file=sys.stderr)
        return EXIT_USAGE
    classifier = parse_classifier_spec(args.classifier, image.params)
    config = _config(command="attack", image=args.image,
                     method=args.method, classifier=args.classifier,
                     norm=args.norm, radius=float(args.radius),
                     seed=args.seed)
    if args.method == "minimal":
        result = perturb.minimal_perturbation(classifier, image, args.norm)
        payload = {"config": config, "method": result.method, "p": result.p,
                   "distance": result.distance,
                   "witness": list(result.witness.levels)}
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.output)
        return EXIT_OK
    if args.seed is None:
        print("error: --method findpert requires --seed", file=sys.stderr)
        return EXIT_USAGE
    outcome = perturb.find_perturbation(classifier, image, args.radius,
                                        seed=args.seed)
    payload = {"config": config,
               "result": None if not outcome.succeeded
               else list(outcome.result.levels),
               "l2_moved": outcome.l2_moved,
               "cells_examined": outcome.cells_examined}
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.output)
    return EXIT_OK if outcome.succeeded else EXIT_CHECK_FAILED


def cmd_estimate(args) -> int:
    params = SpaceParams(args.n, args.h, args.b)
    classifier = parse_classifier_spec(args.classifier, params)
    budget = PerturbationBudget(args.norm, args.size)
    report = robustness.class_robust_fraction(
        classifier, args.label, budget, method="monte_carlo",
        samples=args.samples, seed=args.seed)
    config = _config(command="estimate", n=args.n, h=args.h, b=args.b,
                     classifier=args.classifier, label=args.label,
                     norm=args.norm, size=float(args.size),
                     samples=args.samples, seed=args.seed, format=args.format)
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(robustness.CSV_HEADER)
        writer.writerow(report.csv_row())
        _emit(buffer.getvalue(), args.output)
    else:
        payload = {"config": config, "report": report.to_dict()}
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustness-envelope",
        description="Universal robustness bounds over quantized image "
                    "spaces: tables, verification, attacks, estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="emit the attainable-robustness table")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--r", type=_decimal, default=None,
                       help="target robust fraction in (0,1), exact")
    group.add_argument("--c", type=_decimal, default=None,
                       help="alternative parametrization: r = 2 exp(-2 c^2)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--p", type=_int_list, default=[0, 1, 2],
                   help="comma-separated norm orders")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--samples", type=int, default=10_000,
                   help="Monte Carlo samples for stochastic checks")
    p.add_argument("--subsets", type=int, default=100_000,
                   help="random subsets per large-graph sweep")
    p.add_argument("--balanced-small", type=int, default=1000)
    p.add_argument("--balanced-large", type=int, default=100)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("attack", help="find a minimal or nearby perturbation")
    p.add_argument("--image", required=True, help="path to an image JSON file")
    p.add_argument("--classifier", default="sum")
    p.add_argument("--method", choices=("minimal", "findpert"),
                   default="minimal")
    p.add_argument("--norm", type=int, default=0, help="p for --method minimal")
    p.add_argument("--radius", type=_decimal, default=Fraction(1),
                   help="search radius for --method findpert, exact")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("estimate", help="Monte Carlo robust-fraction estimate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--classifier", default="sum")
    p.add_argument("--label", type=int, default=0)
    p.add_argument("--norm", type=int, required=True)
    p.add_argument("--size", type=_decimal, required=True,
                   help="budget size, exact: 0.6 is 3/5")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_estimate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EnvelopeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
