"""Command-line interface.

Inputs are scenario names or paths to files in the restricted JSON dialect.
All JSON output is canonical (sorted keys, two-space indent, trailing
newline), so identical runs produce identical bytes.

Exit codes:
  0  the check passed (or the command only reports, e.g. epsilon, posterior)
  1  the check failed and the report carries a witness
  2  a budgeted search exhausted its family without finding anything
  3  degenerate input for the question asked (zero-probability evidence,
     a composition premise that does not hold)
  4  unparseable or invalid input (an oversized rational, a --target-ratio
     of 0 or below), a path that cannot be read or written, wrong
     population usage, bad definition
  5  a closed form disagreed with its enumeration cross-check: a fault in
     the package, reported on stderr with nothing on stdout and no witness
     file
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .adversary import posterior, posterior_under_intervention, semantic_gap
from .brp import check_composition, compose_sequential
from .checkers import falsify_bayesian0, run_check
from .dist import Dist
from .errors import (
    CausalDpError,
    CrossCheckMismatch,
    MissingPopulation,
    ParseError,
    PremiseViolated,
    ValidationError,
    ZeroEvidence,
    preview,
)
from .exact import epsilon_of, format_ratio, parse_rational
from .mechanisms import CanonicalModel, MechanismKernel, classic_epsilon
from .modelfile import (
    CompositionSpec,
    canonical_json,
    falsification_to_json,
    input_digest,
    parse_text,
    parse_value,
    report_header,
    report_to_json,
    serialize_distribution,
    value_to_json,
    witness_to_json,
)
from .reports import CheckReport, DefinitionId
from .scenarios import SCENARIOS

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_NOT_FOUND = 2
EXIT_DEGENERATE = 3
EXIT_INVALID = 4
EXIT_CROSS_CHECK = 5


def _load_input(arg: str):
    if arg in SCENARIOS:
        return SCENARIOS[arg].build()
    path = Path(arg)
    if not path.is_file():
        raise ValidationError(
            f"{preview(arg)} is neither a scenario name nor a readable file; "
            f"scenarios: {', '.join(SCENARIOS)}"
        )
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: {e.reason} at byte {e.start}",
                         preview(arg)) from None
    return parse_text(text)


def _model(obj) -> CanonicalModel:
    """A loaded input as a canonical model; a bare kernel has no equations
    and no population."""
    if isinstance(obj, MechanismKernel):
        return CanonicalModel(obj)
    if isinstance(obj, CanonicalModel):
        return obj
    raise ValidationError(
        f"this command needs a kernel or canonical_model input, got "
        f"{type(obj).__name__}"
    )


def _population(path: str | None) -> Dist | None:
    """The distribution in the file at `path`, or None without one."""
    if path is None:
        return None
    parsed = _load_input(path)
    if not isinstance(parsed, Dist):
        raise ValidationError("the distribution file must hold a distribution")
    return parsed


def _render_text(obj, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    for key, value in obj.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render_text(value, indent + 1))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: {json.dumps(value)}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return lines


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(canonical_json(obj))
    else:
        sys.stdout.write("\n".join(_render_text(obj)) + "\n")


def _write_witness(path: str, digest: str, report: CheckReport, **extra) -> None:
    """Write a replayable witness file for `report`."""
    payload = {
        "type": "witness",
        **report_header(digest),
        "definition": report.definition.value,
        "target_ratio": format_ratio(report.target_ratio),
        "achieved": format_ratio(report.achieved),
        "witness": witness_to_json(report.witness),
        **extra,
    }
    Path(path).write_text(canonical_json(payload), encoding="utf-8")


def _target_ratio(args):
    """`--target-ratio`, read before any work: a ratio bound is positive,
    since its epsilon is its logarithm."""
    target = parse_rational(args.target_ratio, "--target-ratio")
    if target <= 0:
        raise ValidationError(
            f"the target ratio must be positive, got {preview(args.target_ratio)}",
            "--target-ratio",
        )
    return target


# --- subcommand handlers -----------------------------------------------------


def _cmd_epsilon(args) -> int:
    model = _load_input(args.input)
    bound = classic_epsilon(_model(model).kernel)
    _emit(
        {
            "type": "epsilon_report",
            **report_header(input_digest(model)),
            "ratio": format_ratio(bound.value),
            "epsilon": epsilon_of(bound.value),
            "witness": witness_to_json(bound.witness),
        },
        args.format,
    )
    return EXIT_PASS


def _cmd_check(args) -> int:
    try:
        definition = DefinitionId(args.definition)
    except ValueError:
        raise ValidationError(
            f"unknown definition {preview(args.definition)}; one of "
            f"{', '.join(d.value for d in DefinitionId)}"
        ) from None
    target = _target_ratio(args)
    model = _load_input(args.input)
    report = run_check(
        definition,
        _model(model),
        target,
        _population(args.pop),
        cross_check=not args.no_cross_check,
    )
    digest = input_digest(model)
    if args.witness_out:  # first, so a failed write leaves stdout empty
        _write_witness(args.witness_out, digest, report)
    _emit(report_to_json(report, digest), args.format)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_falsify(args) -> int:
    target = _target_ratio(args)
    model = _load_input(args.input)
    canonical = _model(model)
    if canonical.attribute_equations:
        raise ValidationError(
            "falsify searches populations for a bare kernel; remove the "
            "attribute equations"
        )
    if args.budget < 2:
        raise ValidationError(
            "--budget must be at least 2: at budget 1 every candidate is a point "
            "mass, under which bayesian0 skips every comparison"
        )
    outcome = falsify_bayesian0(canonical.kernel, target, search_budget=args.budget)
    digest = input_digest(model)
    if args.witness_out and outcome.found:
        _write_witness(
            args.witness_out, digest, outcome.report,
            population=serialize_distribution(outcome.population),
        )
    _emit(falsification_to_json(outcome, digest), args.format)
    return EXIT_FAIL if outcome.found else EXIT_NOT_FOUND


def _cmd_posterior(args) -> int:
    model = _load_input(args.input)
    given = _model(model).given(_population(args.prior))
    if given.population is None:
        raise MissingPopulation(
            "provide --prior or an input that embeds a population"
        )
    kernel, prior = given.kernel, given.data_joint
    observe = parse_value(args.observe, "--observe")
    if (args.force_point is None) != (args.force_value is None):
        raise ValidationError(
            "--force-point and --force-value must be given together"
        )
    out = {
        "type": "posterior_report",
        **report_header(input_digest(model)),
        "observation": value_to_json(observe),
        "prior": serialize_distribution(prior),
        "posterior": serialize_distribution(posterior(kernel, prior, observe)),
    }
    if args.force_point is not None:
        value = parse_value(args.force_value, "--force-value")
        forced = posterior_under_intervention(
            kernel, prior, args.force_point, value, observe
        )
        gap = semantic_gap(kernel, prior, args.force_point, value)
        out.update(
            {
                "forced_point": args.force_point,
                "forced_value": value_to_json(value),
                "posterior_forced": serialize_distribution(forced),
                "semantic_gap": format_ratio(gap.value),
                "semantic_gap_epsilon": epsilon_of(gap.value),
                "gap_witness": witness_to_json(gap.witness),
            }
        )
    _emit(out, args.format)
    return EXIT_PASS


def _cmd_compose(args) -> int:
    model = _load_input(args.input)
    if not isinstance(model, CompositionSpec):
        raise ValidationError(
            f"compose needs a composition input, got {type(model).__name__}"
        )
    wired = compose_sequential(model.first, model.second, model.x, model.y1, model.y2)
    report = check_composition(wired, model.ratio1, model.ratio2)
    _emit(report_to_json(report, input_digest(model)), args.format)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_scenarios(args) -> int:
    if args.action == "list":
        if args.format == "json":
            _emit(
                {
                    "type": "scenario_list",
                    "scenarios": [
                        {"name": s.name, "description": s.description}
                        for s in SCENARIOS.values()
                    ],
                },
                "json",
            )
        else:
            for s in SCENARIOS.values():
                sys.stdout.write(f"{s.name}: {s.description}\n")
        return EXIT_PASS
    # run-all
    if not args.out:
        raise ValidationError("scenarios run-all needs --out DIR")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, scenario in SCENARIOS.items():
        text = canonical_json(scenario.run())
        (out_dir / f"{name}.json").write_text(text, encoding="utf-8")
        sys.stdout.write(f"wrote {out_dir / f'{name}.json'}\n")
    return EXIT_PASS


# --- parser --------------------------------------------------------------------


def _add_epsilon(sub, fmt) -> None:
    p = sub.add_parser(
        "epsilon", parents=[fmt],
        help="worst-case single-point row ratio of a mechanism",
    )
    p.add_argument("input", help="scenario name or model file")
    p.set_defaults(handler=_cmd_epsilon)


def _add_check(sub, fmt) -> None:
    p = sub.add_parser(
        "check", parents=[fmt], help="run one privacy definition at a target ratio",
    )
    p.add_argument("definition", help="definition identifier")
    p.add_argument("input", help="scenario name or model file")
    p.add_argument("--target-ratio", required=True,
                   help='ratio bound to check against, e.g. "2" or "9/4"')
    p.add_argument("--pop", help="population distribution file (bare kernels only)")
    p.add_argument("--no-cross-check", action="store_true",
                   help="skip re-deriving interventional answers by enumeration")
    p.add_argument("--witness-out", help="write a replayable witness file")
    p.set_defaults(handler=_cmd_check)


def _add_falsify(sub, fmt) -> None:
    p = sub.add_parser(
        "falsify", parents=[fmt],
        help="search populations for a conditional-definition violation",
    )
    p.add_argument("input", help="scenario name or model file")
    p.add_argument("--target-ratio", required=True)
    p.add_argument("--budget", type=int, default=4,
                   help="max denominator of searched population weights")
    p.add_argument("--witness-out", help="write a replayable witness file")
    p.set_defaults(handler=_cmd_falsify)


def _add_posterior(sub, fmt) -> None:
    p = sub.add_parser(
        "posterior", parents=[fmt],
        help="Bayesian adversary update, optionally against a forced point",
    )
    p.add_argument("input", help="scenario name or model file")
    p.add_argument("--prior", help="prior distribution file")
    p.add_argument("--observe", required=True,
                   help="observed output as a JSON fragment, e.g. 1 or \"pos\"")
    p.add_argument("--force-point", type=int,
                   help="1-based data point forced in the comparison world")
    p.add_argument("--force-value", help="value forced, as a JSON fragment")
    p.set_defaults(handler=_cmd_posterior)


def _add_compose(sub, fmt) -> None:
    p = sub.add_parser(
        "compose", parents=[fmt],
        help="verify a two-stage composition against its per-stage claims",
    )
    p.add_argument("input", help="scenario name or composition file")
    p.set_defaults(handler=_cmd_compose)


def _add_scenarios(sub, fmt) -> None:
    p = sub.add_parser("scenarios", parents=[fmt], help="list or run the bundled scenarios")
    p.add_argument("action", choices=("list", "run-all"))
    p.add_argument("--out", help="directory for run-all report files")
    p.set_defaults(handler=_cmd_scenarios)


# each subcommand's parser, in the order the help lists them
SUBCOMMANDS = {
    "epsilon": _add_epsilon,
    "check": _add_check,
    "falsify": _add_falsify,
    "posterior": _add_posterior,
    "compose": _add_compose,
    "scenarios": _add_scenarios,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser: the whole tree, or only `command`'s subparser
    when it names a subcommand.  The one-command tree prints the same usage
    line; every message that lists the subcommands (help, a missing or
    unknown command) comes from the whole tree."""
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("json", "text"), default="json",
        help="output format (default: json, canonical and byte-stable)",
    )
    parser = argparse.ArgumentParser(
        prog="causaldp",
        description=(
            "Exact checkers for privacy definitions over finite mechanisms: "
            "conditional and interventional variants, effect-ratio bounds, "
            "composition, and Bayesian adversaries."
        ),
    )
    names = (command,) if command in SUBCOMMANDS else tuple(SUBCOMMANDS)
    # a one-command tree still names every subcommand in its usage line
    metavar = "{" + ",".join(SUBCOMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        SUBCOMMANDS[name](sub, fmt)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; that code means "search found
        # nothing" here, so usage problems are remapped to invalid-input
        return EXIT_PASS if e.code in (0, None) else EXIT_INVALID
    try:
        return args.handler(args)
    except (PremiseViolated, ZeroEvidence) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except CausalDpError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except CrossCheckMismatch as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CROSS_CHECK
    except OSError as e:  # a path that cannot be read or written
        where = "" if e.filename is None else f": {preview(e.filename)}"
        print(f"error: {e.strerror or type(e).__name__}{where}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
