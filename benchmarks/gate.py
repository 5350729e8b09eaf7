"""Correctness gate: checks a job's output against the expectations that
`inputs` attached to it.  Runs outside every timed region.

Witnesses are replayed through `causaldp.checkers.replay_witness`, which
recomputes a ratio on the generic model semantics rather than the closed
forms the checkers use.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from causaldp.checkers import replay_witness
from causaldp.mechanisms import CanonicalModel
from causaldp.modelfile import parse_distribution, parse_text, witness_from_json
from causaldp.reports import NEEDS_POPULATION, DefinitionId
from causaldp.scenarios import SCENARIOS

from inputs import Job, frac


def ratio_of(text: str):
    return math.inf if text == "inf" else Fraction(text)


def _option(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _load(arg: str):
    if arg in SCENARIOS:
        return SCENARIOS[arg].build()
    return parse_text(Path(arg).read_text(encoding="utf-8"))


def _model(arg: str):
    """(kernel, attribute equations, embedded population) of an input."""
    model = _load(arg)
    if isinstance(model, CanonicalModel):
        return model.kernel, model.attribute_equations, model.population
    return model, (), None


def _replay(definition: str, argv: list[str], witness: dict, population=None):
    kernel, attr, embedded = _model(argv[1] if argv[0] != "check" else argv[2])
    if population is None and DefinitionId(definition) in NEEDS_POPULATION:
        pop_file = _option(argv, "--pop")
        population = _load(pop_file) if pop_file else embedded
    return replay_witness(
        DefinitionId(definition), kernel, witness_from_json(witness), population, attr
    )


def _weights(dist: dict) -> dict[tuple, str]:
    return {tuple(point): w for point, w in dist["weights"]}


def _check_report(job: Job, data: dict, code: int | None) -> list[str]:
    problems = []
    if data.get("type") != "check_report":
        return [f"expected a check_report, got {data.get('type')!r}"]
    achieved = ratio_of(data["achieved"])
    if job.achieved is not None and data["achieved"] != frac(job.achieved):
        problems.append(f"achieved {data['achieved']}, expected {frac(job.achieved)}")
    if job.at_most is not None and achieved > job.at_most:
        problems.append(f"achieved {data['achieved']} above the bound {frac(job.at_most)}")
    target = ratio_of(data["target_ratio"])
    asked = _option(job.argv, "--target-ratio")
    if asked is not None and target != ratio_of(asked):
        problems.append(f"target {data['target_ratio']}, asked for {asked}")
    passed = achieved <= target
    if data["passed"] is not passed:
        problems.append(f"passed={data['passed']} but achieved {data['achieved']}")
    want = job.exit if job.exit is not None else (0 if passed else 1)
    if code != want:
        problems.append(f"exit {code}, expected {want}")
    if data["witness"] is None:
        if achieved > 1:
            problems.append("no witness for a ratio above 1")
    elif job.argv[0] == "check":
        replayed = _replay(job.argv[1], job.argv, data["witness"])
        if replayed != achieved:
            problems.append(f"witness replays to {replayed}, report says {achieved}")
    return problems


def _epsilon(job: Job, data: dict, code: int | None) -> list[str]:
    problems = []
    if code != job.exit:
        problems.append(f"exit {code}, expected {job.exit}")
    if data.get("ratio") != frac(job.achieved):
        problems.append(f"ratio {data.get('ratio')}, expected {frac(job.achieved)}")
    elif _replay("classic", job.argv, data["witness"]) != job.achieved:
        problems.append("epsilon witness does not replay")
    return problems


def _falsify(job: Job, data: dict, code: int | None, files) -> list[str]:
    problems = []
    if code != job.exit:
        problems.append(f"exit {code}, expected {job.exit}")
    if data.get("type") != "falsification_report":
        return problems + ["expected a falsification_report"]
    if job.candidates is not None:
        if data["found"] or data["candidates_tried"] != job.candidates:
            problems.append(
                f"found={data['found']} after {data['candidates_tried']} candidates, "
                f"expected an exhausted search of {job.candidates}"
            )
    if data["found"]:
        saved = files.get(job.files[0]) if job.files else None
        if saved is None:
            return problems + ["violation found but no witness file written"]
        witness = json.loads(saved)
        achieved = ratio_of(witness["achieved"])
        if witness["achieved"] != data["report"]["achieved"]:
            problems.append("witness file and report disagree on achieved")
        if achieved <= ratio_of(_option(job.argv, "--target-ratio")):
            problems.append("reported violation does not exceed the target")
        population = parse_distribution(witness["population"])
        replayed = _replay(witness["definition"], job.argv, witness["witness"], population)
        if replayed != achieved:
            problems.append(f"witness file replays to {replayed}, says {achieved}")
    return problems


def _posterior(job: Job, data: dict, code: int | None) -> list[str]:
    problems = []
    if code != job.exit:
        problems.append(f"exit {code}, expected {job.exit}")
    for key, want in job.posterior.items():
        if _weights(data[key]) != want:
            problems.append(f"{key} differs from Bayes' rule on the generated table")
    if ratio_of(data["semantic_gap"]) > job.at_most:
        problems.append(f"semantic gap {data['semantic_gap']} above {frac(job.at_most)}")
    return problems


def _run_all(job: Job, code: int | None, files) -> list[str]:
    problems = [] if code == job.exit else [f"exit {code}, expected {job.exit}"]
    for path in job.files:
        saved = files.get(path)
        if saved is None:
            problems.append(f"{path} not written")
            continue
        report = json.loads(saved)
        if report.get("type") != "scenario_report" or \
                f"{report.get('scenario')}.json" != Path(path).name:
            problems.append(f"{path} is not its scenario's report")
    return problems


def verify(job: Job, result) -> list[str]:
    """Problems with one `run.Result`; an empty list means the output is
    correct."""
    if result.code is None:
        return [f"raised: {result.stderr.strip().splitlines()[-1:]}"]
    command = job.argv[0]
    try:
        if command == "scenarios":
            return _run_all(job, result.code, result.files)
        data = json.loads(result.stdout)
        if command == "epsilon":
            return _epsilon(job, data, result.code)
        if command == "falsify":
            return _falsify(job, data, result.code, result.files)
        if command == "posterior":
            return _posterior(job, data, result.code)
        return _check_report(job, data, result.code)
    except Exception as e:  # malformed output fails the job, not the run
        return [f"exit {result.code}; output not checkable: {e!r}"]
