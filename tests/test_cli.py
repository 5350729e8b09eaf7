"""Command line behavior: exit codes, formats, determinism, witness files."""

import hashlib
import json
import sys
from fractions import Fraction as F
from functools import cached_property

import pytest

import causaldp as c
from causaldp import cli
from causaldp.cli import main
from causaldp.modelfile import (
    canonical_json,
    load_strict_json,
    parse_kernel,
    parse_text,
    serialize_input,
    witness_from_json,
)
from conftest import unchecked_dist

RR_TEXT = '{"type": "kernel", "builtin": "randomized_response", "n": 2, "bias": "2/3"}\n'
HV_TEXT = '{"type": "kernel", "builtin": "hidden_value"}\n'
HP_TEXT = '{"type": "kernel", "builtin": "hidden_pair"}\n'


@pytest.fixture
def rr_file(tmp_path):
    p = tmp_path / "rr.json"
    p.write_text(RR_TEXT, encoding="utf-8")
    return str(p)


@pytest.fixture
def hv_file(tmp_path):
    p = tmp_path / "hv.json"
    p.write_text(HV_TEXT, encoding="utf-8")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# --- exit codes ------------------------------------------------------------------


def test_epsilon_reports_and_exits_zero(capsys, rr_file):
    code, out = run(capsys, "epsilon", rr_file)
    assert code == 0
    blob = json.loads(out)
    assert blob["type"] == "epsilon_report"
    assert blob["ratio"] == "2/1"
    assert blob["epsilon"] == "0.6931"


def test_check_pass_exits_zero(capsys, rr_file):
    code, out = run(capsys, "check", "classic", rr_file, "--target-ratio", "2/1")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_check_fail_exits_one_with_witness(capsys, rr_file):
    code, out = run(capsys, "check", "classic", rr_file, "--target-ratio", "3/2")
    assert code == 1
    blob = json.loads(out)
    assert blob["passed"] is False
    assert blob["witness"] is not None


def test_falsify_found_exits_one(capsys, rr_file):
    code, out = run(capsys, "falsify", rr_file, "--target-ratio", "2/1",
                    "--budget", "2")
    assert code == 1
    blob = json.loads(out)
    assert blob["found"] is True
    assert blob["report"]["achieved"] == "9/4"


def test_falsify_not_found_exits_two(capsys, rr_file):
    code, out = run(capsys, "falsify", rr_file, "--target-ratio", "4/1",
                    "--budget", "2")
    assert code == 2
    blob = json.loads(out)
    assert blob["found"] is False
    assert blob["candidates_tried"] == 39


def test_zero_evidence_exits_three(capsys, tmp_path):
    kernel = tmp_path / "hp.json"
    kernel.write_text(HP_TEXT, encoding="utf-8")
    prior = tmp_path / "prior.json"
    prior.write_text(canonical_json(serialize_input(
        c.Dist.point_mass(("D_1", "D_2"), (2, 2))
    )), encoding="utf-8")
    code, out = run(capsys, "posterior", str(kernel), "--prior", str(prior),
                    "--observe", "1")
    assert code == 3


def test_premise_violation_exits_three(capsys, tmp_path):
    comp = tmp_path / "comp.json"
    comp.write_text(COMPOSITION_TEXT, encoding="utf-8")
    code, _ = run(capsys, "compose", str(comp))
    assert code == 3


@pytest.mark.parametrize("definition, message", [
    ("whole_db_universal", "closed form disagrees with enumeration under "
                           "do([('D_1', 0), ('D_2', 0)]) at output 0: 1/2 vs 1/4"),
    ("single_point_universal", "point-mass reduction failed at i=1, "
                               "others=(0,), v=0"),
], ids=["whole_db_universal", "single_point_universal"])
def test_a_cross_check_mismatch_exits_five(capsys, tmp_path, monkeypatch,
                                           definition, message):
    """An oracle whose every lift is worth half is a fault in the package,
    not a failed check: exit 5, one `error:` line on stderr, nothing on
    stdout and no witness file."""
    honest = c.ProbabilisticSem.lift

    def halved(self, variables):
        scale, cells = honest(self, variables).integer_table
        return unchecked_dist(variables, (2 * scale, cells))

    monkeypatch.setattr(c.ProbabilisticSem, "lift", halved)
    witness = tmp_path / "w.json"
    code = main(["check", definition, "hidden_pair", "--target-ratio", "2",
                 "--witness-out", str(witness)])
    assert (code, *capsys.readouterr()) == (5, "", f"error: {message}\n")
    assert not witness.exists()


def test_parse_error_exits_four(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "kernel", "builtin": "randomized_response", '
                   '"n": 2, "bias": 0.5}\n', encoding="utf-8")
    code, _ = run(capsys, "epsilon", str(bad))
    assert code == 4


def test_missing_file_exits_four(capsys):
    code, _ = run(capsys, "epsilon", "no_such_scenario_or_file")
    assert code == 4


def test_usage_error_exits_four(capsys, rr_file):
    code = main(["check", "classic", rr_file])  # --target-ratio missing
    assert code == 4


def test_unknown_definition_exits_four(capsys, rr_file):
    code, _ = run(capsys, "check", "no_such_definition", rr_file,
                  "--target-ratio", "2/1")
    assert code == 4


@pytest.mark.parametrize("argv", [
    ["check", "classic"], ["falsify"],
], ids=["check", "falsify"])
@pytest.mark.parametrize("target", ["0", "0/5", "-1"])
@pytest.mark.parametrize("source", ["randomized_response", "no_such_scenario_or_file"])
def test_non_positive_target_exits_four_before_reading_the_input(capsys, argv, target,
                                                                 source):
    # the target is read first: a missing input is never reached
    code = main([*argv, source, "--target-ratio", target])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err == (f"error: the target ratio must be positive, got '{target}' "
                   f"(at --target-ratio)\n")


def test_target_below_one_still_checks(capsys, rr_file):
    code, out = run(capsys, "check", "classic", rr_file, "--target-ratio", "1/2")
    assert code == 1
    assert json.loads(out)["epsilon_target"] == "-0.6931"


@pytest.mark.parametrize("argv, text, location", [
    (["epsilon", "{file}"], lambda big: json.dumps(
        {"type": "kernel", "n": 1, "data_domain": [0, 1], "null_value": 0,
         "output_domain": ["h", "t"], "table": [[[0], [["h", "1/2"], ["t", "1/2"]]],
                                                [[1], [["h", big], ["t", "1/2"]]]]}),
     "kernel.table[1][1][0][1]"),
    (["check", "bayesian0", "randomized_response", "--target-ratio", "2", "--pop",
      "{file}"], lambda big: json.dumps(
        {"type": "distribution", "variables": ["D_1", "D_2"],
         "weights": [[["pos", "pos"], "1/" + big], [["pos", "neg"], "1"]]}),
     "distribution.weights[0][1]"),
    (["epsilon", "{file}"], lambda big: RR_TEXT.replace('"2/3"', f'"{big}/3"'),
     "kernel.bias"),
    (["check", "classic", "randomized_response", "--target-ratio", "{big}"], None,
     "--target-ratio"),
], ids=["kernel_cell", "distribution_weight", "builtin_bias", "target_ratio"])
def test_oversized_rational_exits_four_at_its_location(capsys, tmp_path, argv, text,
                                                        location):
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        pytest.skip("this Python converts integers of any length")
    big = "1" * (limit + 1)
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text(big), encoding="utf-8")
    code = main([arg.format(file=path, big=big) for arg in argv])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err.startswith("error: rational str '1")
    assert err.endswith(f"is too long: an integer may have at most {limit} digits "
                        f"(at {location})\n")


def test_help_exits_zero(capsys):
    code = main(["--help"])
    assert code == 0
    assert "causaldp" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["-h"],
    *([command, "-h"] for command in cli.SUBCOMMANDS),
    [],
    ["no_such_command"],
    ["check", "classic"],
    ["epsilon", "randomized_response", "--format", "yaml"],
    ["scenarios", "no_such_action"],
    ["epsilon", "randomized_response", "extra"],
], ids=repr)
def test_one_subcommand_parser_prints_what_the_whole_tree_prints(capsys, monkeypatch,
                                                                 argv):
    """`main` builds only the subparser `argv[0]` names; usage, help and
    errors are byte-identical to the whole tree's."""
    code = main(argv)
    printed = capsys.readouterr()
    whole_tree = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: whole_tree())
    assert (main(argv), capsys.readouterr()) == (code, printed)
    assert code in (0, 4)


def test_main_builds_only_the_named_subparser(monkeypatch):
    built = []

    def recorded(name, add):
        def wrapper(sub, fmt):
            built.append(name)
            add(sub, fmt)

        return wrapper

    for name, add in list(cli.SUBCOMMANDS.items()):
        monkeypatch.setitem(cli.SUBCOMMANDS, name, recorded(name, add))
    assert main(["scenarios", "list", "--format", "text"]) == 0
    assert built == ["scenarios"]
    built.clear()
    assert main(["--help"]) == 0
    assert built == list(cli.SUBCOMMANDS)
    built.clear()
    cli.build_parser()
    assert built == list(cli.SUBCOMMANDS)


# --- population plumbing ----------------------------------------------------------


def test_population_required_definition_needs_pop(capsys, rr_file):
    code, _ = run(capsys, "check", "bayesian0", rr_file, "--target-ratio", "2/1")
    assert code == 4


def test_pop_flag_enables_population_definitions(capsys, rr_file, tmp_path):
    pop = tmp_path / "pop.json"
    points = [(a, b) for a in ("pos", "neg") for b in ("pos", "neg")]
    pop.write_text(canonical_json(serialize_input(
        c.Dist.uniform(("D_1", "D_2"), points)
    )), encoding="utf-8")
    code, out = run(capsys, "check", "bayesian0", rr_file,
                    "--target-ratio", "2/1", "--pop", str(pop))
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_pop_flag_rejected_for_population_free_definition(capsys, rr_file, tmp_path):
    pop = tmp_path / "pop.json"
    pop.write_text(canonical_json(serialize_input(
        c.Dist.uniform(("D_1", "D_2"),
                       [(a, b) for a in ("pos", "neg") for b in ("pos", "neg")])
    )), encoding="utf-8")
    code, _ = run(capsys, "check", "classic", rr_file,
                  "--target-ratio", "2/1", "--pop", str(pop))
    assert code == 4


def test_embedded_population_is_model_context(capsys, tmp_path):
    # ada scenario embeds a population; population-free checks still run
    code, out = run(capsys, "check", "classic", "ada_byron",
                    "--target-ratio", "2/1")
    assert code == 0
    code, out = run(capsys, "check", "bayesian0", "ada_byron",
                    "--target-ratio", "4/1")
    assert code == 0
    code, out = run(capsys, "check", "bayesian0", "ada_byron",
                    "--target-ratio", "2/1")
    assert code == 1
    assert json.loads(out)["achieved"] == "4/1"


def _counting(monkeypatch, module, name) -> list:
    """Wrap `module.name` for this test; returns the list of its calls."""
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _counting_builds(monkeypatch, name) -> list:
    """Wrap the cached property `CanonicalModel.name` for this test; returns
    the list of the models it was built for.  A bare kernel's own model,
    which every cross-checking engine on the kernel shares
    (`MechanismKernel._uniform`), is not counted."""
    calls = []
    inner = vars(c.CanonicalModel)[name].func

    def counted(model):
        if model.attribute_equations or model.population is not None:
            calls.append(model)
        return inner(model)

    built = cached_property(counted)
    built.__set_name__(c.CanonicalModel, name)
    monkeypatch.setattr(c.CanonicalModel, name, built)
    return calls


def test_a_canonical_model_file_builds_its_model_once(capsys, tmp_path, monkeypatch):
    """Parsing a `canonical_model` with attribute equations builds and
    validates its release model; the command reuses that model."""
    path = tmp_path / "ada.json"
    path.write_text(canonical_json(serialize_input(c.SCENARIOS["ada_byron"].build())),
                    encoding="utf-8")
    built = _counting_builds(monkeypatch, "psem")
    for argv in (
        ("check", "bayesian0", str(path), "--target-ratio", "4/1"),
        ("check", "classic", str(path), "--target-ratio", "2/1"),
        ("check", "single_point_intervention", str(path), "--target-ratio", "2/1"),
        ("posterior", str(path), "--observe", "1"),
    ):
        built.clear()
        assert run(capsys, *argv)[0] == 0
        assert len(built) == 1, argv


def test_embedded_plus_flag_population_rejected(capsys, tmp_path):
    pop = tmp_path / "pop.json"
    pop.write_text(canonical_json(serialize_input(
        c.Dist.uniform(("R_1",), [("pos",), ("neg",)])
    )), encoding="utf-8")
    code, _ = run(capsys, "check", "bayesian0", "ada_byron",
                  "--target-ratio", "4/1", "--pop", str(pop))
    assert code == 4


# Which population each definition sees, for every kind of input: what
# `run_check` raises (None for a report) with and without `--pop`.
_POPULATION_RULES = [
    ("kernel", False, "classic", None),
    ("kernel", False, "bayesian0", c.MissingPopulation),
    ("kernel", True, "classic", c.UnexpectedPopulation),
    ("kernel", True, "bayesian0", None),
    ("model", False, "classic", None),
    ("model", False, "bayesian0", c.MissingPopulation),
    ("model", True, "classic", c.UnexpectedPopulation),
    ("model", True, "bayesian0", None),
    ("embedded", False, "classic", None),
    ("embedded", False, "bayesian0", None),
    ("embedded", True, "classic", c.UnexpectedPopulation),
    ("embedded", True, "bayesian0", c.ValidationError),
]


@pytest.mark.parametrize("kind, flag, definition, raised", _POPULATION_RULES)
def test_population_rules_agree_between_run_check_and_the_cli(
        capsys, tmp_path, kind, flag, definition, raised):
    uniform = c.Dist.uniform(("D_1", "D_2"), [(a, b) for a in _DOM for b in _DOM])
    text = {"kernel": RR_TEXT, "model": _model_text(),
            "embedded": _model_text(population=uniform)}[kind]
    path, pop_path = tmp_path / "input.json", tmp_path / "pop.json"
    path.write_text(text, encoding="utf-8")
    pop_path.write_text(canonical_json(serialize_input(uniform)), encoding="utf-8")
    argv = ["check", definition, str(path), "--target-ratio", "2"]
    argv += ["--pop", str(pop_path)] if flag else []

    code = main(argv)
    out, err = capsys.readouterr()
    try:
        report = c.run_check(c.DefinitionId(definition), parse_text(text), F(2),
                             uniform if flag else None)
    except c.CausalDpError as e:
        assert type(e) is raised
        assert (code, out, err) == (4, "", f"error: {e}\n")
        return
    assert raised is None
    assert code == (0 if report.passed else 1)
    assert json.loads(out)["achieved"] == c.format_ratio(report.achieved)


def test_a_population_reaches_run_check_the_same_way_by_every_route():
    kernel = c.randomized_response_kernel(2, F(2, 3))
    pop = c.Dist.uniform(("R_1", "R_2"), list(kernel.databases()))
    for definition in sorted(c.NEEDS_POPULATION):
        by_flag = c.run_check(definition, kernel, F(2), pop)
        assert c.run_check(definition, c.CanonicalModel(kernel, (), pop), F(2)) \
            == by_flag
        assert c.run_check(definition, c.CanonicalModel(kernel), F(2), pop) \
            == by_flag


def test_a_parsed_population_is_resolved_once(capsys, tmp_path, monkeypatch):
    """The data joint a `canonical_model` file is validated with is the one
    its check reads."""
    uniform = c.Dist.uniform(("D_1", "D_2"), [(a, b) for a in _DOM for b in _DOM])
    path = tmp_path / "model.json"
    path.write_text(_model_text(population=uniform), encoding="utf-8")
    resolved = _counting_builds(monkeypatch, "data_joint")
    assert run(capsys, "check", "bayesian0", str(path), "--target-ratio", "9/4")[0] == 0
    assert len(resolved) == 1


def test_a_scenario_builds_its_release_model_once(monkeypatch):
    built = _counting_builds(monkeypatch, "psem")
    c.SCENARIOS["ada_byron"].run()
    assert len(built) == 1


def test_a_flag_population_keeps_the_parsed_attribute_graph(capsys, tmp_path, monkeypatch):
    """A `canonical_model` with attribute equations and no population is
    checked once when parsed; `--pop` completes that model, so its graph is
    not checked again: the kernel's own graph and the attribute graph, two
    checks in all."""
    ada = c.SCENARIOS["ada_byron"].build()
    path, pop = tmp_path / "ada.json", tmp_path / "pop.json"
    path.write_text(canonical_json(serialize_input(
        c.CanonicalModel(ada.kernel, ada.attribute_equations))), encoding="utf-8")
    pop.write_text(canonical_json(serialize_input(ada.population)), encoding="utf-8")
    checked = _counting(monkeypatch, c.Sem, "_check_equations")
    code, out = run(capsys, "check", "bayesian0", str(path), "--target-ratio", "4/1",
                    "--pop", str(pop))
    assert (code, json.loads(out)["achieved"]) == (0, "4/1")
    assert len(checked) == 2


def test_a_cross_checked_scenario_resolves_its_population_once(monkeypatch):
    """hidden_pair's cross-checks build its release model from the data
    joint its closed forms read, so a run resolves (defaults, renames and
    domain-checks) the scenario's population once, in
    `CanonicalModel.data_joint`, whichever of the two is read first."""
    scenario = c.SCENARIOS["hidden_pair"]
    resolved = _counting_builds(monkeypatch, "data_joint")
    scenario.run()
    assert len(resolved) == 1
    model = scenario.build()
    model.psem
    assert resolved[1:] == [model]
    scenario.reports(model)
    assert resolved[1:] == [model]


# --- posterior command ------------------------------------------------------------


def test_posterior_plain_and_forced(capsys, rr_file, tmp_path):
    prior = tmp_path / "prior.json"
    prior.write_text(canonical_json(serialize_input(
        c.Dist.from_weights(("D_1",), {("pos",): F(4, 5), ("neg",): F(1, 5)})
    )), encoding="utf-8")
    kernel = tmp_path / "rr1.json"
    kernel.write_text('{"type": "kernel", "builtin": "randomized_response", '
                      '"n": 1, "bias": "2/3"}\n', encoding="utf-8")
    code, out = run(capsys, "posterior", str(kernel), "--prior", str(prior),
                    "--observe", '["pos"]')
    assert code == 0
    blob = json.loads(out)
    posterior = {tuple(pt): w for pt, w in blob["posterior"]["weights"]}
    assert posterior[("pos",)] == "8/9"

    code, out = run(capsys, "posterior", str(kernel), "--prior", str(prior),
                    "--observe", '["pos"]', "--force-point", "1",
                    "--force-value", '"pos"')
    assert code == 0
    blob = json.loads(out)
    forced = {tuple(pt): w for pt, w in blob["posterior_forced"]["weights"]}
    assert forced[("pos",)] == "4/5"
    assert blob["semantic_gap"] == "9/5"
    assert blob["gap_witness"]["direction"] == "forced_over_plain"


def test_posterior_force_flags_must_pair(capsys, rr_file, tmp_path):
    prior = tmp_path / "prior.json"
    prior.write_text(canonical_json(serialize_input(
        c.Dist.uniform(("D_1", "D_2"),
                       [(a, b) for a in ("pos", "neg") for b in ("pos", "neg")])
    )), encoding="utf-8")
    code, _ = run(capsys, "posterior", rr_file, "--prior", str(prior),
                  "--observe", '["pos", "pos"]', "--force-point", "1")
    assert code == 4


def test_posterior_on_a_prior_over_other_names_exits_four(capsys, tmp_path):
    prior = tmp_path / "prior.json"
    prior.write_text(canonical_json(serialize_input(
        c.Dist.uniform(("X",), [("pos",), ("neg",)])
    )), encoding="utf-8")
    kernel = tmp_path / "rr1.json"
    kernel.write_text('{"type": "kernel", "builtin": "randomized_response", '
                      '"n": 1, "bias": "2/3"}\n', encoding="utf-8")
    code = main(["posterior", str(kernel), "--prior", str(prior), "--observe", '["pos"]'])
    assert code == 4
    assert "exogenous variables are ('R_1',)" in capsys.readouterr().err


@pytest.mark.parametrize("force", [[], ["--force-point", "2", "--force-value", '"neg"']],
                         ids=["plain", "forced"])
def test_posterior_prints_a_prior_over_the_data_points(capsys, rr_file, tmp_path, force):
    # the names a prior file uses do not reach the report
    weights = {("pos", "neg"): F(1, 2), ("neg", "neg"): F(1, 3), ("null", "pos"): F(1, 6)}
    outs = []
    for names in (("D_1", "D_2"), ("R_1", "R_2")):
        prior = tmp_path / f"{names[0]}.json"
        prior.write_text(canonical_json(serialize_input(c.Dist.from_weights(names, weights))),
                         encoding="utf-8")
        code, out = run(capsys, "posterior", rr_file, "--prior", str(prior),
                        "--observe", '["pos", "neg"]', *force)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["prior"]["variables"] == ["D_1", "D_2"]


# --- hostile inputs ----------------------------------------------------------------


def _exits_four_at(capsys, argv, location):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 4
    assert f"(at {location}" in err
    assert "Traceback" not in err
    return err


# 200 arrays reach the value reader; 5000 overflow the JSON decoder; near
# 960 either can give up first, depending on how deep the caller's stack is.
@pytest.mark.parametrize("depth, location", [
    (200, "distribution.weights[0][0]" + "[0]" * 32 + ")"),
    (960, ""),
    (5000, "top level)"),
])
def test_deeply_nested_file_is_a_parse_error(capsys, tmp_path, depth, location):
    path = tmp_path / "deep.json"
    key = "[" * depth + "0" + "]" * depth
    path.write_text('{"type": "distribution", "variables": ["A"], '
                    f'"weights": [[{key}, "1"]]}}', encoding="utf-8")
    _exits_four_at(capsys, ["epsilon", str(path)], location)


def test_deeply_nested_observation_is_a_parse_error(capsys, rr_file, tmp_path):
    prior = tmp_path / "prior.json"
    prior.write_text(canonical_json(serialize_input(
        c.Dist.point_mass(("D_1", "D_2"), ("pos", "pos"))
    )), encoding="utf-8")
    observe = "[" * 5000 + "]" * 5000
    _exits_four_at(capsys, ["posterior", rr_file, "--prior", str(prior),
                            "--observe", observe], "top level")


@pytest.mark.parametrize("builtin", [
    '"randomized_response", "bias": "2/3"', '"geometric_count", "ratio": "1/2"',
])
@pytest.mark.parametrize("n", [-1, 0])
def test_builtin_with_no_data_points_exits_four(capsys, tmp_path, builtin, n):
    path = tmp_path / "k.json"
    path.write_text(f'{{"type": "kernel", "builtin": {builtin}, "n": {n}}}',
                    encoding="utf-8")
    _exits_four_at(capsys, ["epsilon", str(path)], "kernel")


_RR = '{"type": "kernel", "builtin": "randomized_response", "n": 2, "bias": "2/3"'


_LONG = "a" * 300_000
_EPSILON = ["epsilon", "{file}"]


def _check_with_pop(definition):
    return ["check", definition, "randomized_response", "--target-ratio", "2",
            "--pop", "{file}"]


def _kernel_text(null_value="x", value=0):
    return json.dumps({
        "type": "kernel", "n": 1, "data_domain": ["x", "y"], "null_value": null_value,
        "output_domain": [0, 1],
        "table": [[["x"], [[0, "1/2"], [1, "1/2"]]], [["y"], [[value, "1"]]]],
    })


_LONG_POP = json.dumps({"type": "distribution", "variables": ["D_1", "D_2"],
                        "weights": [[[_LONG, "pos"], "1"]]})
_LONG_ROW = json.dumps({
    "type": "kernel", "n": 1, "data_domain": ["x", _LONG], "null_value": "x",
    "output_domain": [0, 1],
    "table": [[["x"], [[0, "1/2"], [1, "1/2"]]], [[_LONG], [[0, "1/2"]]]],
})
_UNIFORM_PRIOR = canonical_json(serialize_input(
    c.Dist.uniform(("D_1", "D_2"), [(a, b) for a in ("pos", "neg", "null")
                                    for b in ("pos", "neg", "null")])))
_POSTERIOR = ["posterior", "randomized_response", "--prior", "{file}"]
_CHECK = ["check", "classic", "randomized_response", "--target-ratio", "3/2"]
_NOT_UTF8 = b'{"type": "kernel", "n": 2\xff}'


def _sem_text(target="X", parents=(), rows=(((), ((0, "1"),)),)):
    return json.dumps({"type": "sem", "variables": [["X", [0, 1]]], "equations": [
        {"target": target, "parents": list(parents),
         "rows": [[list(key), [list(cell) for cell in row]] for key, row in rows]}]})


def _model_text(attribute_equations=(), population=None):
    kernel = c.randomized_response_kernel(2, F(2, 3))
    return canonical_json(serialize_input(
        c.CanonicalModel(kernel, tuple(attribute_equations), population)))


_DOM = ("pos", "neg", "null")
_COPY_R2 = c.copy_equation("R_2", "R_1", _DOM)


# Each rejected node is named by its type and a short preview, never echoed,
# and so is an out-of-domain value found once the input is built.
@pytest.mark.parametrize("argv, text, where, message", [
    (_EPSILON, _RR.replace('"n": 2', '"n": ' + json.dumps(list(range(200_000)))) + "}",
     "(at kernel.n",
     "expected an integer, got list [0, 1, 2"),
    (_EPSILON, _RR.replace('"2/3"', '"' + "x" * 300_000 + '"') + "}", "(at kernel.bias",
     "malformed rational str 'xxx"),
    (_EPSILON, _RR + "".join(f', "k{i}": 0' for i in range(100_000)) + "}", "(at kernel",
     "unknown keys ['k0', 'k1'"),
    (_EPSILON, '{"type": "distribution", "variables": ["A"], "weights": '
     + json.dumps([[["y" * 300_000], "1/2"]] * 2) + "}",
     "(at distribution.weights[1][0]", "duplicate point ['yyy"),
    (_EPSILON, '{"type": ["kernel"]}', "(at type", "unknown type ['kernel']"),
    (_EPSILON, '{"type": "kernel", "n": ' + "9" * 5000 + "}", "(at top level",
     "not valid JSON"),
    (_EPSILON, _kernel_text(value=_LONG), "(at kernel",
     "kernel table, row ('y',): value 'aaa"),
    (_EPSILON, _kernel_text(null_value=_LONG), "(at kernel", "null value 'aaa"),
    (_EPSILON, '{"type": "distribution", "variables": ["A"], "weights": '
     + json.dumps([[[_LONG], "-1/2"], [["b"], "3/2"]]) + "}", "(at distribution",
     "weight Fraction(-1, 2) at ('aaa"),
    (_check_with_pop("bayesian0"), _LONG_POP, "outside domain of 'R_1'",
     "input distribution uses 'aaa"),
    (_check_with_pop("whole_db_intervention"), _LONG_POP, "outside domain of 'R_1'",
     "input distribution uses 'aaa"),
    (_EPSILON, _LONG_ROW, "(at kernel", "kernel row ('aaa"),
    (_POSTERIOR + ["--observe", json.dumps(_LONG)], _UNIFORM_PRIOR,
     "is not a possible output of this mechanism", "error: 'aaa"),
    (_POSTERIOR + ["--observe", '["pos", "pos"]', "--force-point", "1",
                   "--force-value", json.dumps(_LONG)], _UNIFORM_PRIOR,
     "not a data value", "error: 'aaa"),
    (["epsilon", "{dir}/" + "p" * 5000], "", "ppp'", "error: File name too long: '"),
    (["epsilon", "{dir}/" + "/".join(["q" * 200] * 10)], "",
     "is neither a scenario name nor a readable file", "error: '/"),
    (_EPSILON, _NOT_UTF8, "k.json')", "not UTF-8 text: invalid start byte"),
    (_check_with_pop("bayesian0"), _NOT_UTF8, "k.json')", "not UTF-8 text"),
    (_CHECK + ["--witness-out", "{file}/w.json"], "", "w.json'", "error: Not a directory"),
    (["scenarios", "run-all", "--out", "{file}/out"], "", "out'",
     "error: Not a directory"),
    (_check_with_pop("bayesian0"), json.dumps({
        "type": "distribution", "variables": [_LONG, "D_2"],
        "weights": [[["pos", "pos"], "1"]]}),
     "model's exogenous variables are ('R_1', 'R_2')", "input distribution is over ('aaa"),
    (_EPSILON, _model_text([_COPY_R2], c.Dist.uniform((_LONG,), [(v,) for v in _DOM])),
     "(at canonical_model)",
     "input distribution is over ('aaa"),
    (_EPSILON, _sem_text(target=_LONG), "(at sem)", "equation targets undeclared 'aaa"),
    (_EPSILON, _sem_text(parents=[_LONG], rows=[((0,), ((0, "1"),))]), "(at sem)",
     "equation for 'X' uses undeclared parent 'aaa"),
    (_EPSILON, _sem_text(target=_LONG, rows=[((), ((0, "1/2"),))]),
     "(at sem.equations[0])", "equation for 'aaa"),
    (_EPSILON, json.dumps({"type": "distribution", "variables": ["A"],
                           "weights": [[[_LONG, "b"], "1"]]}),
     "(at distribution)", "assignment ('aaa"),
    (["check", "d" * 100_000, "randomized_response", "--target-ratio", "2"], "",
     "; one of classic", "unknown definition 'ddd"),
    (_EPSILON, _RR.replace('"2/3"', '"3/4\\n"') + "}", "(at kernel.bias)",
     "malformed rational str '3/4\\n'"),
    (_EPSILON, _RR.replace('"n": 2', '"n": 2, "n": 3') + "}", "error: duplicate key 'n'",
     "duplicate key 'n'"),
], ids=["integer_array", "long_rational", "many_keys", "long_duplicate", "array_tag",
        "overlong_integer", "long_output_value", "long_null_value",
        "long_negative_weight_key", "long_pop_value_bayesian0",
        "long_pop_value_whole_db_intervention", "long_value_row_sum",
        "long_observation", "long_forced_value", "overlong_path", "long_missing_path",
        "non_utf8_input", "non_utf8_pop", "witness_out_under_a_file",
        "run_all_out_under_a_file", "long_pop_variable", "long_input_variable_in_model",
        "long_undeclared_target", "long_undeclared_parent", "long_target_row_sum",
        "long_point_of_wrong_arity", "long_definition", "bias_with_trailing_newline",
        "duplicate_object_key"])
def test_hostile_input_exits_four_with_a_short_message(capsys, tmp_path, argv, text,
                                                       where, message):
    path = tmp_path / "k.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    code = main([arg.format(file=path, dir=tmp_path) for arg in argv])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert "Traceback" not in err
    assert where in err
    assert message in err
    assert len(err.encode("utf-8")) < 1024


def _long_ratio_kernel_text() -> str:
    """A 1-point kernel with rows (1/p, (p-1)/p) and ((q-1)/q, 1/q), where p and
    q have two thirds of the interpreter's digit limit: every input fits, but
    the classic ratio q(p-1)/p has about 4/3 of the limit in its numerator."""
    digits = sys.get_int_max_str_digits() * 2 // 3
    p, q = 10**digits + 1, 10**digits + 3
    return json.dumps({
        "type": "kernel", "n": 1, "data_domain": [0, 1], "null_value": 0,
        "output_domain": ["a", "b"],
        "table": [[[0], [["a", f"1/{p}"], ["b", f"{p - 1}/{p}"]]],
                  [[1], [["a", f"{q - 1}/{q}"], ["b", f"1/{q}"]]]],
    })


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0,
                    reason="no limit on int-to-string conversion")
@pytest.mark.parametrize("argv", [
    ["epsilon", "{k}"],
    ["check", "classic", "{k}", "--target-ratio", "2", "--witness-out", "{w}"],
], ids=["epsilon", "check_classic_witness_out"])
def test_ratio_too_long_to_print_exits_four(capsys, tmp_path, argv):
    """Nothing reaches stdout and no witness file is written."""
    kpath, wpath = tmp_path / "k.json", tmp_path / "w.json"
    kpath.write_text(_long_ratio_kernel_text(), encoding="utf-8")
    code = main([arg.format(k=kpath, w=wpath) for arg in argv])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert "Traceback" not in err
    assert f"an integer may have at most {sys.get_int_max_str_digits()} digits" in err
    assert not wpath.exists()


# --- validation rules reached from a file --------------------------------------------


def _kernel_domains(data_domain, output_domain):
    return json.dumps({"type": "kernel", "n": 1, "data_domain": data_domain,
                       "null_value": 0, "output_domain": output_domain, "table": []})


@pytest.mark.parametrize("text, location, message", [
    (_sem_text().replace("[0, 1]", "[]"), "sem", "domain of 'X' must be nonempty, unique"),
    (_sem_text().replace("[0, 1]", "[0, 0]"), "sem",
     "domain of 'X' must be nonempty, unique"),
    (_sem_text(target="Y"), "sem", "equation targets undeclared 'Y'"),
    (_sem_text(parents=["X"], rows=[((0,), ((0, "1"),)), ((1,), ((1, "1"),))]), "sem",
     "'X' is its own parent"),
    (_sem_text(parents=["Z"], rows=[((0,), ((0, "1"),))]), "sem",
     "equation for 'X' uses undeclared parent 'Z'"),
    (json.dumps({"type": "sem", "variables": [["X", [0, 1]]], "equations": [
        {"target": "X", "parents": [], "rows": [[[], [[0, "1"]]]]}] * 2}),
     "sem.equations[1]", "two equations for 'X'"),
    (json.dumps({"type": "sem", "variables": [["X", [0, 1]]] * 2, "equations": []}),
     "sem.variables[1][0]", "duplicate variable 'X'"),
    (_sem_text(rows=[((0,), ((0, "1"),))]), "sem.equations[0]",
     "equation for 'X', row (0,): key does not match parents ()"),
    (_sem_text(rows=[((), ((0, "-1/2"), (1, "3/2")))]), "sem.equations[0]",
     "equation for 'X', row (): weight Fraction(-1, 2) at 0 is not a nonnegative rational"),
    (_sem_text(rows=[((), ((0, "1/2"), (1, "1/3")))]), "sem.equations[0]",
     "equation for 'X', row (): weights sum to 5/6, expected exactly 1"),
    (_kernel_domains([], [0]), "kernel", "data domain must be nonempty without duplicates"),
    (_kernel_domains([0, 0], [0]), "kernel",
     "data domain must be nonempty without duplicates"),
    (_kernel_domains([0], []), "kernel",
     "output domain must be nonempty without duplicates"),
    (_kernel_domains([0], [1, 1]), "kernel",
     "output domain must be nonempty without duplicates"),
    (_model_text([c.copy_equation("R_2", "D_1", _DOM)]), "canonical_model",
     "attribute equation for 'R_2' uses non-input parents ['D_1']"),
    (_model_text([_COPY_R2, _COPY_R2]), "canonical_model",
     "duplicate attribute equations for ['R_2', 'R_2']"),
    ("[1]", "top level", "top level must be an object"),
], ids=["sem_empty_domain", "sem_duplicate_domain", "sem_undeclared_target",
        "sem_self_parent", "sem_undeclared_parent", "sem_two_equations",
        "sem_duplicate_variable", "equation_key_too_wide", "equation_negative_weight",
        "equation_wrong_sum",
        "kernel_empty_data_domain", "kernel_duplicate_data_domain",
        "kernel_empty_output_domain", "kernel_duplicate_output_domain",
        "attribute_equation_non_input_parent", "duplicate_attribute_equations",
        "top_level_not_an_object"])
def test_file_breaking_a_validation_rule_exits_four(capsys, tmp_path, text, location,
                                                    message):
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    code = main(["epsilon", str(path)])
    err = capsys.readouterr().err
    assert code == 4
    assert "Traceback" not in err
    assert message in err
    assert location in err


# A canonical model is validated when it is parsed, so a check that never
# reads its attribute equations or its population still refuses it.
@pytest.mark.parametrize("text, message", [
    (_model_text([c.StochasticEquation.from_rows("Z", (), {(): {"pos": F(1)}})]),
     "attribute equation targets 'Z'"),
    (_model_text(population=c.Dist.uniform(("X_1", "X_2"), [("pos", "pos")])),
     "input distribution is over ('X_1', 'X_2')"),
    (_model_text([_COPY_R2, _COPY_R2], c.Dist.uniform(("R_1",), [("pos",)])),
     "duplicate attribute equations for ['R_2', 'R_2']"),
], ids=["equation_targets_z", "population_over_x", "two_equations_for_r2"])
@pytest.mark.parametrize("argv", [["epsilon"], ["check", "classic"], ["check", "bayesian0"]],
                         ids=["epsilon", "classic", "bayesian0"])
def test_invalid_canonical_model_exits_four_when_parsed(capsys, tmp_path, text, message,
                                                        argv):
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    extra = ["--target-ratio", "2"] if argv[0] == "check" else []
    err = _exits_four_at(capsys, [*argv, str(path), *extra], "canonical_model")
    assert message in err


def test_attribute_equations_without_a_population_default_to_uniform_inputs(
        capsys, tmp_path):
    # the file is validated under the uniform population over R_1, which is
    # what the engine answers under when no population is given
    path = tmp_path / "model.json"
    path.write_text(_model_text([_COPY_R2]), encoding="utf-8")
    code, out = run(capsys, "epsilon", str(path))
    assert code == 0 and json.loads(out)["ratio"] == "2/1"
    kernel = c.randomized_response_kernel(2, F(2, 3))
    uniform = c.Dist.uniform(("R_1",), [(v,) for v in _DOM])
    assert c.CanonicalModel(kernel, (_COPY_R2,)).data_joint \
        == c.CanonicalModel(kernel, (_COPY_R2,), uniform).data_joint


# --- witness files -----------------------------------------------------------------


def test_witness_file_replays(capsys, rr_file, tmp_path):
    wpath = tmp_path / "w.json"
    code, _ = run(capsys, "check", "classic", rr_file,
                  "--target-ratio", "3/2", "--witness-out", str(wpath))
    assert code == 1
    blob = load_strict_json(wpath.read_text(encoding="utf-8"))
    assert blob["type"] == "witness"
    witness = witness_from_json(blob["witness"])
    k = c.randomized_response_kernel(2, F(2, 3))
    replayed = c.replay_witness(c.DefinitionId.CLASSIC, k, witness)
    assert c.format_ratio(replayed) == blob["achieved"]


# --- scenarios ---------------------------------------------------------------------


def test_scenarios_list(capsys):
    code, out = run(capsys, "scenarios", "list")
    assert code == 0
    for name in ("ada_byron", "randomized_response", "hidden_pair",
                 "hidden_value", "geometric_count_n3", "composition_demo"):
        assert name in out


def test_scenarios_run_all_deterministic(capsys, tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        code, _ = run(capsys, "scenarios", "run-all", "--out", str(d))
        assert code == 0
    files1 = sorted(p.name for p in d1.iterdir())
    files2 = sorted(p.name for p in d2.iterdir())
    assert files1 == files2 and len(files1) == len(c.SCENARIOS)
    for name in files1:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


# sha256 of every `scenarios run-all` file, frozen per enumeration order
# version: a refactor must reproduce these bytes, and a deliberate change of
# order bumps the version and records new digests here.
GOLDEN_SCENARIO_SHA256 = {
    1: {
        "ada_byron.json":
            "9f0bbc9269e608136dbc5207c41c4aea23c15630ff4462ae965c071a4d171301",
        "composition_demo.json":
            "d1853d5ea9f4d2d6f67a6584ba721878271bdea10e76f7049b991b27f1f4861a",
        "geometric_count_n3.json":
            "0fb79929af83b5ed393b2961317702232635a26f9455e7cce78ccbd304e55635",
        "hidden_pair.json":
            "ae15fcf6ad48e0b9f8ef0ad20b9de5d860d9ba576527861536cd7f519520fc88",
        "hidden_value.json":
            "a0f6aab8e1b1115efc88ff3d15b1467b30aa342979f1d5634406114e4b1c730e",
        "randomized_response.json":
            "def58f35ca8568036b295ca8381a22ef72a8fa32028aff35188252dffb180070",
    },
    # version 2 rewords the strong_adversary_universal reduction note
    2: {
        "ada_byron.json":
            "7d2029583cf1555cef7297e5c102b6780fbc4e85b753013b6a5a979cd9febfeb",
        "composition_demo.json":
            "ffa0b8682525fde934ef94bcb1b5f3263482a3a8e4f75852d6d80da270c3c3c8",
        "geometric_count_n3.json":
            "d4cca8393de35e4a09030fbcc4aa0c865eb1223355058579c0b40c7fe2fce2ca",
        "hidden_pair.json":
            "61df710a5ebd9df920c2f5560d995e3008eea296b17922229b77b661465ec84f",
        "hidden_value.json":
            "4ee0da829bdbed29e0860acf63004c3d0e191c9c8fd3fffc8e37f61cbfc73f64",
        "randomized_response.json":
            "da89a28827c2b78f5049481aaa54f022ab408f3e1a29b679e4636246ed9177ad",
    },
    # version 3: single_point_universal reports classic's witness
    3: {
        "ada_byron.json":
            "de58d587d88619392a93b03500dbe5649305ad5c4e4e81d04248dea72af391ad",
        "composition_demo.json":
            "16f15c1a79555711f69e5fd6857ad31d3cfc041f92463908c856295b73762315",
        "geometric_count_n3.json":
            "94af547f9b0d29348eae671fdf7e239e433d20d9fc1c41e3266803a2b177c5e8",
        "hidden_pair.json":
            "265aa2d0cb893eef787c7c515a3f47b05945fd4b5bdfbf61286d8188b3fdce20",
        "hidden_value.json":
            "ca79fae69288bdbde0bc5b84f05b3b5b7a5855ca6f24801166025ace7933d23a",
        "randomized_response.json":
            "bd56bb4221373df03d9c6d2ff3f80643ece44554cdd9d6c6e41addf2b641c3ed",
    },
    # version 4: the effect-ratio and semantic-gap folds sweep their pairs
    # with outputs innermost; only the version field changes here
    4: {
        "ada_byron.json":
            "1ba2d5fa8a6f16020aa9426a9f57394128fc409f122cb8cbe9cd702a64ef5ec8",
        "composition_demo.json":
            "247ba2bd285e9eeb7f58e6b3b99724a97fb7cc8ac9ba15ca73aab4a1bad01fa7",
        "geometric_count_n3.json":
            "5063186de286267bcd83440c7be176485f289733b4fd9e6564243aef279501f9",
        "hidden_pair.json":
            "076d1aafa00dadd8a47fc2267aed2484a5cd9a1b8016d10722e268c8bd8f8b48",
        "hidden_value.json":
            "1b06d438a4a79c6fab8c4812ca1d455f0ba2a3469ec3bc7918061fb14c2449b1",
        "randomized_response.json":
            "5f61190a5d8fa659ca8c2a26a4e164f2f6fa8f6a96b69dbaa4cf081c82f8a290",
    },
}


def test_scenarios_run_all_matches_golden_digests(capsys, tmp_path):
    golden = GOLDEN_SCENARIO_SHA256[c.ENUMERATION_ORDER_VERSION]
    code, _ = run(capsys, "scenarios", "run-all", "--out", str(tmp_path))
    assert code == 0
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
    }
    assert got == golden


# sha256 of CLI stdout on large comparison families (up to 243 databases
# and 32 outputs), frozen per enumeration order version like the scenario
# digests: every check must keep its sweep order, its first witness and its
# skipped count, not only its supremum.  In a case, a kernel name stands for
# its model file, and `--pop` or `--prior` for a uniform population over its
# databases.
LARGE_KERNELS = {
    "rr4": '{"type": "kernel", "builtin": "randomized_response", "n": 4, '
           '"bias": "2/3"}',
    "geo5": '{"type": "kernel", "builtin": "geometric_count", "n": 5, '
            '"ratio": "1/2"}',
}
LARGE_FAMILY_SHA256 = {
    2: {
        "check bayesian0 geo5 --pop":
            "b3f8b137b6f4c58ffbda2cbbadaad5e0239e8a62d987ef137defdceb5fda8834",
        "check bayesian0 rr4 --pop":
            "bdc9fdc18347cfb3ec556c4136f1e1bf6c1d67cbab7436dfe79d7d76ed4ad0ba",
        "check classic geo5":
            "75b8b722cfe028ff2ee0047cd01ed8d87788b7052b6d8163ad9f3923b1386ed2",
        "check classic rr4":
            "a7b1582c610eac9bbad4aa67e129c2aff7fadb76c4e91d3e4b15016367e22b2e",
        "check single_point_universal geo5 --no-cross-check":
            "008766d0e7c0f693385245bae8cd414f20134795b362a5cc634fabe60c435bc6",
        "check single_point_universal rr4 --no-cross-check":
            "6ac0b25252061b1801fc2314d567ec0483a5945b92de29d098e566cd395f053e",
        "check strong_adversary_one_dist geo5 --pop":
            "fa293f38e89701b4bf563984e8b1d7382172c6892510f8eff2bc154cc8f8b781",
        "check strong_adversary_one_dist rr4 --pop":
            "0f3d3b59f583f6823caa82b95e810481e6e577da33d5ca732d4a931471531f54",
        "check strong_adversary_universal geo5":
            "d45786b2d63a6ddac1a4c1ce5b9e526aef09d64ec3c47f20b6f8cd6010c2efb4",
        "check strong_adversary_universal rr4":
            "7917678c255b3a9f48899b8c1de0a8497858491b35ded516bd33ead6d60b0fef",
        "check whole_db_universal geo5 --no-cross-check":
            "49e59728ee0601885d4795e85c47d69b524b08946fab51ec1ec6858a1c08d414",
        "check whole_db_universal rr4 --no-cross-check":
            "4b47ebb365a4dd026aedd1e5b738586f2579b2f4ada7aeb65f366651cbc80c63",
        "epsilon rr4":
            "7384c2e0ef15dcd92382ed6642b7599fbc541ac8b308ec835c1821c331a8f91c",
    },
    # version 3: strong_adversary_one_dist and single_point_universal report
    # classic's witness {i, d, d_prime_i, o}
    3: {
        "check bayesian0 geo5 --pop":
            "c14835b155b071a4058cc4f4929f065b352a5685be45803efc651574a5c594d6",
        "check bayesian0 rr4 --pop":
            "376458b05f936e965ff15571b127c6e388cb7b57100bdcc73b0279019237e4d6",
        "check classic geo5":
            "fa4388e80c2560d5b2d30de548b56ab732c8fca4ceb7e0a1231d6700e5747bfa",
        "check classic rr4":
            "bd84860fe97dae505bba2def1bcfa90ac84a65928363f5654315c78930b267d6",
        "check single_point_universal geo5 --no-cross-check":
            "d8333bbf914a2f5e1daf5b9108fdb1774a9850c13cb86af91b27456d6d93a07a",
        "check single_point_universal rr4 --no-cross-check":
            "1b7bb51fe623e652cc1eb13cf7bae98ad691b64739571e550d266e506af34597",
        "check strong_adversary_one_dist geo5 --pop":
            "fce1f7926cec9007d520ce45c3f464cb128c3cdf8fadbb7135d40b417e8fa2cc",
        "check strong_adversary_one_dist rr4 --pop":
            "978f7b6a42ea92b330a83636936ef34699ed03c6c8f1e285b03975c057ed0225",
        "check strong_adversary_universal geo5":
            "33023e6fd5c07b1606937ce155a2a6c6ee7a22cac44dbe04bf2346dc515057af",
        "check strong_adversary_universal rr4":
            "ed00d8707f55f1b23ea639e78eec830a0de03d82d50615ab2fa54b3dd391043f",
        "check whole_db_universal geo5 --no-cross-check":
            "ce5910084981638f01d58aa18f62e9c11ae4d7f6eede0f011d7248cd21c409d9",
        "check whole_db_universal rr4 --no-cross-check":
            "9c8bc47a31bfbec78eb157b4d90a92fd6d413231f522c60e67b9d172b8d3d8a8",
        "epsilon rr4":
            "5de670779f0d470e64840baa268ce4409bcbc50253afac5ad06740648c7d18ec",
    },
    # version 4: the effect-ratio and semantic-gap folds sweep their pairs
    # with outputs innermost, and compose and posterior join the cases
    4: {
        "check bayesian0 geo5 --pop":
            "ff0858a4d2bb366cbf647eb8d8daf03d556e7a76876f15f8b93e8b5f52337a7f",
        "check bayesian0 rr4 --pop":
            "83117d2fedd81c59efd1d6a6468d859c006ac862a73cd42bef01850f319b7ec7",
        "check classic geo5":
            "c6263c74d1520a37d6742ca0cf9db71701f7f8414d840d0f19c6c5e75d958620",
        "check classic rr4":
            "f4cfe8057f0373d15b51faf659e38c237dfcf4388d218afc7da48fa10ea7237f",
        "check single_point_universal geo5 --no-cross-check":
            "3cd4b2fff81b805c192774d5fbded5448a9947febb32c4d94fd07a9b09626434",
        "check single_point_universal rr4 --no-cross-check":
            "95c3ecd57d33dba983816e4055e36093477f3b5c793a01967b3de2a9be92cc63",
        "check strong_adversary_one_dist geo5 --pop":
            "c9b0c4525273d1cb11906096afc481a08828df43e05114880bac8b5929783c8b",
        "check strong_adversary_one_dist rr4 --pop":
            "8f476351adc29b3d8e909d5d9c4ae5a4402e910dc379cce68ac29bdae3333b5a",
        "check strong_adversary_universal geo5":
            "956acf7f5ec42f647fc0bc1b1a79eb0411bf811aa972a3716ccde86d9bdac655",
        "check strong_adversary_universal rr4":
            "b62c460600137b003318f589e3ade995679877d2cf32a3af5bccaab27184d588",
        "check whole_db_universal geo5 --no-cross-check":
            "c7249371a89137e4ed5274a0a05bc8738a10ec63071050bee50fb2155b2f19fb",
        "check whole_db_universal rr4 --no-cross-check":
            "5cabaa889ecf0b1c67a6bf781f11c428c0369a31140b9157d0b1621286ff90c5",
        "compose composition_demo":
            "c099e3ec4acdd9c94fe1c39269e0bfeb68dee5c52724f39039a10cf5dfb59087",
        "epsilon rr4":
            "9ae7d6915a9db3df140e50716dbba0afebe8b3ed6a6095db56d03d8057e7f2be",
        'posterior rr4 --prior --observe ["pos","neg","pos","pos"] '
        '--force-point 2 --force-value "null"':
            "025970f87bb8f2c1c797515cfa9c41b405fd12c210e8b1c92ae69199ad38783b",
    },
}


@pytest.mark.parametrize(
    "case", sorted(LARGE_FAMILY_SHA256[c.ENUMERATION_ORDER_VERSION])
)
def test_large_family_stdout_matches_golden_digest(capsys, tmp_path, case):
    argv = []
    for word in case.split():
        if word in LARGE_KERNELS:
            kernel = parse_kernel(load_strict_json(LARGE_KERNELS[word]))
            path = tmp_path / f"{word}.json"
            path.write_text(LARGE_KERNELS[word], encoding="utf-8")
            argv.append(str(path))
        elif word in ("--pop", "--prior"):
            path = tmp_path / "pop.json"
            path.write_text(canonical_json(serialize_input(
                c.Dist.uniform(c.data_point_names(kernel), kernel.databases())
            )), encoding="utf-8")
            argv += [word, str(path)]
        else:
            argv.append(word)
    if argv[0] == "check":
        argv += ["--target-ratio", "3/2"]
    code, out = run(capsys, *argv)
    assert code == (1 if argv[0] == "check" else 0)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() \
        == LARGE_FAMILY_SHA256[c.ENUMERATION_ORDER_VERSION][case]


# --- one test per otherwise unreached command branch --------------------------------


def _exits_four_saying(capsys, argv, message):
    code = main(argv)
    assert code == 4
    assert message in capsys.readouterr().err


def test_pop_file_holding_a_kernel_exits_four(capsys, rr_file):
    _exits_four_saying(capsys, ["check", "bayesian0", rr_file, "--target-ratio", "2",
                                "--pop", rr_file],
                       "the distribution file must hold a distribution")


def test_pop_flag_completes_a_canonical_model_without_one(capsys, tmp_path):
    kernel = c.randomized_response_kernel(2, F(2, 3))
    model = tmp_path / "model.json"
    model.write_text(canonical_json(serialize_input(c.CanonicalModel(kernel, (), None))),
                     encoding="utf-8")
    pop = tmp_path / "pop.json"
    pop.write_text(canonical_json(serialize_input(
        c.Dist.from_weights(("D_1", "D_2"), {(c.POS, c.POS): F(1, 2), (c.NEG, c.NEG): F(1, 2)})
    )), encoding="utf-8")
    code, out = run(capsys, "check", "bayesian0", str(model), "--target-ratio", "2",
                    "--pop", str(pop))
    assert code == 1
    assert json.loads(out)["achieved"] == "4/1"


def test_check_on_a_structural_model_exits_four(capsys, tmp_path):
    sem = tmp_path / "sem.json"
    sem.write_text(canonical_json(serialize_input(
        c.as_sem(c.randomized_response_kernel(1, F(2, 3))).sem
    )), encoding="utf-8")
    _exits_four_saying(capsys, ["check", "classic", str(sem), "--target-ratio", "2"],
                       "needs a kernel or canonical_model input, got Sem")


def test_falsify_refuses_attribute_equations(capsys):
    _exits_four_saying(capsys, ["falsify", "ada_byron", "--target-ratio", "2"],
                       "remove the attribute equations")


def test_falsify_refuses_budget_zero(capsys, rr_file):
    _exits_four_saying(capsys, ["falsify", rr_file, "--target-ratio", "2",
                                "--budget", "0"], "--budget must be at least 2")


def test_falsify_refuses_budget_one(capsys, rr_file):
    # RR n=2 fails bayesian0 at target 1, yet no point mass can show it
    _exits_four_saying(capsys, ["falsify", rr_file, "--target-ratio", "1",
                                "--budget", "1"],
                       "at budget 1 every candidate is a point mass")


def test_falsify_witness_file_population_replays(capsys, rr_file, tmp_path):
    wpath = tmp_path / "w.json"
    code, out = run(capsys, "falsify", rr_file, "--target-ratio", "2", "--budget", "2",
                    "--witness-out", str(wpath))
    assert code == 1
    blob = load_strict_json(wpath.read_text(encoding="utf-8"))
    assert blob["achieved"] == json.loads(out)["report"]["achieved"] == "9/4"
    population = parse_text(json.dumps(blob["population"]))
    replayed = c.replay_witness(c.DefinitionId.BAYESIAN0,
                                c.randomized_response_kernel(2, F(2, 3)),
                                witness_from_json(blob["witness"]), population)
    assert c.format_ratio(replayed) == blob["achieved"]


def test_posterior_on_a_bare_kernel_needs_a_prior(capsys, rr_file):
    _exits_four_saying(capsys, ["posterior", rr_file, "--observe", '["pos", "pos"]'],
                       "provide --prior or an input that embeds a population")


def test_compose_on_a_kernel_exits_four(capsys, rr_file):
    _exits_four_saying(capsys, ["compose", rr_file],
                       "compose needs a composition input, got MechanismKernel")


def test_compose_demo_passes_at_the_product_bound(capsys):
    code, out = run(capsys, "compose", "composition_demo")
    assert code == 0
    blob = json.loads(out)
    assert blob["passed"] is True and blob["achieved"] == "4/1"


def test_scenarios_list_as_text(capsys):
    code, out = run(capsys, "scenarios", "list", "--format", "text")
    assert code == 0
    assert out.splitlines() == [f"{s.name}: {s.description}" for s in c.SCENARIOS.values()]


def test_scenarios_run_all_needs_out(capsys):
    _exits_four_saying(capsys, ["scenarios", "run-all"], "scenarios run-all needs --out DIR")


def test_text_format_smoke(capsys, rr_file):
    code, out = run(capsys, "epsilon", rr_file, "--format", "text")
    assert code == 0
    assert "ratio: 2/1" in out
    assert "epsilon: 0.6931" in out
    assert "{" not in out.splitlines()[0]


COMPOSITION_TEXT = """
{
  "type": "composition",
  "x": "X", "y1": "Y1", "y2": "Y2",
  "ratio1": "3/2", "ratio2": "2/1",
  "first": {
    "type": "sem",
    "variables": [["X", [0, 1]], ["Y1", [0, 1]]],
    "equations": [
      {"target": "Y1", "parents": ["X"],
       "rows": [[[0], [[0, "2/3"], [1, "1/3"]]],
                [[1], [[0, "1/3"], [1, "2/3"]]]]}
    ]
  },
  "second": {
    "type": "sem",
    "variables": [["X", [0, 1]], ["Y1", [0, 1]], ["Y2", [0, 1]]],
    "equations": [
      {"target": "Y2", "parents": ["Y1"],
       "rows": [[[0], [[0, "3/4"], [1, "1/4"]]],
                [[1], [[0, "1/4"], [1, "3/4"]]]]}
    ]
  }
}
"""


def _composition(**changes) -> str:
    """`COMPOSITION_TEXT` with `changes` to its top-level keys."""
    return json.dumps({**json.loads(COMPOSITION_TEXT), **changes})


_FIRST = json.loads(COMPOSITION_TEXT)["first"]


@pytest.mark.parametrize("text, message", [
    (_composition(x="Y1"), "'Y1' must be an input of both stages"),
    (_composition(second=_FIRST, y2="Y1"), "'Y1' must be an input of the second stage"),
    # the second stage's output declared in the first stage too, as an input
    (_composition(first={**_FIRST, "variables": _FIRST["variables"] + [["Y2", [0, 1]]]}),
     "stages may share only the input and the interface, got ['X', 'Y1', 'Y2']"),
])
def test_compose_refuses_stages_that_do_not_chain(capsys, tmp_path, text, message):
    path = tmp_path / "comp.json"
    path.write_text(text, encoding="utf-8")
    assert main(["compose", str(path)]) == 4
    assert capsys.readouterr() == ("", f"error: {message}\n")
