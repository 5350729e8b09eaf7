"""Command line behavior: exit codes, formats, determinism, witness files."""

import hashlib
import json
from fractions import Fraction as F

import pytest

import causaldp as c
from causaldp.cli import main
from causaldp.modelfile import (
    canonical_json,
    load_strict_json,
    serialize_input,
    witness_from_json,
)

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


def test_help_exits_zero(capsys):
    code = main(["--help"])
    assert code == 0
    assert "causaldp" in capsys.readouterr().out


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


def test_embedded_plus_flag_population_rejected(capsys, tmp_path):
    pop = tmp_path / "pop.json"
    pop.write_text(canonical_json(serialize_input(
        c.Dist.uniform(("R_1",), [("pos",), ("neg",)])
    )), encoding="utf-8")
    code, _ = run(capsys, "check", "bayesian0", "ada_byron",
                  "--target-ratio", "4/1", "--pop", str(pop))
    assert code == 4


# --- posterior command ------------------------------------------------------------


def test_posterior_plain_and_forced(capsys, rr_file, tmp_path):
    prior = tmp_path / "prior.json"
    prior.write_text(canonical_json(serialize_input(
        c.Dist(("D_1",), {("pos",): F(4, 5), ("neg",): F(1, 5)})
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
}


def test_scenarios_run_all_matches_golden_digests(capsys, tmp_path):
    golden = GOLDEN_SCENARIO_SHA256[c.ENUMERATION_ORDER_VERSION]
    code, _ = run(capsys, "scenarios", "run-all", "--out", str(tmp_path))
    assert code == 0
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
    }
    assert got == golden


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
