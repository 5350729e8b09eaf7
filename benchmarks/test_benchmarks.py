"""Self-tests of the benchmark's helpers; not part of the package's suite.

    python3 -m pytest -q benchmarks
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.9) == 90
    assert sum(v > run.percentile(values, 0.9) for v in values) == 10
    assert run.percentile([3.0], 0.9) == 3.0
    assert run.percentile([5, 1, 4, 2, 3], 0.5) == 3
    with pytest.raises(ValueError):
        run.percentile([], 0.5)


def test_sample_count_leaves_ten_beyond_p90():
    assert run.samples_needed(0.9) == 100
    assert run.samples_needed(0.5) == 20
    for jobs in (25, 55, 65):
        for pass_s in (0.5, 5.0, 50.0):
            passes = run.passes_needed(jobs, pass_s, 15)
            assert passes * jobs >= 100 and passes >= 3
    assert run.passes_needed(25, 1.0, 15) == 15
    assert run.passes_needed(65, 10.0, 30) == 3


def test_timings_are_divided_by_host_slowdown():
    # two jobs, three passes; the middle pass ran with the host twice as slow
    passes = [
        [(None, 1.0, 1.0), (None, 3.0, 1.0)],
        [(None, 2.0, 2.0), (None, 6.0, 2.0)],
        [(None, 1.0, 1.0), (None, 3.0, 1.0)],
    ]
    setups = [(0.2, 1.0), (0.4, 2.0), (0.2, 1.0)]
    fixed = run.timing_metrics(passes, setups, 1.0, corrected=True)
    assert fixed == {"setup_s": 0.2, "jobs_per_s": 0.5, "job_s_p50": 1.0, "job_s_p90": 3.0}
    raw = run.timing_metrics(passes, setups, 1.0, corrected=False)
    assert raw["setup_s"] == 0.2 and raw["job_s_p90"] == 6.0


def test_job_counts_put_percentiles_inside_one_job():
    # with J jobs a pass, the p50 and p90 ranks fall half-way through the
    # block of one job's repeats when J is 5 more than a multiple of 10
    for name in inputs.WORKLOADS:
        jobs = inputs.build(name, 0, Path("w")).jobs
        assert len(jobs) % 10 == 5, name


def test_inputs_depend_only_on_seed():
    a = inputs.build("conditional_large", 7, Path("w"))
    b = inputs.build("conditional_large", 7, Path("w"))
    c = inputs.build("conditional_large", 8, Path("w"))
    assert json.dumps(a.files) == json.dumps(b.files)
    assert json.dumps(a.files) != json.dumps(c.files)
    assert [j.argv for j in a.jobs] == [j.argv for j in b.jobs]


def test_falsifier_family_size():
    assert inputs.falsify_candidates(3, 3, 2) == 219
    assert inputs.grid_size(2, 2) == 3
    assert inputs.falsify_candidates(1, 2, 2) == 3


def test_self_time_on_nested_tree():
    tree = [
        Span("cli", "cli.main", 0.0, 10.0, -1, "j"),
        Span("a", "a", 1.0, 4.0, 0, "j"),
        Span("b", "b", 2.0, 3.0, 1, "j"),
        Span("a", "a", 5.0, 9.0, 0, "j"),
        Span("b", "b", 6.0, 7.0, 3, "j"),
        Span("b", "b", 6.5, 8.0, 3, "j"),  # overlaps its sibling
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 2.0, 1.0, 1.5]
    totals = spans.layer_self_times(tree)
    assert totals == {"cli": 3.0, "a": 4.0, "b": 3.5}


def test_cross_checks_count_only_lifts_under_engine_queries():
    tree = [
        Span("mechanisms.engine", "CanonicalEngine.output_given_point", 0, 4, -1, "j"),
        Span("mechanisms.engine", "CanonicalEngine.base_joint", 0, 1, 0, "j"),
        Span("sem.lift", "ProbabilisticSem.lift", 0, 1, 1, "j"),
        Span("sem.lift", "ProbabilisticSem.lift", 2, 3, 0, "j"),
    ]
    assert spans.cross_checks(tree) == 1


def _bindings():
    """Every name bound in a loaded causaldp module or one of its classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "causaldp" or name.startswith("causaldp."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for key, member in vars(value).items():
                        out[(name, attr, key)] = member
    return out


def test_traced_run_wraps_every_holder_and_restores(tmp_path):
    import causaldp.cli
    import causaldp.scenarios

    before = _bindings()
    tracer = spans.Tracer()
    with tracer.installed():
        assert causaldp.scenarios.run_check is not before[("causaldp.scenarios", "run_check")]
        assert causaldp.cli.run_check is causaldp.scenarios.run_check
        assert causaldp.cli.main(["scenarios", "run-all", "--out", str(tmp_path)]) == 0
    assert tracer.missing == []
    assert _bindings() == before
    # run_check calls from the scenarios module are seen
    sweeps = [s for s in tracer.spans if s.target == "run_check"]
    assert len(sweeps) >= 15
    assert tracer.counts["checkers.falsify.calls"] == 1


def test_missing_target_is_reported(monkeypatch):
    monkeypatch.setattr(
        spans, "TARGETS", spans.TARGETS + (("x", "causaldp.checkers", "no_such_fn", None),)
    )
    tracer = spans.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == ["causaldp.checkers.no_such_fn"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
