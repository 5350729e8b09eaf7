"""Seeded inputs and job lists for the three benchmark workloads.

Every input file is written here with plain `json` and `fractions`, never
through `causaldp.modelfile`, so a change to the program's parser or
serializer cannot move cost into or out of set-up.  Each job carries the
expectations the correctness gate checks; exact expected values come from
closed forms or from this module's own arithmetic on the generated tables,
not from the program under test.

Usage as a library: `build(workload, seed, workdir)` returns a `Workload`
whose `files` can be written with `write_files`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path

WORKLOADS = ("oracle_checked", "conditional_large", "small_models")

RESPONDENT_DOMAIN = ("pos", "neg", "null")
RR_BIAS = Fraction(2, 3)
GEO_RATIO = Fraction(1, 2)
# closed forms of every population-free definition: q/(1-q) and 1/r
RR_RATIO = RR_BIAS / (1 - RR_BIAS)
GEO_EXACT = 1 / GEO_RATIO
TARGET = Fraction(2)


def frac(x: Fraction | float) -> str:
    """The report form of a ratio: "p/q", or "inf"."""
    return "inf" if x == math.inf else f"{x.numerator}/{x.denominator}"


@dataclass
class Job:
    """One CLI call and what its output must satisfy.

    Attributes:
      name: short label, unique within a workload.
      argv: arguments for `causaldp.cli.main`.
      exit: the exit code the call must return; None when only an upper
        bound above the target is known, so either verdict is possible.
      achieved: exact `achieved` (or `ratio` for epsilon) the report must show.
      at_most: upper bound on `achieved` when no exact value is known (on
        `semantic_gap` for a posterior).
      candidates: `candidates_tried` of an exhausted falsifier search.
      posterior: expected `posterior` / `posterior_forced` weights.
      files: output files whose bytes must repeat across passes.
    """

    name: str
    argv: list[str]
    exit: int | None
    achieved: Fraction | float | None = None
    at_most: Fraction | None = None
    candidates: int | None = None
    posterior: dict | None = None
    files: list[str] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    seed: int
    files: dict[str, dict]
    jobs: list[Job]


# --- tables -------------------------------------------------------------------


def rr_rows(n: int) -> dict[tuple, dict[tuple, Fraction]]:
    q = RR_BIAS
    channel = {
        "pos": {"pos": q, "neg": 1 - q},
        "neg": {"pos": 1 - q, "neg": q},
        "null": {"pos": Fraction(1, 2), "neg": Fraction(1, 2)},
    }
    outputs = list(product(("pos", "neg"), repeat=n))
    rows = {}
    for db in product(RESPONDENT_DOMAIN, repeat=n):
        row = {}
        for out in outputs:
            w = Fraction(1)
            for truth, rep in zip(db, out):
                w *= channel[truth][rep]
            row[out] = w
        rows[db] = row
    return rows


def geo_rows(n: int) -> dict[tuple, dict[int, Fraction]]:
    r = GEO_RATIO
    by_count = {}
    for c in range(n + 1):
        row = {}
        for o in range(n + 1):
            if o == 0:
                row[o] = (r**c if c > 0 else Fraction(1)) / (1 + r)
            elif o == n:
                row[o] = (r ** (n - c) if c < n else Fraction(1)) / (1 + r)
            else:
                row[o] = (1 - r) / (1 + r) * r ** abs(o - c)
        by_count[c] = row
    return {
        db: by_count[sum(1 for x in db if x == "pos")]
        for db in product(RESPONDENT_DOMAIN, repeat=n)
    }


def random_rows(rng: random.Random, n: int, dsize: int, osize: int):
    """A full-support kernel with small integer weights per row."""
    rows = {}
    for db in product(range(dsize), repeat=n):
        ws = [rng.randint(1, 9) for _ in range(osize)]
        total = sum(ws)
        rows[db] = {o: Fraction(w, total) for o, w in enumerate(ws)}
    return rows


def classic_ratio(rows: dict, n: int, domain) -> Fraction:
    """Worst row ratio over single-point changes of a full-support kernel."""
    best = Fraction(1)
    for d, row in rows.items():
        for i in range(n):
            for v in domain:
                other = rows[d[:i] + (v,) + d[i + 1 :]]
                for o, p in row.items():
                    best = max(best, p / other[o])
    return best


def kernel_file(n: int, domain, null, rows: dict) -> dict:
    outputs = list(next(iter(rows.values())))
    return {
        "type": "kernel",
        "n": n,
        "data_domain": list(domain),
        "null_value": null,
        "output_domain": [_json_value(o) for o in outputs],
        "table": [
            [list(db), [[_json_value(o), frac(w)] for o, w in row.items()]]
            for db, row in rows.items()
        ],
    }


def _json_value(v):
    return list(v) if isinstance(v, tuple) else v


def builtin(kind: str, n: int) -> dict:
    if kind == "rr":
        return {"type": "kernel", "builtin": "randomized_response", "n": n,
                "bias": frac(RR_BIAS)}
    return {"type": "kernel", "builtin": "geometric_count", "n": n,
            "ratio": frac(GEO_RATIO)}


# --- populations --------------------------------------------------------------


def population_file(n: int, weights: dict[tuple, Fraction]) -> dict:
    return {
        "type": "distribution",
        "variables": [f"D_{i}" for i in range(1, n + 1)],
        "weights": [[list(p), frac(w)] for p, w in weights.items()],
    }


def uniform_population(n: int, domain) -> dict[tuple, Fraction]:
    points = list(product(domain, repeat=n))
    return {p: Fraction(1, len(points)) for p in points}


def correlated_population(rng: random.Random, n: int, domain) -> dict[tuple, Fraction]:
    """Full support, with extra mass where every point agrees."""
    raw = {
        p: rng.randint(1, 9) + (6 if len(set(p)) == 1 else 0)
        for p in product(domain, repeat=n)
    }
    total = sum(raw.values())
    return {p: Fraction(w, total) for p, w in raw.items()}


def product_population(rng: random.Random, n: int, domain) -> dict[tuple, Fraction]:
    marginals = []
    for _ in range(n):
        ws = [rng.randint(1, 5) for _ in domain]
        marginals.append({v: Fraction(w, sum(ws)) for v, w in zip(domain, ws)})
    out = {}
    for p in product(domain, repeat=n):
        w = Fraction(1)
        for v, m in zip(p, marginals):
            w *= m[v]
        out[p] = w
    return out


def grid_size(atoms: int, budget: int) -> int:
    """Distinct distributions over `atoms` with every weight's denominator at
    most `budget`: the falsifier's per-point grid."""
    points = set()
    for q in range(1, budget + 1):
        for head in product(range(q + 1), repeat=atoms - 1):
            if sum(head) <= q:
                ks = head + (q - sum(head),)
                points.add(tuple(Fraction(k, q) for k in ks))
    return len(points)


def falsify_candidates(n: int, atoms: int, budget: int) -> int:
    """Diagonal family plus product family, less the point masses both hold
    (with one point, every product candidate is a diagonal one)."""
    g = grid_size(atoms, budget)
    return g if n == 1 else g + g**n - atoms


# --- workloads ----------------------------------------------------------------


class _Builder:
    def __init__(self, name: str, seed: int, workdir: Path):
        self.rng = random.Random(f"{name}:{seed}")
        self.dir = workdir
        self.files: dict[str, dict] = {}
        self.jobs: list[Job] = []

    def file(self, fname: str, obj: dict) -> str:
        self.files[fname] = obj
        return str(self.dir / fname)

    def job(self, name: str, argv: list[str], exit: int, **expect) -> None:
        self.jobs.append(Job(name, argv, exit, **expect))

    def check(self, name, definition, model, ratio=None, pop=None, flags=(),
              at_most=None):
        argv = ["check", definition, model, "--target-ratio", frac(TARGET)]
        if pop is not None:
            argv += ["--pop", pop]
        argv += list(flags)
        if ratio is not None:
            exit = 0 if ratio <= TARGET else 1
        else:
            exit = 0 if at_most <= TARGET else None
        self.job(name, argv, exit, achieved=ratio, at_most=at_most)

    def random_kernel(self, tag: str, n: int, dsize: int, osize: int):
        """Path of a seeded kernel file, and its exact classic ratio."""
        rows = random_rows(self.rng, n, dsize, osize)
        path = self.file(f"{tag}.json", kernel_file(n, range(dsize), 0, rows))
        return path, classic_ratio(rows, n, range(dsize))

    def population_free(self, tag, path, ratio, flags=()):
        """The four population-free definitions agree on every kernel."""
        for definition in ("classic", "strong_adversary_universal",
                           "whole_db_universal", "single_point_universal"):
            self.check(f"{tag}_{definition}", definition, path, ratio, flags=flags)


def _oracle_checked(b: _Builder) -> None:
    rr3 = b.file("rr3.json", builtin("rr", 3))
    rr4 = b.file("rr4.json", builtin("rr", 4))
    geo4 = b.file("geo4.json", builtin("geo", 4))
    uni4 = b.file("pop_uniform4.json", population_file(4, uniform_population(4, RESPONDENT_DOMAIN)))
    corr4 = b.file("pop_corr4.json", population_file(4, correlated_population(b.rng, 4, RESPONDENT_DOMAIN)))
    b.check("rr4_whole_db_universal", "whole_db_universal", rr4, RR_RATIO)
    b.check("rr3_whole_db_universal", "whole_db_universal", rr3, RR_RATIO)
    b.check("rr4_single_point_universal", "single_point_universal", rr4, RR_RATIO)
    b.check("geo4_single_point_universal", "single_point_universal", geo4, GEO_EXACT)
    # a product population mixes rows with equal weights, so the ratio stays exact
    b.check("rr4_single_point_uniform", "single_point_intervention", rr4, RR_RATIO, pop=uni4)
    # interventions cannot raise a ratio above the classic one; whole-db ones equal it
    b.check("geo4_single_point_corr", "single_point_intervention", geo4, pop=corr4,
            at_most=GEO_EXACT)
    b.check("geo4_whole_db_corr", "whole_db_intervention", geo4, GEO_EXACT, pop=corr4)
    rk3, rk3_ratio = b.random_kernel("rk3", 3, 3, 6)
    rk3_pop = b.file("pop_rk3.json", population_file(3, correlated_population(b.rng, 3, range(3))))
    b.check("rk3_single_point_corr", "single_point_intervention", rk3, pop=rk3_pop,
            at_most=rk3_ratio)
    b.check("ada_byron_single_point", "single_point_intervention", "ada_byron", Fraction(2))
    b.population_free("rk3", rk3, rk3_ratio)
    for k in range(7):
        tag = f"rk2{'abcdefg'[k]}"
        path, ratio = b.random_kernel(tag, 2, 3, 4)
        corr = b.file(f"pop_{tag}.json",
                      population_file(2, correlated_population(b.rng, 2, range(3))))
        b.population_free(tag, path, ratio)
        b.check(f"{tag}_single_point_corr", "single_point_intervention", path, pop=corr,
                at_most=ratio)
        b.check(f"{tag}_whole_db_corr", "whole_db_intervention", path, ratio, pop=corr)


def _conditional_large(b: _Builder) -> None:
    rr4 = b.file("rr4.json", builtin("rr", 4))
    rr5 = b.file("rr5.json", builtin("rr", 5))
    geo5 = b.file("geo5.json", builtin("geo", 5))
    rr5_table = b.file("rr5_table.json", kernel_file(5, RESPONDENT_DOMAIN, "null", rr_rows(5)))
    geo5_table = b.file("geo5_table.json", kernel_file(5, RESPONDENT_DOMAIN, "null", geo_rows(5)))
    uni4 = b.file("pop_uniform4.json", population_file(4, uniform_population(4, RESPONDENT_DOMAIN)))
    uni5 = b.file("pop_uniform5.json", population_file(5, uniform_population(5, RESPONDENT_DOMAIN)))
    b.check("rr5_strong_universal", "strong_adversary_universal", rr5, RR_RATIO)
    b.check("geo5_table_strong_universal", "strong_adversary_universal", geo5_table, GEO_EXACT)
    b.check("rr5_bayesian0_uniform", "bayesian0", rr5, RR_RATIO, pop=uni5)
    # a full-support population makes each full-database conditional a kernel row
    b.check("rr4_one_dist_uniform", "strong_adversary_one_dist", rr4, RR_RATIO, pop=uni4)
    b.check("geo5_independent_uniform", "independent_bayesian0", geo5, GEO_EXACT, pop=uni5)
    b.check("rr5_table_classic", "classic", rr5_table, RR_RATIO)
    rke, rke_ratio = b.random_kernel("rk_eps", 3, 3, 6)
    b.job("rk_eps_epsilon", ["epsilon", rke], 0, achieved=rke_ratio)
    b.check("rr5_single_point_unchecked", "single_point_intervention", rr5, RR_RATIO,
            pop=uni5, flags=["--no-cross-check"])
    b.check("rr5_whole_db_unchecked", "whole_db_universal", rr5, RR_RATIO,
            flags=["--no-cross-check"])
    n = 3
    for k in range(8):
        tag = f"rk3{'abcdefgh'[k]}"
        path, ratio = b.random_kernel(tag, n, 3, 4)
        corr = b.file(f"pop_{tag}_corr.json",
                      population_file(n, correlated_population(b.rng, n, range(3))))
        prod = b.file(f"pop_{tag}_product.json",
                      population_file(n, product_population(b.rng, n, range(3))))
        b.population_free(tag, path, ratio, flags=["--no-cross-check"])
        b.check(f"{tag}_one_dist_corr", "strong_adversary_one_dist", path, ratio, pop=corr)
        # conditioning on one point can compound row ratios across all n points
        b.check(f"{tag}_bayesian0_corr", "bayesian0", path, pop=corr, at_most=ratio**n)
        b.check(f"{tag}_independent_product", "independent_bayesian0", path, pop=prod,
                at_most=ratio)


def _small_models(b: _Builder) -> None:
    rr2 = b.file("rr2.json", builtin("rr", 2))
    rr3 = b.file("rr3.json", builtin("rr", 3))
    geo3 = b.file("geo3.json", builtin("geo", 3))
    uni2 = b.file("pop_uniform2.json", population_file(2, uniform_population(2, RESPONDENT_DOMAIN)))
    atoms = len(RESPONDENT_DOMAIN)
    # targets at the exact universal bayesian0 value: the searches must exhaust
    for tag, path, n, target, budget in (("geo3", geo3, 3, 8, 2), ("rr2", rr2, 2, 4, 4),
                                         ("rr3", rr3, 3, 8, 2)):
        b.job(f"{tag}_falsify_exhausted",
              ["falsify", path, "--target-ratio", str(target), "--budget", str(budget)],
              2, candidates=falsify_candidates(n, atoms, budget))
    witness = str(b.dir / "rr2_witness.json")
    b.job("rr2_falsify_found", ["falsify", rr2, "--target-ratio", "2", "--budget", "2",
                                "--witness-out", witness], 1, files=[witness])
    out_dir = b.dir / "scenarios"
    b.job("scenarios_run_all", ["scenarios", "run-all", "--out", str(out_dir)], 0,
          files=[str(out_dir / f"{s}.json") for s in SCENARIO_NAMES])
    b.job("compose_demo", ["compose", "composition_demo"], 0, achieved=Fraction(4))
    observe = ("pos", "neg")
    b.job("rr2_posterior_forced",
          ["posterior", rr2, "--prior", uni2, "--observe", json.dumps(list(observe)),
           "--force-point", "1", "--force-value", json.dumps("pos")], 0,
          posterior=_posteriors(rr_rows(2), uniform_population(2, RESPONDENT_DOMAIN),
                                observe, 1, "pos"),
          at_most=RR_RATIO**2)
    b.check("ada_byron_bayesian0", "bayesian0", "ada_byron", Fraction(4))
    # outputs impossible under one value: infinite ratios and their witnesses
    b.check("hidden_pair_classic", "classic", "hidden_pair", math.inf)
    b.check("hidden_pair_whole_db_universal", "whole_db_universal", "hidden_pair", math.inf)
    b.check("hidden_value_single_point_universal", "single_point_universal",
            "hidden_value", math.inf)
    for k in range(2):
        tag = f"rk{k}"
        n = 1 + k % 2
        path, ratio = b.random_kernel(tag, n, 2, 2 + k % 2)
        pop = b.file(f"pop_{tag}.json",
                     population_file(n, correlated_population(b.rng, n, range(2))))
        b.population_free(tag, path, ratio)
        b.check(f"{tag}_bayesian0", "bayesian0", path, pop=pop, at_most=ratio**n)
        b.check(f"{tag}_single_point", "single_point_intervention", path, pop=pop,
                at_most=ratio)
        b.job(f"{tag}_falsify_exhausted",
              ["falsify", path, "--target-ratio", frac(ratio**n), "--budget", "2"],
              2, candidates=falsify_candidates(n, 2, 2))


SCENARIO_NAMES = ("ada_byron", "randomized_response", "geometric_count_n3",
                  "hidden_pair", "hidden_value", "composition_demo")


def _posteriors(rows, prior, observe, point, value) -> dict:
    """Bayes' rule on the generated table, plain and with one point forced."""

    def normalize(like):
        total = sum(like.values())
        return {db: frac(w / total) for db, w in like.items() if w > 0}

    plain = {db: w * rows[db][observe] for db, w in prior.items()}
    forced = {
        db: w * rows[db[: point - 1] + (value,) + db[point:]][observe]
        for db, w in prior.items()
    }
    return {"posterior": normalize(plain), "posterior_forced": normalize(forced)}


_BUILDERS = {
    "oracle_checked": _oracle_checked,
    "conditional_large": _conditional_large,
    "small_models": _small_models,
}


def build(workload: str, seed: int, workdir: Path) -> Workload:
    """The files and job list of one workload; the same seed gives the same inputs."""
    b = _Builder(workload, seed, Path(workdir))
    _BUILDERS[workload](b)
    names = [j.name for j in b.jobs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate job names in {workload}")
    return Workload(workload, seed, b.files, b.jobs)


def write_files(workload: Workload, workdir: Path) -> None:
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    for fname, obj in workload.files.items():
        (workdir / fname).write_text(json.dumps(obj), encoding="utf-8")
