"""Mechanism kernels and the canonical release model."""

import operator
import random
from fractions import Fraction as F
from itertools import product

import pytest

import causaldp as c
from causaldp import (
    NEG,
    NULL,
    POS,
    BiasOutOfRange,
    CanonicalEngine,
    Dist,
    RatioOutOfRange,
)
from causaldp import checkers, dist, mechanisms, modelfile, sem
from causaldp.cli import main
from causaldp.exact import memoized
from causaldp.modelfile import canonical_json, input_digest, parse_text, serialize_input
from conftest import kernel_table, random_kernel, random_population, unchecked_dist


def brute_force_classic(kernel):
    """Independent route to the worst-case row ratio: raw dict arithmetic."""
    best = F(1)
    infinite = False
    for d in kernel.databases():
        for i in range(kernel.n):
            for v in kernel.data_domain:
                d2 = d[:i] + (v,) + d[i + 1 :]
                for o in kernel.output_domain:
                    num = kernel.row(d).get(o, F(0))
                    den = kernel.row(d2).get(o, F(0))
                    if den == 0:
                        if num > 0:
                            infinite = True
                        continue
                    best = max(best, num / den)
    return c.INF if infinite else best


# --- randomized response ---------------------------------------------------------


def test_rr_bias_range_enforced():
    for bad in (F(1, 2), F(1), F(0), F(2, 3) * 2):
        with pytest.raises(BiasOutOfRange):
            c.randomized_response_kernel(2, bad)


@pytest.mark.parametrize("q", [F(2, 3), F(3, 4), F(5, 7)], ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rr_rows_are_products_of_per_respondent_channels(n, q):
    # truthful pos answers pos w.p. q; null flips a fair coin
    channel = {
        POS: {POS: q, NEG: 1 - q},
        NEG: {POS: 1 - q, NEG: q},
        NULL: {POS: F(1, 2), NEG: F(1, 2)},
    }
    k = c.randomized_response_kernel(n, q)
    assert set(kernel_table(k)) == set(product((POS, NEG, NULL), repeat=n))
    for db, row in kernel_table(k).items():
        assert set(row) == set(product((POS, NEG), repeat=n))
        for report, w in row.items():
            naive = F(1)
            for truth, answer in zip(db, report):
                naive *= channel[truth][answer]
            assert w == naive, (db, report)


def test_rr_row_sums_and_support():
    k = c.randomized_response_kernel(3, F(3, 4))
    for db in k.databases():
        assert sum(k.row(db).values()) == 1
        # reports never contain null: all 2^3 report vectors possible
        assert len(k.row(db)) == 8


def _rr_per_cell(n, q):
    """Randomized response as first written: each cell looked up by its
    database's null count and its agreement count with the report."""
    cell = [[q**a * (1 - q) ** (n - c - a) / 2**c for a in range(n - c + 1)]
            for c in range(n + 1)]
    outputs = tuple(product((POS, NEG), repeat=n))
    return {db: {report: cell[db.count(NULL)][sum(map(operator.eq, db, report))]
                 for report in outputs}
            for db in product((POS, NEG, NULL), repeat=n)}


@pytest.mark.parametrize("q", [F(2, 3), F(3, 4), F(5, 8)], ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rr_kernel_equals_the_per_cell_formula(n, q):
    """Integer rows built by prefix give, read as `Fraction` rows, the
    per-cell formula, cell by cell and in database and report order, sharing
    at most (n+1)(n+2)/2 distinct `Fraction` objects."""
    k = c.randomized_response_kernel(n, q)
    reference = _rr_per_cell(n, q)
    assert kernel_table(k) == reference
    assert list(kernel_table(k)) == list(reference)
    assert all(list(k.row(db)) == list(row) for db, row in reference.items())
    cells = {id(w) for row in kernel_table(k).values() for w in row.values()}
    assert len(cells) <= (n + 1) * (n + 2) // 2


def test_a_builtin_is_validated_in_its_numerators():
    """The constructor tests the numerators' signs and row sums itself: a
    negative numerator or a row off L fails with the error and message of
    the kernel built from the same `Fraction` table, and building RR n=5
    and running `classic_epsilon` builds no `Fraction` weight."""
    dom, outs = (0, 1), ("a", "b")
    for rows in ({(0,): (3, -1), (1,): (1, 1)}, {(0,): (1, 2), (1,): (1, 1)}):
        table = {db: {o: F(p, 2) for o, p in zip(outs, row) if p} for db, row in rows.items()}
        with pytest.raises(c.DomainMismatch) as want:
            c.MechanismKernel.from_table(1, dom, 0, outs, table)
        with pytest.raises(c.DomainMismatch) as got:
            c.MechanismKernel(1, dom, 0, outs, (2, rows))
        assert str(got.value) == str(want.value)
    k = c.randomized_response_kernel(5, F(3, 4))
    c.classic_epsilon(k)
    assert "_fractions" not in vars(k)


def test_the_integer_constructor_checks_its_table():
    """`MechanismKernel(..., (L, rows))` refuses every table that is not one
    tuple of |O| nonnegative ints summing to L >= 1 per database, with
    `DomainMismatch`: a missing or extra database in `check_table`'s words,
    a negative numerator in `exact_row`'s, each as `from_table` words the
    same `Fraction` table.  A short row that still sums to L, even next to
    a long one that keeps the cell count, is refused, so the derived
    `table` never cuts a row short with `zip` and `neighbour_sweep` never
    groups one row's cells with another's: padded, the same rows build a
    kernel whose table and classic ratio are those of its `Fraction` table.
    Rows in another order are stored in `databases()` order, and a factor
    that L shares with every numerator is divided out."""
    dom, outs = (0, 1), ("a", "b")
    good = {(0, 0): (1, 1), (0, 1): (2, 0), (1, 0): (1, 1), (1, 1): (0, 2)}

    def refused(rows, common):
        with pytest.raises(c.DomainMismatch) as raised:
            c.MechanismKernel(2, dom, 0, outs, (common, rows))
        return str(raised.value)

    for rows in ({db: good[db] for db in list(good)[1:]}, {**good, (2, 2): (1, 1)},
                 {**good, (0, 0): (3, -1)}):
        table = {db: {o: F(p, 2) for o, p in zip(outs, row) if p} for db, row in rows.items()}
        with pytest.raises(c.DomainMismatch) as want:
            c.MechanismKernel.from_table(2, dom, 0, outs, table)
        assert refused(rows, 2) == str(want.value)
    for row in ((2,), [2, 0], (True, 0), (2.0, 0), (F(2), 0), ("2", 0), (2, None)):
        assert refused({**good, (0, 1): row}, 2) == \
            f"kernel row (0, 1): expected 2 int numerators, got {row!r}"
    assert refused({**good, (0, 1): (2,), (1, 1): (0, 2, 0)}, 2) == \
        "kernel row (0, 1): expected 2 int numerators, got (2,)"
    for common in (0, -2, True, 2.0):
        assert refused(good, common) == \
            f"kernel table: denominator {common!r} is not a positive int"
    padded = c.MechanismKernel(2, dom, 0, outs, (2, {**good, (0, 1): (2, 0)}))
    table = {db: {o: F(p, 2) for o, p in zip(outs, row) if p} for db, row in good.items()}
    assert kernel_table(padded) == table
    assert c.classic_epsilon(padded) == \
        c.classic_epsilon(c.MechanismKernel.from_table(2, dom, 0, outs, table))
    shuffled = c.MechanismKernel(2, dom, 0, outs, (4, {db: tuple(2 * p for p in good[db])
                                                       for db in reversed(good)}))
    assert shuffled == padded and list(shuffled.integer_table[1]) == list(good)


def test_a_kernel_keeps_no_dict_of_its_caller():
    """An ordered table over its least L is stored as given, in a dict of
    the kernel's own: a later write to the caller's dict changes nothing."""
    rows = {(0,): (1, 0), (1,): (0, 1)}
    kernel = c.MechanismKernel(1, (0, 1), 0, ("a", "b"), (1, rows))
    rows[(0,)] = (7, 0)
    del rows[(1,)]
    assert kernel.integer_table == (1, {(0,): (1, 0), (1,): (0, 1)})


@pytest.mark.parametrize("n,q,expected", [
    (1, F(2, 3), F(2)),
    (2, F(2, 3), F(2)),
    (3, F(2, 3), F(2)),
    (2, F(3, 4), F(3)),
])
def test_rr_classic_ratio_is_odds_of_truth_bias(n, q, expected):
    k = c.randomized_response_kernel(n, q)
    bound = c.classic_epsilon(k)
    assert bound.value == expected
    assert brute_force_classic(k) == expected


# --- geometric count ---------------------------------------------------------------


def test_geometric_ratio_range_enforced():
    for bad in (F(0), F(1), F(3, 2)):
        with pytest.raises(RatioOutOfRange):
            c.geometric_count_kernel(2, bad)


def test_geometric_rows_frozen_n2_half():
    # frozen from the independent oracle: n=2, r=1/2
    k = c.geometric_count_kernel(2, F(1, 2))
    count0 = k.row((NEG, NULL))  # zero pos entries
    assert count0 == {0: F(2, 3), 1: F(1, 6), 2: F(1, 6)}
    count1 = k.row((POS, NEG))
    assert count1 == {0: F(1, 3), 1: F(1, 3), 2: F(1, 3)}
    count2 = k.row((POS, POS))
    assert count2 == {0: F(1, 6), 1: F(1, 6), 2: F(2, 3)}


def test_geometric_rows_depend_only_on_count():
    k = c.geometric_count_kernel(3, F(1, 2))
    assert k.row((POS, NEG, NULL)) == k.row((NULL, NEG, POS))
    assert k.row((POS, POS, NULL)) == k.row((NULL, POS, POS))
    for db in k.databases():
        assert sum(k.row(db).values()) == 1


def test_geometric_row_symmetry_mirror():
    # the clamped two-sided noise is symmetric: row(c)[o] == row(n-c)[n-o]
    n = 3
    k = c.geometric_count_kernel(n, F(1, 3))
    low = k.row((NEG,) * n)     # count 0
    high = k.row((POS,) * n)    # count n
    assert low == {n - o: w for o, w in high.items()}


@pytest.mark.parametrize("r", [F(1, 2), F(1, 3), F(2, 3)], ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_geometric_kernel_equals_its_closed_form(n, r):
    """Every cell is the docstring's closed form at the database's count of
    `pos` entries: r^c/(1+r) at 0, r^(n-c)/(1+r) at n, and
    (1-r)/(1+r) r^|o-c| between."""
    k = c.geometric_count_kernel(n, r)

    def closed_form(count, o):
        if o == 0:
            return r**count / (1 + r)
        if o == n:
            return r ** (n - count) / (1 + r)
        return (1 - r) / (1 + r) * r ** abs(o - count)

    assert list(kernel_table(k)) == list(product((POS, NEG, NULL), repeat=n))
    for db, row in kernel_table(k).items():
        assert list(row) == list(range(n + 1))
        assert row == {o: closed_form(db.count(POS), o) for o in range(n + 1)}


@pytest.mark.parametrize("n,r", [(1, F(1, 2)), (2, F(1, 2)), (3, F(1, 2)),
                                 (2, F(1, 3)), (4, F(2, 3))])
def test_geometric_classic_ratio_is_inverse_noise(n, r):
    k = c.geometric_count_kernel(n, r)
    bound = c.classic_epsilon(k)
    assert bound.value == 1 / r
    assert brute_force_classic(k) == 1 / r


# --- reading a kernel ----------------------------------------------------------------


def test_a_valid_kernel_is_read_in_one_walk(monkeypatch, tmp_path, capsys):
    """A builtin kernel and parsed ones, one of them spelling out "0"
    weights, hold their integer table from construction, and neither their
    construction nor `classic_epsilon` on them walks a row through
    `exact_row`: a valid table is validated by building the integer table,
    once, and a zero weight is a zero numerator.  A valid spelled-out table
    whose rows list the output domain in order is read straight into its
    integer table, without `modelfile._row` or `from_table`.  A builtin
    never derives its `Fraction` table for the checks that only compare its
    rows (`classic`, `strong_adversary_universal`, `whole_db_universal`
    without the cross-check, the CLI's too) or for its digest."""
    text = canonical_json(serialize_input(c.geometric_count_kernel(3, F(1, 3))))
    calls = []
    for module in (dist, mechanisms, sem):
        inner = module.exact_row

        def counted(*args, inner=inner, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, "exact_row", counted)
    zeros = ('{"type": "kernel", "n": 1, "data_domain": [0, 1], "null_value": 0, '
             '"output_domain": ["a", "b"], "table": [[[0], [["a", "1"], ["b", "0"]]], '
             '[[1], [["a", "0"], ["b", "1"]]]]}')
    walked, row, from_table = [], modelfile._row, c.MechanismKernel.from_table
    monkeypatch.setattr(modelfile, "_row",
                        lambda *args: walked.append("_row") or row(*args))
    monkeypatch.setattr(c.MechanismKernel, "from_table", staticmethod(
        lambda *args: walked.append("from_table") or from_table(*args)))
    for kernel in (c.randomized_response_kernel(3, F(2, 3)), parse_text(text),
                   parse_text(zeros)):
        assert "integer_table" in vars(kernel)
        c.classic_epsilon(kernel)
    assert calls == [] and walked == []
    builtins = [c.randomized_response_kernel(3, F(2, 3)), c.geometric_count_kernel(3, F(1, 3))]
    for kernel in builtins:
        for definition in ("classic", "strong_adversary_universal", "whole_db_universal"):
            c.run_check(definition, kernel, F(2), cross_check=False)
        input_digest(kernel)
        assert "_fractions" not in vars(kernel)
    created, post_init = [], c.MechanismKernel.__post_init__

    def recorded(kernel):
        post_init(kernel)
        created.append(kernel)

    monkeypatch.setattr(c.MechanismKernel, "__post_init__", recorded)
    for builtin in ('"randomized_response", "n": 3, "bias": "2/3"',
                    '"geometric_count", "n": 3, "ratio": "1/3"'):
        for definition in ("classic", "strong_adversary_universal", "whole_db_universal"):
            path = tmp_path / "k.json"
            path.write_text(f'{{"type": "kernel", "builtin": {builtin}}}')
            argv = ["check", definition, str(path), "--target-ratio", "2", "--no-cross-check"]
            assert main(argv) in (0, 1)  # a report either way
    assert len(created) == 6
    assert not any("table" in vars(kernel) for kernel in created)


# --- the hiding counterexample kernels -----------------------------------------------


def test_hidden_pair_kernel_shape():
    k = c.hidden_pair_kernel()
    assert k.n == 2 and k.data_domain == (0, 1, 2)
    assert k.row((2, 2)) == {0: F(1)}
    assert k.row((0, 2)) == {0: F(1, 2), 1: F(1, 2)}
    assert c.is_infinite(c.classic_epsilon(k).value)


def test_hidden_value_kernel_shape():
    k = c.hidden_value_kernel()
    assert k.n == 1
    assert k.row((2,)) == {0: F(1)}
    assert k.row((0,)) == {0: F(1, 2), 1: F(1, 2)}
    assert c.is_infinite(c.classic_epsilon(k).value)


def test_constant_kernel_is_perfectly_private():
    k = c.constant_kernel(2, (0, 1), 0, ("x", "y"), {"x": F(1, 3), "y": F(2, 3)})
    assert c.classic_epsilon(k).value == F(1)


# --- classic witness discipline ------------------------------------------------------


def test_classic_witness_is_first_maximizer_and_replays():
    k = c.geometric_count_kernel(2, F(1, 2))
    bound = c.classic_epsilon(k)
    w = bound.witness
    assert w == {"i": 1, "d": (POS, POS), "d_prime_i": NEG, "o": 2}
    num = k.row(w["d"])[w["o"]]
    d2 = (NEG, POS)
    assert num / k.row(d2)[w["o"]] == bound.value


def test_kernel_table_coverage_enforced():
    with pytest.raises(c.DomainMismatch):
        c.MechanismKernel.from_table(2, (0, 1), 0, ("x",), {(0, 0): {"x": F(1)}})


def test_kernel_rows_must_sum_to_one():
    with pytest.raises(c.DomainMismatch):
        c.MechanismKernel.from_table(
            1, (0,), 0, ("x", "y"), {(0,): {"x": F(1, 2), "y": F(1, 3)}}
        )


# --- canonical model ------------------------------------------------------------------


def test_as_sem_structure_and_order():
    k = c.randomized_response_kernel(2, F(2, 3))
    psem = c.as_sem(k)
    assert psem.sem.names == ("R_1", "R_2", "D_1", "D_2", "O")
    assert psem.sem.exogenous == ("R_1", "R_2")
    assert psem.sem.parents_of("D_1") == ("R_1",)
    assert psem.sem.parents_of("O") == ("D_1", "D_2")


def test_as_sem_default_population_is_iid_uniform():
    k = c.hidden_value_kernel()
    psem = c.as_sem(k)
    assert psem.exogenous_dist == Dist.uniform(("R_1",), [(0,), (1,), (2,)])


def test_as_sem_output_matches_kernel_row_under_point_mass():
    k = c.geometric_count_kernel(2, F(1, 2))
    pop = Dist.point_mass(("R_1", "R_2"), (POS, NEG))
    joint = c.as_sem(k, (), pop).lift()
    out = joint.marginal(("O",))
    for o, w in k.row((POS, NEG)).items():
        assert out.weight_of((o,)) == w


def test_as_sem_attribute_equation_correlates_points():
    k = c.geometric_count_kernel(2, F(1, 2))
    attr = (c.copy_equation("R_2", "R_1", k.data_domain),)
    pop = Dist.from_weights(("R_1",), {(POS,): F(1, 2), (NEG,): F(1, 2)})
    joint = c.as_sem(k, attr, pop).lift()
    assert joint.prob({"D_1": POS, "D_2": POS}) == F(1, 2)
    assert joint.prob({"D_1": POS, "D_2": NEG}) == 0


def test_as_sem_shares_one_population_free_model_per_kernel():
    k = c.geometric_count_kernel(2, F(1, 2))
    attr = (c.copy_equation("R_2", "R_1", k.data_domain),)
    tied = c.as_sem(k, attr, Dist.uniform(("R_1",), [(v,) for v in k.data_domain]))
    skew = c.as_sem(k, (), Dist.point_mass(("R_1", "R_2"), (POS, NEG)))
    plain = c.as_sem(k)
    assert skew.sem is plain.sem
    assert tied.sem.exogenous == ("R_1",)
    assert plain.sem.exogenous == ("R_1", "R_2")
    assert "R_2" not in plain.sem.equations


def test_as_sem_reads_a_data_point_population_as_the_inputs():
    # D_i := R_i without attribute equations: the same weights, either name
    rng = random.Random(17)
    k = random_kernel(rng, 2, 3, 2)
    over_d = random_population(rng, k, full_support=False)
    over_r = Dist.from_weights(c.input_names(k), over_d.weights)
    assert c.as_sem(k, (), over_d).lift() == c.as_sem(k, (), over_r).lift()


def test_data_point_population_with_attribute_equations_is_rejected(tmp_path, capsys):
    # with an equation among the inputs, D_i names no exogenous variable
    k = c.geometric_count_kernel(2, F(1, 2))
    attr = (c.copy_equation("R_2", "R_1", k.data_domain),)
    over_d = Dist.from_weights(("D_1",), {(POS,): F(1, 2), (NEG,): F(1, 2)})
    with pytest.raises(c.DomainMismatch):
        c.as_sem(k, attr, over_d)
    path = tmp_path / "model.json"
    model = c.CanonicalModel(k, attr, over_d)
    path.write_text(c.canonical_json(c.serialize_input(model)), encoding="utf-8")
    for definition in sorted(c.NEEDS_POPULATION):
        with pytest.raises(c.DomainMismatch):
            c.run_check(definition, model, F(2))
        argv = ["check", definition.value, str(path), "--target-ratio", "2"]
        assert main(argv) == 4
        assert "error:" in capsys.readouterr().err


def test_as_sem_rejects_attribute_equations_on_data_points():
    k = c.hidden_pair_kernel()
    bad = (c.copy_equation("D_2", "D_1", k.data_domain),)
    with pytest.raises(c.UnknownVariable):
        c.as_sem(k, bad)


def test_engine_closed_forms_match_enumeration_random():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.choice((1, 2))
        k = random_kernel(rng, n, rng.choice((2, 3)), rng.choice((2, 3)))
        pop = random_population(rng, k, full_support=rng.random() < 0.5)
        pop_r = Dist.from_weights(c.input_names(k), dict(pop.weights))
        engine = CanonicalEngine(c.CanonicalModel(k, (), pop_r), cross_check=True)
        for db in k.databases():
            engine.output_given_db(db)  # raises CrossCheckMismatch on any mismatch
        for i in range(1, n + 1):
            for v in k.data_domain:
                engine.output_given_point(i, v)
        expected = len(list(k.databases())) + n * len(k.data_domain)
        assert engine.cross_checks_done == expected


@pytest.mark.parametrize("query, args", [
    ("output_given_point", (2, NULL)),
    ("output_given_db", ((POS, NULL),)),
])
def test_cross_check_names_the_first_differing_output(monkeypatch, query, args):
    # the oracle's row (one lift of O, or the database's slice of the one
    # whole-database lift, scaled by |DB|) moves 1/100 from
    # output 2 to output 1 and lists 2 first, so the first difference in the
    # row's own order would be 2
    k = c.geometric_count_kernel(2, F(1, 2))
    prefix, size = (args[0], len(kernel_table(k))) if query == "output_given_db" else ((), 1)
    honest = c.ProbabilisticSem.lift

    def perturbed(self, variables):
        scale, cells = honest(self, variables).integer_table
        grow = 100 * size
        cells = {point: w * grow for point, w in cells.items()}
        moved = {prefix + (2,): cells.pop(prefix + (2,)) - scale, **cells}
        moved[prefix + (1,)] = moved.get(prefix + (1,), 0) + scale
        return unchecked_dist(variables, (scale * grow, moved))

    monkeypatch.setattr(c.ProbabilisticSem, "lift", perturbed)
    engine = CanonicalEngine(c.CanonicalModel(k), cross_check=True)
    with pytest.raises(c.CrossCheckMismatch) as raised:
        getattr(engine, query)(*args)
    fast = getattr(CanonicalEngine(c.CanonicalModel(k)), query)(*args)
    slow = fast[1] + F(1, 100)
    forced = {"output_given_point": "[('D_2', 'null')]",
              "output_given_db": "[('D_1', 'pos'), ('D_2', 'null')]"}[query]
    assert str(raised.value) == ("closed form disagrees with enumeration under "
                                 f"do({forced}) at output 1: {fast[1]} vs {slow}")
    assert engine.cross_checks_done == 0


def test_a_missing_database_slice_is_a_mismatch(monkeypatch):
    k = c.geometric_count_kernel(2, F(1, 2))
    honest = c.ProbabilisticSem.lift

    def without(self, variables):
        scale, cells = honest(self, variables).integer_table
        return unchecked_dist(variables, (scale, {point: w for point, w in cells.items()
                                                  if point[:-1] != (POS, NULL)}))

    monkeypatch.setattr(c.ProbabilisticSem, "lift", without)
    engine = CanonicalEngine(c.CanonicalModel(k), cross_check=True)
    assert engine.output_given_db((POS, POS)) == k.row((POS, POS))
    with pytest.raises(c.CrossCheckMismatch) as raised:
        engine.output_given_db((POS, NULL))
    assert str(raised.value) == (
        "closed form disagrees with enumeration under "
        "do([('D_1', 'pos'), ('D_2', 'null')]) at output 0: "
        f"{k.row((POS, NULL))[0]} vs None"
    )
    assert engine.cross_checks_done == 1


@pytest.mark.parametrize("definition", ["whole_db_universal", "whole_db_intervention"])
def test_whole_db_check_names_the_first_database_the_pairs_read(monkeypatch,
                                                                definition):
    # two databases lose their oracle slices; (pos, neg) comes first in
    # lexicographic order, but the comparisons read (neg, pos) first, as the
    # replacement of point 1 in (pos, pos)
    k = c.geometric_count_kernel(2, F(1, 2))
    honest = c.ProbabilisticSem.lift

    def without(self, variables):
        scale, cells = honest(self, variables).integer_table
        return unchecked_dist(variables, (scale, {
            point: w for point, w in cells.items()
            if point[:-1] not in {(POS, NEG), (NEG, POS)}}))

    monkeypatch.setattr(c.ProbabilisticSem, "lift", without)
    pop = c.Dist.uniform(c.data_point_names(k), k.databases()) \
        if definition.endswith("intervention") else None
    with pytest.raises(c.CrossCheckMismatch) as raised:
        c.run_check(definition, k, F(2), pop)
    assert str(raised.value) == (
        "closed form disagrees with enumeration under "
        "do([('D_1', 'neg'), ('D_2', 'pos')]) at output 0: "
        f"{k.row((NEG, POS))[0]} vs None"
    )


@pytest.mark.parametrize("definition", ["whole_db_universal", "whole_db_intervention"])
def test_whole_db_check_cross_checks_every_database_once(monkeypatch, definition):
    engines = []

    class Recorded(CanonicalEngine):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)

    monkeypatch.setattr(checkers, "CanonicalEngine", Recorded)
    k = c.randomized_response_kernel(3, F(3, 4))
    pop = random_population(random.Random(5), k, full_support=False)
    report = c.run_check(definition, k, F(3),
                         pop if definition.endswith("intervention") else None)
    assert report.achieved == F(3)
    assert [e.cross_checks_done for e in engines] == [len(kernel_table(k))] == [3**3]


@pytest.mark.parametrize("change, mismatch", [
    ("moved", "'a': 1 vs None"),
    ("added", "'b': None vs 1/2"),
])
def test_an_oracle_cell_off_the_row_is_a_mismatch(monkeypatch, change, mismatch):
    # database (0,)'s row is a point mass on 'a'; its slice of the
    # whole-database lift moves that weight to 'b' (same size, no cell in
    # common) or gains a cell at 'b' (every cell of the row still matched)
    k = c.MechanismKernel.from_table(1, (0, 1), 0, ("a", "b"),
                                     {(0,): {"a": F(1)}, (1,): {"a": F(1, 2), "b": F(1, 2)}})
    honest = c.ProbabilisticSem.lift

    def perturbed(self, variables):
        scale, cells = honest(self, variables).integer_table
        if change == "moved":
            cells[(0, "b")] = cells.pop((0, "a"))
        else:
            cells[(0, "b")] = cells[(0, "a")] // 2
        return unchecked_dist(variables, (scale, cells))

    monkeypatch.setattr(c.ProbabilisticSem, "lift", perturbed)
    engine = CanonicalEngine(c.CanonicalModel(k), cross_check=True)
    with pytest.raises(c.CrossCheckMismatch) as raised:
        engine.output_given_db((0,))
    assert str(raised.value) == ("closed form disagrees with enumeration under "
                                 f"do([('D_1', 0)]) at output {mismatch}")
    assert engine.cross_checks_done == 0


def test_whole_db_cross_checks_sum_the_population_once(monkeypatch):
    """All whole-database cross-checks of an engine read one oracle lift:
    the uniform input is summed onto R_1..R_n once per engine, not once per
    database, and every database is still compared."""
    summed = []
    raw = Dist.marginal.__wrapped__

    def counting(self, names):
        summed.append(names)
        return raw(self, names)

    lifts = []
    lift = c.ProbabilisticSem.lift

    def counted_lift(self, *args):
        lifts.append(args)
        return lift(self, *args)

    engines = []

    class Recorded(CanonicalEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(Dist, "marginal", memoized(counting))
    monkeypatch.setattr(c.ProbabilisticSem, "lift", counted_lift)
    monkeypatch.setattr(checkers, "CanonicalEngine", Recorded)
    k = c.randomized_response_kernel(3, F(2, 3))
    report = c.run_check(c.DefinitionId.WHOLE_DB_UNIVERSAL, k, F(2))
    assert report.passed
    assert [e.cross_checks_done for e in engines] == [27]
    assert lifts == [(("R_1", "R_2", "R_3", "O"),)]
    assert summed == [("R_1", "R_2", "R_3")]


def test_engine_db_query_ignores_population():
    k = c.randomized_response_kernel(2, F(2, 3))
    skew = Dist.from_weights(c.input_names(k), {(POS, POS): F(1)})
    uniform = Dist.uniform(
        c.input_names(k), product(k.data_domain, repeat=2)
    )
    e1 = CanonicalEngine(c.CanonicalModel(k, (), skew), cross_check=True)
    e2 = CanonicalEngine(c.CanonicalModel(k, (), uniform), cross_check=True)
    for db in k.databases():
        assert e1.output_given_db(db) == e2.output_given_db(db)


def test_engine_point_query_uses_undisturbed_marginal():
    # hand-computable: n=2, correlated population, do(D_1 = v)
    k = c.hidden_pair_kernel()
    pop = Dist.from_weights(("R_1", "R_2"), {(0, 0): F(1, 2), (2, 2): F(1, 2)})
    engine = CanonicalEngine(c.CanonicalModel(k, (), pop), cross_check=True)
    got = engine.output_given_point(1, 2)
    # other point keeps its marginal: 0 or 2 with prob 1/2 each
    # db (2,0): coin; db (2,2): always 0
    assert got == {0: F(1, 2) * F(1, 2) + F(1, 2), 1: F(1, 4)}


def test_engine_rejects_bad_point_queries():
    k = c.hidden_value_kernel()
    engine = CanonicalEngine(c.CanonicalModel(k))
    for query in (engine.output_given_point, engine.output_conditioned_on_point):
        with pytest.raises(c.ValueOutOfDomain):
            query(2, 0)
        with pytest.raises(c.ValueOutOfDomain):
            query(1, 9)
    with pytest.raises(c.ValueOutOfDomain):
        engine.output_conditioned_on_db((9,))


def test_engine_conditioning_and_intervening_differ_only_in_weights():
    # same correlated population as above: D_1 = D_2 = 0 or 2, half each
    k = c.hidden_pair_kernel()
    pop = Dist.from_weights(("R_1", "R_2"), {(0, 0): F(1, 2), (2, 2): F(1, 2)})
    engine = CanonicalEngine(c.CanonicalModel(k, (), pop))
    # conditioning on D_1 = 2 fixes D_2 = 2; intervening leaves D_2 alone
    assert engine.output_conditioned_on_point(1, 2) == {0: F(1)}
    assert engine.output_given_point(1, 2) == {0: F(3, 4), 1: F(1, 4)}
    assert engine.output_conditioned_on_point(1, 1) is None
    assert engine.output_conditioned_on_db((2, 2)) == k.row((2, 2))
    assert engine.output_conditioned_on_db((0, 2)) is None
    assert engine.base_joint().variables == ("D_1", "D_2")


def test_lifts_marginals_and_population_reads_build_no_fraction(monkeypatch):
    """A lift, a marginal, a conditional, a product and every read the
    engine makes of its population run in integers: none of them builds a
    `Fraction`, cross-checked or not.  (`prob` and `weight_of` build one
    at the end, `weights` one per distinct numerator.)"""
    k = c.randomized_response_kernel(2, F(2, 3))
    dom = k.data_domain
    pop = c.Dist.product(c.Dist.uniform(("D_1",), [(v,) for v in dom[:2]]),
                         c.Dist.point_mass(("D_2",), (dom[0],)))
    psem = c.as_sem(k, (), pop)
    built = []
    new = F.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting))
    joint = psem.lift()
    joint.marginal(("O", "D_1")).condition({"D_1": dom[1]})
    c.Dist.product(joint.marginal(("D_2",)), c.Dist.point_mass(("X",), (0,)))
    psem.intervene("D_1", dom[2]).lift(("O",))
    for cross_check in (True, False):
        engine = CanonicalEngine(c.CanonicalModel(k, (), pop), cross_check)
        for db in k.databases():
            engine.output_given_db(db)
            engine.output_conditioned_on_db(db)
        for i, v in product((1, 2), dom):
            engine.output_given_point(i, v)
            engine.output_conditioned_on_point(i, v)
    monkeypatch.undo()
    assert built == []
