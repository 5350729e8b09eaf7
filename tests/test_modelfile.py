"""The strict JSON dialect: parsing, serialization, digests."""

import json
import sys
from fractions import Fraction as F

import pytest

import causaldp as c
from causaldp.modelfile import (
    canonical_json,
    input_digest,
    load_strict_json,
    parse_text,
    parse_value,
    serialize_input,
    witness_from_json,
)
from causaldp.cli import main

RR_BUILTIN = """
{"type": "kernel", "builtin": "randomized_response", "n": 2, "bias": "2/3"}
"""

EXTENSIONAL_COIN = """
{
  "type": "kernel",
  "n": 1,
  "data_domain": [0, 1],
  "null_value": 0,
  "output_domain": ["h", "t"],
  "table": [
    [[0], [["h", "1/2"], ["t", "1/2"]]],
    [[1], [["h", "1/2"], ["t", "1/2"]]]
  ]
}
"""


# --- rational strictness ---------------------------------------------------------


def test_decimal_string_rejected_with_guidance():
    with pytest.raises(c.ParseError) as exc:
        parse_text(RR_BUILTIN.replace('"2/3"', '"0.5"'))
    assert "1/2" in str(exc.value)


def test_float_literal_rejected():
    with pytest.raises(c.ParseError) as exc:
        parse_text(RR_BUILTIN.replace('"2/3"', "0.5"))
    assert "float literal" in str(exc.value)


def test_nan_and_infinity_literals_rejected():
    for literal in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(c.ParseError):
            load_strict_json(f'{{"x": {literal}}}')


def test_duplicate_object_key_rejected():
    """json.loads keeps the last of two equal keys; the dialect gives a file
    one meaning, so a repeated key is an error, at any depth."""
    for text in ('{"n": 2, "n": 3}', '{"a": [{"x": 1, "y": 2, "x": 1}]}'):
        with pytest.raises(c.ParseError) as exc:
            load_strict_json(text)
        assert "duplicate key" in str(exc.value)
    with pytest.raises(c.ParseError, match="duplicate key 'n'"):
        parse_text(RR_BUILTIN.replace('"n": 2', '"n": 2, "n": 3'))
    assert load_strict_json('{"n": 2, "m": {"n": 3}}') == {"n": 2, "m": {"n": 3}}


def test_malformed_json_is_parse_error():
    with pytest.raises(c.ParseError):
        parse_text("{not json")


def test_integer_weight_rejected_as_rational():
    with pytest.raises(c.ParseError) as exc:
        parse_text(RR_BUILTIN.replace('"2/3"', "1"))
    assert 'rational string like "1/2"' in str(exc.value)


# --- value strictness ------------------------------------------------------------


def test_bool_rejected_as_value():
    bad = EXTENSIONAL_COIN.replace('"null_value": 0', '"null_value": true')
    with pytest.raises(c.ValidationError) as exc:
        parse_text(bad)
    assert "bool" in str(exc.value)


def test_object_rejected_as_value():
    bad = EXTENSIONAL_COIN.replace('"null_value": 0', '"null_value": {"a": 1}')
    with pytest.raises(c.ValidationError):
        parse_text(bad)


def test_nested_arrays_become_tuples():
    assert parse_value("[1, [2, 3], \"x\"]") == (1, (2, 3), "x")
    assert parse_value('"7/2"') == "7/2"  # strings stay strings in value position


def test_unknown_key_rejected():
    bad = RR_BUILTIN.replace('"n": 2', '"n": 2, "extra": 1')
    with pytest.raises(c.ValidationError) as exc:
        parse_text(bad)
    assert "extra" in str(exc.value)


def test_missing_key_rejected():
    bad = '{"type": "kernel", "builtin": "randomized_response", "n": 2}'
    with pytest.raises(c.ValidationError) as exc:
        parse_text(bad)
    assert "bias" in str(exc.value)


def test_duplicate_table_rows_rejected():
    dup = EXTENSIONAL_COIN.replace(
        '[[1], [["h", "1/2"], ["t", "1/2"]]]',
        '[[0], [["h", "1/2"], ["t", "1/2"]]]',
    )
    with pytest.raises(c.ValidationError) as exc:
        parse_text(dup)
    assert "duplicate" in str(exc.value)


def test_row_sum_error_carries_location():
    bad = EXTENSIONAL_COIN.replace('["t", "1/2"]', '["t", "1/3"]')
    with pytest.raises(c.ValidationError) as exc:
        parse_text(bad)
    assert exc.value.location.startswith("kernel")


def _kernel_table(table, output_domain=("h", "t")):
    return {"type": "kernel", "n": 1, "data_domain": [0, 1], "null_value": 0,
            "output_domain": list(output_domain), "table": table}


def _distribution(weights):
    return {"type": "distribution", "variables": ["A", "B"], "weights": weights}


def _sem_rows(rows):
    return {"type": "sem", "variables": [["X", [0, 1]], ["Y", [0, 1]]],
            "equations": [{"target": "Y", "parents": ["X"], "rows": rows}]}


FAIR = [["h", "1/2"], ["t", "1/2"]]
COIN = [[0, "1/2"], [1, "1/2"]]


def _nested(depth):
    """0 inside `depth` arrays."""
    value = 0
    for _ in range(depth):
        value = [value]
    return value


# a value may nest 32 arrays deep: the 33rd is named at its own location
TOO_DEEP = "[0]" * 32

# (input, exception class, location, class of the model error it wraps)
MALFORMED_TABLES = {
    "kernel duplicate key": (
        _kernel_table([[[0], FAIR], [[0], FAIR]]),
        c.ValidationError, "kernel.table[1][0]", None),
    "kernel non-array key": (
        _kernel_table([[0, FAIR], [[1], FAIR]]),
        c.ValidationError, "kernel.table[0][0]", None),
    "kernel duplicate value": (
        _kernel_table([[[0], [["h", "1/2"], ["h", "1/2"]]], [[1], FAIR]]),
        c.ValidationError, "kernel.table[0][1][1]", None),
    "kernel negative weight": (
        _kernel_table([[[0], [["h", "-1/2"], ["t", "3/2"]]], [[1], FAIR]]),
        c.ValidationError, "kernel", c.DomainMismatch),
    "kernel wrong sum": (
        _kernel_table([[[0], [["h", "1/2"], ["t", "1/3"]]], [[1], FAIR]]),
        c.ValidationError, "kernel", c.DomainMismatch),
    "kernel missing row": (
        _kernel_table([[[0], FAIR]]),
        c.ValidationError, "kernel", c.DomainMismatch),
    "kernel value outside domain": (
        _kernel_table([[[0], [["h", "1/2"], ["x", "1/2"]]], [[1], FAIR]]),
        c.ValidationError, "kernel", c.ValueOutOfDomain),
    "kernel point of wrong width": (
        _kernel_table([[[0], FAIR], [[1, 0], FAIR]]),
        c.ValidationError, "kernel", c.DomainMismatch),
    "kernel non-rational weight": (
        _kernel_table([[[0], [["h", "1/2"], ["t", 1]]], [[1], FAIR]]),
        c.ParseError, "kernel.table[0][1][1][1]", None),
    "kernel row entry not a pair": (
        _kernel_table([[[0], [["h", "1/2"], ["t"]]], [[1], FAIR]]),
        c.ValidationError, "kernel.table[0][1][1]", None),
    "kernel table entry not a pair": (
        _kernel_table([[[0], FAIR], [[1]]]),
        c.ValidationError, "kernel.table[1]", None),
    "kernel decimal weight": (
        _kernel_table([[[0], [["h", "1/2"], ["t", "0.5"]]], [[1], FAIR]]),
        c.ParseError, "kernel.table[0][1][1][1]", None),
    "kernel boolean in key": (
        _kernel_table([[[0], FAIR], [[True], FAIR]]),
        c.ValidationError, "kernel.table[1][0][0]", None),
    "kernel boolean value": (
        _kernel_table([[[0], [[True, "1/2"], ["t", "1/2"]]], [[1], FAIR]]),
        c.ValidationError, "kernel.table[0][1][0][0]", None),
    # true == 1 and [0, true] == [0, 1]: each row would equal the domain
    "kernel boolean value among integer outputs": (
        _kernel_table([[[0], [[0, "1/2"], [True, "1/2"]]], [[1], COIN]], [0, 1]),
        c.ValidationError, "kernel.table[0][1][1][0]", None),
    "kernel boolean inside an array value": (
        _kernel_table([[[0], [[[0, True], "1/2"], [[1, 0], "1/2"]]],
                       [[1], [[[0, 1], "1/2"], [[1, 0], "1/2"]]]], [[0, 1], [1, 0]]),
        c.ValidationError, "kernel.table[0][1][0][0][1]", None),
    "distribution duplicate key": (
        _distribution([[[0, 0], "1/2"], [[0, 0], "1/2"]]),
        c.ValidationError, "distribution.weights[1][0]", None),
    "distribution non-array key": (
        _distribution([[0, "1/2"], [[0, 1], "1/2"]]),
        c.ValidationError, "distribution.weights[0][0]", None),
    "distribution negative weight": (
        _distribution([[[0, 0], "-1/2"], [[0, 1], "3/2"]]),
        c.ValidationError, "distribution", c.InvalidDistribution),
    "distribution wrong sum": (
        _distribution([[[0, 0], "1/2"], [[0, 1], "1/3"]]),
        c.ValidationError, "distribution", c.InvalidDistribution),
    "distribution point of wrong width": (
        _distribution([[[0, 0], "1/2"], [[0], "1/2"]]),
        c.ValidationError, "distribution", c.InvalidDistribution),
    "distribution entry not a pair": (
        _distribution([[[0, 0], "1/2"], [[0, 1]]]),
        c.ValidationError, "distribution.weights[1]", None),
    "distribution decimal weight": (
        _distribution([[[0, 0], "1/2"], [[0, 1], "0.5"]]),
        c.ParseError, "distribution.weights[1][1]", None),
    "equation duplicate key": (
        _sem_rows([[[0], COIN], [[0], COIN]]),
        c.ValidationError, "sem.equations[0].rows[1][0]", None),
    "equation non-array key": (
        _sem_rows([[0, COIN], [[1], COIN]]),
        c.ValidationError, "sem.equations[0].rows[0][0]", None),
    "equation duplicate value": (
        _sem_rows([[[0], [[0, "1/2"], [0, "1/2"]]], [[1], COIN]]),
        c.ValidationError, "sem.equations[0].rows[0][1][1]", None),
    "equation negative weight": (
        _sem_rows([[[0], [[0, "-1/2"], [1, "3/2"]]], [[1], COIN]]),
        c.ValidationError, "sem.equations[0]", c.DomainMismatch),
    "equation wrong sum": (
        _sem_rows([[[0], [[0, "1/2"], [1, "1/3"]]], [[1], COIN]]),
        c.ValidationError, "sem.equations[0]", c.DomainMismatch),
    "equation missing row": (
        _sem_rows([[[0], COIN]]),
        c.ValidationError, "sem", c.DomainMismatch),
    "equation value outside domain": (
        _sem_rows([[[0], [[0, "1/2"], [2, "1/2"]]], [[1], COIN]]),
        c.ValidationError, "sem", c.ValueOutOfDomain),
    "equation point of wrong width": (
        _sem_rows([[[0], COIN], [[1, 0], COIN]]),
        c.ValidationError, "sem.equations[0]", c.DomainMismatch),
    "equation value nested too deeply": (
        _sem_rows([[[0], [[_nested(33), "1"]]], [[1], COIN]]),
        c.ParseError, "sem.equations[0].rows[0][1][0][0]" + TOO_DEEP, None),
    "kernel sparse row value nested too deeply": (
        _kernel_table([[[0], [[_nested(33), "1"]]], [[1], FAIR]]),
        c.ParseError, "kernel.table[0][1][0][0]" + TOO_DEEP, None),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TABLES))
def test_malformed_table_error_class_and_location(case):
    obj, error, location, cause = MALFORMED_TABLES[case]
    with pytest.raises(error) as exc:
        parse_text(json.dumps(obj))
    assert type(exc.value) is error
    assert exc.value.location == location
    assert type(exc.value.__cause__) is (type(None) if cause is None else cause)


def _oversized_integer() -> str:
    """One digit more than Python converts from a string; skips when this
    Python has no such limit."""
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        pytest.skip("this Python converts integers of any length")
    return "1" * (limit + 1)


@pytest.mark.parametrize("make, location", [
    (lambda big: _kernel_table([[[0], [["h", big + "/2"], ["t", "1/2"]]], [[1], FAIR]]),
     "kernel.table[0][1][0][1]"),
    (lambda big: _distribution([[[0, 0], "1/2"], [[0, 1], "1/" + big]]),
     "distribution.weights[1][1]"),
    (lambda big: {"type": "kernel", "builtin": "randomized_response", "n": 2,
                  "bias": big}, "kernel.bias"),
], ids=["kernel_cell", "distribution_weight", "builtin_bias"])
def test_oversized_rational_is_a_parse_error_at_its_node(make, location):
    with pytest.raises(c.ParseError) as exc:
        parse_text(json.dumps(make(_oversized_integer())))
    assert exc.value.location == location
    assert "too long" in str(exc.value)


def test_unknown_type_tag_rejected():
    with pytest.raises(c.ValidationError):
        parse_text('{"type": "mystery"}')


# --- builtins and round-trips ------------------------------------------------------


def test_builtin_rr_expands_to_real_kernel():
    k = parse_text(RR_BUILTIN)
    assert k == c.randomized_response_kernel(2, F(2, 3))


def test_builtin_geo_expands():
    k = parse_text('{"type": "kernel", "builtin": "geometric_count", "n": 3, '
                   '"ratio": "1/2"}')
    assert k == c.geometric_count_kernel(3, F(1, 2))


def test_builtin_hiding_kernels_expand():
    assert parse_text('{"type": "kernel", "builtin": "hidden_pair"}') == \
        c.hidden_pair_kernel()
    assert parse_text('{"type": "kernel", "builtin": "hidden_value"}') == \
        c.hidden_value_kernel()


def test_serialize_then_parse_is_identity_for_kernels():
    for k in (
        c.randomized_response_kernel(2, F(2, 3)),
        c.geometric_count_kernel(2, F(1, 2)),
        c.hidden_pair_kernel(),
        parse_text(EXTENSIONAL_COIN),
    ):
        blob = canonical_json(serialize_input(k))
        assert parse_text(blob) == k


def test_builtin_and_extensional_forms_share_digest():
    # the digest is over the canonical serialization, which always expands
    built = parse_text(RR_BUILTIN)
    blob = canonical_json(serialize_input(built))
    reparsed = parse_text(blob)
    assert input_digest(built) == input_digest(reparsed)
    assert input_digest(built).startswith("sha256:")


def test_frozen_digests_for_bundled_kernels():
    rr = c.randomized_response_kernel(2, F(2, 3))
    hp = c.hidden_pair_kernel()
    assert input_digest(rr) == \
        "sha256:980d12f78a0750c260403574b84f3cbaa2de57e652f8b38e9435b7acd578eb70"
    assert input_digest(hp) == \
        "sha256:10737c850229096d78fce5b87064bfa6f8c294c00e4a3582b894ad80e58c8428"


def test_distribution_round_trip():
    d = c.Dist.from_weights(("R_1", "R_2"), {(0, 1): F(1, 3), (1, 0): F(2, 3)})
    blob = canonical_json(serialize_input(d))
    assert parse_text(blob) == d


def test_sem_round_trip_preserves_declared_order():
    eq = c.StochasticEquation.from_rows("Y", ("X",), {(0,): {0: F(1, 2), 1: F(1, 2)},
                                                      (1,): {1: F(1)}})
    sem = c.Sem(("X", "Y"), {"X": (0, 1), "Y": (0, 1)}, {"Y": eq})
    blob = canonical_json(serialize_input(sem))
    back = parse_text(blob)
    assert back == sem
    assert back.names == ("X", "Y")


def test_canonical_model_round_trip_with_population():
    k = c.geometric_count_kernel(2, F(1, 2))
    attr = (c.copy_equation("R_2", "R_1", k.data_domain),)
    pop = c.Dist.from_weights(("R_1",), {(c.POS,): F(1, 2), (c.NEG,): F(1, 2)})
    model = c.CanonicalModel(k, attr, pop)
    blob = canonical_json(serialize_input(model))
    back = parse_text(blob)
    assert back == model


def test_canonical_model_omits_empty_parts():
    model = c.CanonicalModel(c.hidden_value_kernel(), (), None)
    blob = serialize_input(model)
    assert "population" not in blob
    assert "attribute_equations" not in blob


def test_composition_round_trip():
    spec = parse_text(COMPOSITION_TEXT)
    blob = canonical_json(serialize_input(spec))
    assert parse_text(blob) == spec


COMPOSITION_TEXT = """
{
  "type": "composition",
  "x": "X", "y1": "Y1", "y2": "Y2",
  "ratio1": "2/1", "ratio2": "2/1",
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
    "variables": [["X", [0, 1]], ["Y1", [0, 1]], ["Y2", [0, 1, 2]]],
    "equations": [
      {"target": "Y2", "parents": ["X", "Y1"],
       "rows": [[[0, 0], [[0, "1/1"]]],
                [[0, 1], [[1, "1/1"]]],
                [[1, 0], [[1, "1/1"]]],
                [[1, 1], [[2, "1/1"]]]]}
    ]
  }
}
"""


# --- canonical form and digests -------------------------------------------------------


def test_canonical_json_is_stable_and_newline_terminated():
    obj = {"b": 1, "a": [1, 2], "nested": {"z": "x", "y": "w"}}
    once = canonical_json(obj)
    again = canonical_json(json.loads(once))
    assert once == again
    assert once.endswith("\n")
    assert once.index('"a"') < once.index('"b"')


def test_canonical_json_keeps_unicode_readable():
    assert "é" in canonical_json({"name": "é"})


def test_witness_from_json_restores_tuples():
    w = witness_from_json({"i": 1, "d": [0, 1], "d_prime_i": 1, "o": [1, 0]})
    assert w == {"i": 1, "d": (0, 1), "d_prime_i": 1, "o": (1, 0)}


def test_witness_from_json_refuses_a_non_object():
    with pytest.raises(c.ValidationError) as raised:
        witness_from_json([1, 0], "replay.witness")
    assert (str(raised.value), raised.value.location) == \
        ("witness must be an object (at replay.witness)", "replay.witness")


@pytest.mark.parametrize("text, message, location", [
    ('{"type": "sem", "variables": [], "equations": [5]}',
     "expected an object, got int", "sem.equations[0]"),
    ('{"type": "distribution", "variables": [1], "weights": []}',
     "expected a string, got int 1", "distribution.variables[0]"),
    ('{"type": "distribution", "variables": "A", "weights": []}',
     "expected an array, got str", "distribution.variables"),
    ('{"type": "distribution", "variables": ["A"], "weights": 5}',
     "expected an array, got int", "distribution.weights"),
])
def test_a_node_of_the_wrong_kind_is_named_at_its_location(tmp_path, capsys, text,
                                                           message, location):
    """A non-object, a non-string, a non-array and a non-array of pairs:
    each is a ValidationError at its node, and the CLI exits 4 with it."""
    with pytest.raises(c.ValidationError) as raised:
        parse_text(text)
    assert type(raised.value) is c.ValidationError
    assert (str(raised.value), raised.value.location) == \
        (f"{message} (at {location})", location)
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    assert main(["epsilon", str(path)]) == 4
    assert capsys.readouterr() == ("", f"error: {message} (at {location})\n")


def test_an_unknown_builtin_is_named_at_its_location(tmp_path, capsys):
    text = '{"type": "kernel", "builtin": "nope"}'
    with pytest.raises(c.ValidationError) as raised:
        parse_text(text)
    assert raised.value.location == "kernel.builtin"
    message = ("unknown builtin 'nope'; known: ['geometric_count', 'hidden_pair', "
               "'hidden_value', 'randomized_response'] (at kernel.builtin)")
    assert str(raised.value) == message
    path = tmp_path / "k.json"
    path.write_text(text, encoding="utf-8")
    assert main(["epsilon", str(path)]) == 4
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_serialize_input_refuses_what_no_parser_returns():
    spec = parse_text(COMPOSITION_TEXT)
    wired = c.compose_sequential(spec.first, spec.second, spec.x, spec.y1, spec.y2)
    with pytest.raises(TypeError) as raised:
        serialize_input(wired)
    assert str(raised.value) == "serialize the CompositionSpec, not the wired models"
    with pytest.raises(TypeError) as raised:
        serialize_input(F(1, 2))
    assert str(raised.value) == "cannot serialize Fraction"


def test_report_to_json_shape():
    k = c.randomized_response_kernel(1, F(2, 3))
    rep = c.run_check(c.DefinitionId.CLASSIC, k, target_ratio=F(2))
    blob = c.modelfile.report_to_json(rep, input_digest(k))
    assert blob["type"] == "check_report"
    assert blob["definition"] == "classic"
    assert blob["achieved"] == "2/1"
    assert blob["passed"] is True
    assert blob["tool_version"] == c.modelfile.TOOL_VERSION
    assert blob["input_digest"].startswith("sha256:")
    assert blob["epsilon_achieved"] == "0.6931"
    assert blob["epsilon_target"] == "0.6931"
    json.dumps(blob)  # must be plain JSON types throughout


def test_infinite_ratio_serializes_as_inf_string():
    k = c.hidden_value_kernel()
    rep = c.run_check(c.DefinitionId.CLASSIC, k, target_ratio=F(2))
    blob = c.modelfile.report_to_json(rep)
    assert blob["achieved"] == "inf"
    assert blob["passed"] is False
