"""Reading and writing models and reports as a restricted JSON dialect.

The dialect is strict so that every file has exactly one meaning:

  * probabilities and ratios are strings of integers like "2/3" (or "2");
    float literals anywhere in a file are rejected outright, as are float
    strings like "0.5";
  * domain values are strings, integers, or arrays of values (arrays become
    tuples);
  * anything keyed by a value (kernel tables, distribution weights, equation
    rows) is written as an array of [key, value] pairs, never as a JSON
    object, so non-string keys survive the trip;
  * objects carry a "type" tag and unknown keys are errors.

Serialization is canonical: fixed key order (alphabetical), two-space
indent, a single trailing newline, and fixed row ordering.  Equal objects
serialize to identical bytes, which the report digests rely on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from .brp import SequentialComposition
from .dist import Dist
from .errors import CausalDpError, ParseError, ValidationError
from .exact import (
    Ratio,
    Value,
    epsilon_of,
    format_ratio,
    parse_rational,
    value_sort_key,
)
from .mechanisms import (
    CanonicalModel,
    MechanismKernel,
    geometric_count_kernel,
    hidden_pair_kernel,
    hidden_value_kernel,
    randomized_response_kernel,
)
from .reports import CheckReport, DefinitionId
from .sem import Sem, StochasticEquation

TOOL_VERSION = "0.1.0"

# Bumped whenever report content changes by design (the enumeration order
# behind witnesses, row ordering, a reduction note); lets old reports be read.
ENUMERATION_ORDER_VERSION = 2


# --- low-level parsing helpers -------------------------------------------------


def _reject_float(literal: str):
    raise ParseError(
        f"float literal {literal} is not allowed; write exact integer ratios "
        f'like "1/2"'
    )


def _reject_constant(literal: str):
    raise ParseError(f"JSON constant {literal} is not allowed")


def load_strict_json(text: str) -> Any:
    try:
        return json.loads(
            text, parse_float=_reject_float, parse_constant=_reject_constant
        )
    except json.JSONDecodeError as e:
        raise ParseError(f"not valid JSON: {e}") from None


def _require_keys(obj: dict, required: set[str], optional: set[str], loc: str):
    if not isinstance(obj, dict):
        raise ValidationError(f"expected an object, got {type(obj).__name__}", loc)
    keys = set(obj)
    missing = required - keys
    if missing:
        raise ValidationError(f"missing keys {sorted(missing)}", loc)
    extra = keys - required - optional
    if extra:
        raise ValidationError(f"unknown keys {sorted(extra)}", loc)


def _value(node: Any, loc: str) -> Value:
    if isinstance(node, bool):
        raise ValidationError("booleans are not domain values", loc)
    if isinstance(node, (str, int)):
        return node
    if isinstance(node, list):
        return tuple(_value(x, f"{loc}[{i}]") for i, x in enumerate(node))
    raise ValidationError(
        f"domain values are strings, integers, or arrays; got "
        f"{type(node).__name__}", loc,
    )


def _rational(node: Any, loc: str) -> Fraction:
    if not isinstance(node, str):
        raise ParseError(
            f'expected a rational string like "1/2", got {node!r}', loc
        )
    return parse_rational(node, loc)


def _int(node: Any, loc: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ValidationError(f"expected an integer, got {node!r}", loc)
    return node


def _string(node: Any, loc: str) -> str:
    if not isinstance(node, str):
        raise ValidationError(f"expected a string, got {node!r}", loc)
    return node


def _array(node: Any, loc: str) -> list:
    if not isinstance(node, list):
        raise ValidationError(f"expected an array, got {type(node).__name__}", loc)
    return node


def _pairs(node: Any, loc: str) -> list[tuple[Any, Any]]:
    out = []
    for i, entry in enumerate(_array(node, loc)):
        here = f"{loc}[{i}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise ValidationError("expected a [key, value] pair", here)
        out.append((entry[0], entry[1]))
    return out


def _wrap_model_error(fn: Callable, loc: str):
    try:
        return fn()
    except (ParseError, ValidationError):
        raise
    except CausalDpError as e:
        raise ValidationError(str(e), loc) from e


# --- object parsers -------------------------------------------------------------


_BUILTIN_KERNELS = {
    "geometric_count": ({"n", "ratio"}, lambda obj, loc: geometric_count_kernel(
        _int(obj["n"], f"{loc}.n"), _rational(obj["ratio"], f"{loc}.ratio"))),
    "randomized_response": ({"n", "bias"}, lambda obj, loc: randomized_response_kernel(
        _int(obj["n"], f"{loc}.n"), _rational(obj["bias"], f"{loc}.bias"))),
    "hidden_pair": (set(), lambda obj, loc: hidden_pair_kernel()),
    "hidden_value": (set(), lambda obj, loc: hidden_value_kernel()),
}


def parse_kernel(obj: dict, loc: str = "kernel") -> MechanismKernel:
    if isinstance(obj, dict) and "builtin" in obj:
        name = _string(obj["builtin"], f"{loc}.builtin")
        if name not in _BUILTIN_KERNELS:
            raise ValidationError(
                f"unknown builtin {name!r}; known: "
                f"{sorted(_BUILTIN_KERNELS)}", f"{loc}.builtin",
            )
        params, build = _BUILTIN_KERNELS[name]
        _require_keys(obj, {"type", "builtin"} | params, set(), loc)
        return _wrap_model_error(lambda: build(obj, loc), loc)
    _require_keys(
        obj, {"type", "n", "data_domain", "null_value", "output_domain", "table"},
        set(), loc,
    )
    n = _int(obj["n"], f"{loc}.n")
    data_domain = tuple(
        _value(v, f"{loc}.data_domain[{i}]")
        for i, v in enumerate(_array(obj["data_domain"], f"{loc}.data_domain"))
    )
    null_value = _value(obj["null_value"], f"{loc}.null_value")
    output_domain = tuple(
        _value(v, f"{loc}.output_domain[{i}]")
        for i, v in enumerate(_array(obj["output_domain"], f"{loc}.output_domain"))
    )
    table: dict[tuple, dict[Value, Fraction]] = {}
    for i, (db_node, row_node) in enumerate(_pairs(obj["table"], f"{loc}.table")):
        here = f"{loc}.table[{i}]"
        db = _value(db_node, f"{here}[0]")
        if not isinstance(db, tuple):
            raise ValidationError("database keys must be arrays", f"{here}[0]")
        if db in table:
            raise ValidationError(f"duplicate database {list(db)!r}", f"{here}[0]")
        row: dict[Value, Fraction] = {}
        for j, (v_node, w_node) in enumerate(_pairs(row_node, f"{here}[1]")):
            v = _value(v_node, f"{here}[1][{j}][0]")
            if v in row:
                raise ValidationError(f"duplicate output {v!r}", f"{here}[1][{j}]")
            row[v] = _rational(w_node, f"{here}[1][{j}][1]")
        table[db] = row
    return _wrap_model_error(
        lambda: MechanismKernel(n, data_domain, null_value, output_domain, table),
        loc,
    )


def parse_distribution(obj: dict, loc: str = "distribution") -> Dist:
    _require_keys(obj, {"type", "variables", "weights"}, set(), loc)
    variables = tuple(
        _string(v, f"{loc}.variables[{i}]")
        for i, v in enumerate(_array(obj["variables"], f"{loc}.variables"))
    )
    weights: dict[tuple, Fraction] = {}
    for i, (point_node, w_node) in enumerate(_pairs(obj["weights"], f"{loc}.weights")):
        here = f"{loc}.weights[{i}]"
        point = _value(point_node, f"{here}[0]")
        if not isinstance(point, tuple):
            raise ValidationError("weight keys must be arrays", f"{here}[0]")
        if point in weights:
            raise ValidationError(f"duplicate point {list(point)!r}", f"{here}[0]")
        weights[point] = _rational(w_node, f"{here}[1]")
    return _wrap_model_error(lambda: Dist(variables, weights), loc)


def parse_equation(obj: dict, loc: str) -> StochasticEquation:
    _require_keys(obj, {"target", "parents", "rows"}, set(), loc)
    target = _string(obj["target"], f"{loc}.target")
    parents = tuple(
        _string(p, f"{loc}.parents[{i}]")
        for i, p in enumerate(_array(obj["parents"], f"{loc}.parents"))
    )
    rows: dict[tuple, dict[Value, Fraction]] = {}
    for i, (key_node, row_node) in enumerate(_pairs(obj["rows"], f"{loc}.rows")):
        here = f"{loc}.rows[{i}]"
        key = _value(key_node, f"{here}[0]")
        if not isinstance(key, tuple):
            raise ValidationError("row keys must be arrays of parent values",
                                  f"{here}[0]")
        if key in rows:
            raise ValidationError(f"duplicate parent row {list(key)!r}",
                                  f"{here}[0]")
        row: dict[Value, Fraction] = {}
        for j, (v_node, w_node) in enumerate(_pairs(row_node, f"{here}[1]")):
            v = _value(v_node, f"{here}[1][{j}][0]")
            if v in row:
                raise ValidationError(f"duplicate value {v!r}", f"{here}[1][{j}]")
            row[v] = _rational(w_node, f"{here}[1][{j}][1]")
        rows[key] = row
    return _wrap_model_error(
        lambda: StochasticEquation(target, parents, rows), loc
    )


def parse_sem(obj: dict, loc: str = "sem") -> Sem:
    _require_keys(obj, {"type", "variables", "equations"}, set(), loc)
    names: list[str] = []
    domains: dict[str, tuple[Value, ...]] = {}
    for i, entry in enumerate(_array(obj["variables"], f"{loc}.variables")):
        here = f"{loc}.variables[{i}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise ValidationError("expected a [name, domain] pair", here)
        name = _string(entry[0], f"{here}[0]")
        if name in domains:
            raise ValidationError(f"duplicate variable {name!r}", f"{here}[0]")
        dom = _value(entry[1], f"{here}[1]")
        if not isinstance(dom, tuple):
            raise ValidationError("domain must be an array", f"{here}[1]")
        names.append(name)
        domains[name] = dom
    equations: dict[str, StochasticEquation] = {}
    for i, eq_node in enumerate(_array(obj["equations"], f"{loc}.equations")):
        eq = parse_equation(eq_node, f"{loc}.equations[{i}]")
        if eq.target in equations:
            raise ValidationError(
                f"two equations for {eq.target!r}", f"{loc}.equations[{i}]"
            )
        equations[eq.target] = eq

    def build() -> Sem:
        sem = Sem(tuple(names), domains, equations)
        sem.validate()
        return sem

    return _wrap_model_error(build, loc)


def parse_canonical_model(obj: dict, loc: str = "canonical_model") -> CanonicalModel:
    _require_keys(
        obj, {"type", "kernel"}, {"population", "attribute_equations"}, loc
    )
    kernel = parse_kernel(obj["kernel"], f"{loc}.kernel")
    population = None
    if "population" in obj:
        population = parse_distribution(obj["population"], f"{loc}.population")
    attr: tuple[StochasticEquation, ...] = ()
    if "attribute_equations" in obj:
        attr = tuple(
            parse_equation(e, f"{loc}.attribute_equations[{i}]")
            for i, e in enumerate(
                _array(obj["attribute_equations"], f"{loc}.attribute_equations")
            )
        )
    return CanonicalModel(kernel, attr, population)


@dataclass(frozen=True)
class CompositionSpec:
    """A two-stage pipeline plus the per-stage ratio claims to verify."""

    first: Sem
    second: Sem
    x: str
    y1: str
    y2: str
    ratio1: Ratio
    ratio2: Ratio


def parse_composition(obj: dict, loc: str = "composition") -> CompositionSpec:
    _require_keys(
        obj,
        {"type", "first", "second", "x", "y1", "y2", "ratio1", "ratio2"},
        set(),
        loc,
    )
    return CompositionSpec(
        first=parse_sem(obj["first"], f"{loc}.first"),
        second=parse_sem(obj["second"], f"{loc}.second"),
        x=_string(obj["x"], f"{loc}.x"),
        y1=_string(obj["y1"], f"{loc}.y1"),
        y2=_string(obj["y2"], f"{loc}.y2"),
        ratio1=_rational(obj["ratio1"], f"{loc}.ratio1"),
        ratio2=_rational(obj["ratio2"], f"{loc}.ratio2"),
    )


_TYPE_PARSERS = {
    "kernel": parse_kernel,
    "distribution": parse_distribution,
    "sem": parse_sem,
    "canonical_model": parse_canonical_model,
    "composition": parse_composition,
}

ParsedInput = (
    MechanismKernel | Dist | Sem | CanonicalModel | CompositionSpec
)


def parse_text(text: str):
    """Parse one top-level object, dispatching on its "type" tag."""
    node = load_strict_json(text)
    if not isinstance(node, dict):
        raise ValidationError("top level must be an object with a \"type\" key")
    tag = node.get("type")
    if tag not in _TYPE_PARSERS:
        raise ValidationError(
            f"unknown type {tag!r}; expected one of {sorted(_TYPE_PARSERS)}",
            "type",
        )
    return _TYPE_PARSERS[tag](node, tag)


def parse_value(text: str, loc: str = "value") -> Value:
    """Parse one domain value given as a strict JSON fragment ('1', '"pos"',
    '["pos", "neg"]')."""
    return _value(load_strict_json(text), loc)


def witness_from_json(node: Any, loc: str = "witness") -> dict:
    """Rebuild a witness dict from serialized form (arrays become tuples)."""
    if not isinstance(node, dict):
        raise ValidationError("witness must be an object", loc)
    return {
        key: _value(value, f"{loc}.{key}") for key, value in node.items()
    }


# --- serializers ----------------------------------------------------------------


def value_to_json(v: Value):
    if isinstance(v, tuple):
        return [value_to_json(x) for x in v]
    return v


def _rat(x: Fraction) -> str:
    return format_ratio(x)


def serialize_kernel(kernel: MechanismKernel) -> dict:
    return {
        "type": "kernel",
        "n": kernel.n,
        "data_domain": [value_to_json(v) for v in kernel.data_domain],
        "null_value": value_to_json(kernel.null_value),
        "output_domain": [value_to_json(v) for v in kernel.output_domain],
        "table": [
            [
                value_to_json(db),
                [
                    [value_to_json(o), _rat(kernel.table[db][o])]
                    for o in kernel.output_domain
                    if o in kernel.table[db]
                ],
            ]
            for db in kernel.databases()
        ],
    }


def serialize_distribution(dist: Dist) -> dict:
    return {
        "type": "distribution",
        "variables": list(dist.variables),
        "weights": [
            [value_to_json(point), _rat(w)] for point, w in dist.entries_sorted()
        ],
    }


def serialize_equation(eq: StochasticEquation) -> dict:
    return {
        "target": eq.target,
        "parents": list(eq.parents),
        "rows": [
            [
                value_to_json(key),
                [
                    [value_to_json(v), _rat(w)]
                    for v, w in sorted(
                        eq.rows[key].items(), key=lambda kv: value_sort_key(kv[0])
                    )
                ],
            ]
            for key in sorted(eq.rows, key=value_sort_key)
        ],
    }


def serialize_sem(sem: Sem) -> dict:
    return {
        "type": "sem",
        "variables": [
            [name, [value_to_json(v) for v in sem.domains[name]]]
            for name in sem.names
        ],
        "equations": [
            serialize_equation(sem.equations[name])
            for name in sem.names
            if name in sem.equations
        ],
    }


def serialize_canonical_model(model: CanonicalModel) -> dict:
    out = {"type": "canonical_model", "kernel": serialize_kernel(model.kernel)}
    if model.population is not None:
        out["population"] = serialize_distribution(model.population)
    if model.attribute_equations:
        out["attribute_equations"] = [
            serialize_equation(eq) for eq in model.attribute_equations
        ]
    return out


def serialize_composition(spec: CompositionSpec) -> dict:
    return {
        "type": "composition",
        "first": serialize_sem(spec.first),
        "second": serialize_sem(spec.second),
        "x": spec.x,
        "y1": spec.y1,
        "y2": spec.y2,
        "ratio1": _rat(spec.ratio1),
        "ratio2": _rat(spec.ratio2),
    }


def serialize_input(obj) -> dict:
    """Serialize any parseable top-level object back to its dialect form."""
    if isinstance(obj, MechanismKernel):
        return serialize_kernel(obj)
    if isinstance(obj, Dist):
        return serialize_distribution(obj)
    if isinstance(obj, CanonicalModel):
        return serialize_canonical_model(obj)
    if isinstance(obj, Sem):
        return serialize_sem(obj)
    if isinstance(obj, CompositionSpec):
        return serialize_composition(obj)
    if isinstance(obj, SequentialComposition):
        raise TypeError("serialize the CompositionSpec, not the wired models")
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# --- reports ---------------------------------------------------------------------


def _definition_tag(definition) -> str:
    return definition.value if isinstance(definition, DefinitionId) else str(definition)


def witness_to_json(witness: dict | None):
    if witness is None:
        return None
    return {k: value_to_json(v) for k, v in witness.items()}


def report_header(input_digest: str | None) -> dict:
    """The versions every report carries, and the digest of its input."""
    out = {
        "tool_version": TOOL_VERSION,
        "enumeration_order_version": ENUMERATION_ORDER_VERSION,
    }
    if input_digest is not None:
        out["input_digest"] = input_digest
    return out


def report_to_json(report: CheckReport, input_digest: str | None = None) -> dict:
    return {
        "type": "check_report",
        **report_header(input_digest),
        "definition": _definition_tag(report.definition),
        "target_ratio": format_ratio(report.target_ratio),
        "achieved": format_ratio(report.achieved),
        "epsilon_target": epsilon_of(report.target_ratio),
        "epsilon_achieved": epsilon_of(report.achieved),
        "passed": report.passed,
        "skipped_comparisons": report.skipped_comparisons,
        "reduction": report.reduction,
        "witness": witness_to_json(report.witness),
    }


def falsification_to_json(outcome, input_digest: str | None = None) -> dict:
    return {
        "type": "falsification_report",
        **report_header(input_digest),
        "found": outcome.found,
        "candidates_tried": outcome.candidates_tried,
        "search_budget": outcome.search_budget,
        "note": outcome.note,
        "population": (
            None
            if outcome.population is None
            else serialize_distribution(outcome.population)
        ),
        "report": (
            None if outcome.report is None else report_to_json(outcome.report)
        ),
    }


# --- canonical text and digests ---------------------------------------------------


def canonical_json(obj: dict) -> str:
    """Byte-stable rendering: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def digest_of_text(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def input_digest(obj) -> str:
    """Digest of an input object's canonical serialization.

    Two files describing the same model (different key order, whitespace, or
    a builtin shorthand versus its expanded table) get the same digest.
    """
    return digest_of_text(canonical_json(serialize_input(obj)))
