"""Reading and writing models and reports as a restricted JSON dialect.

The dialect is strict so that every file has exactly one meaning:

  * probabilities and ratios are strings of ASCII integers like "2/3" (or
    "2"); float literals anywhere in a file are rejected outright, as are
    float strings like "0.5";
  * domain values are strings, integers, or arrays of values (arrays become
    tuples);
  * anything keyed by a value (kernel tables, distribution weights, equation
    rows) is written as an array of [key, value] pairs, never as a JSON
    object, so non-string keys survive the trip;
  * objects carry a "type" tag; unknown and repeated keys are errors.

A spelled-out kernel table whose every row lists the whole output domain in
order is read column-wise, straight into the kernel's integer table
(`_kernel_of_table`).  Any other table, and every distribution and
equation, is read entry by entry (`_table`, `_row`), which also words the
first error of a malformed one.

Serialization is canonical: fixed key order (alphabetical), two-space
indent, a single trailing newline, and fixed row ordering.  Equal objects
serialize to identical bytes, which the report digests rely on.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from typing import Any, Callable, Iterator

from .brp import SequentialComposition
from .dist import Dist
from .errors import (
    CausalDpError,
    ModelError,
    ParseError,
    ValidationError,
    describe,
    preview,
)
from .exact import (
    Ratio,
    Value,
    epsilon_of,
    format_ratio,
    format_terms,
    parse_rational,
    rational_terms,
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

# Bumped whenever report content changes by design; lets old reports be read.
# 2 reworded a reduction note; 3 gave strong_adversary_one_dist and
# single_point_universal classic's witness, and posterior's prior D_i names;
# 4 put the swept values innermost in the effect-ratio and semantic-gap folds
# (now groups of `group_sweep`), which can pick another first witness on ties.
ENUMERATION_ORDER_VERSION = 4

# Values nest a few arrays deep (a database of report vectors); deeper nesting
# is hostile and would hit Python's recursion limit in the readers and writers.
_MAX_VALUE_DEPTH = 32

# The element types of a flat value array (bool, an int subclass, is not one).
_FLAT = frozenset({str, int})


# --- low-level parsing helpers -------------------------------------------------


def _reject_float(literal: str):
    raise ParseError(
        f"float literal {literal} is not allowed; write exact integer ratios "
        f'like "1/2"'
    )


def _reject_constant(literal: str):
    raise ParseError(f"JSON constant {literal} is not allowed")


def _object(pairs: list) -> dict:
    """A JSON object whose keys are all distinct: a repeated key would give a
    file two readings, of which `json.loads` silently keeps the last."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"duplicate key {preview(key)}")
            seen.add(key)
    return obj


def load_strict_json(text: str) -> Any:
    try:
        return json.loads(
            text, parse_float=_reject_float, parse_constant=_reject_constant,
            object_pairs_hook=_object,
        )
    except json.JSONDecodeError as e:
        raise ParseError(f"not valid JSON: {e}") from None
    except ValueError as e:  # an integer literal too long to convert
        raise ParseError(f"not valid JSON: {e}", "top level") from None
    except RecursionError:
        raise ParseError("not valid JSON: nested too deeply", "top level") from None


def _require_keys(obj: dict, required: set[str], optional: set[str], loc: str):
    if not isinstance(obj, dict):
        raise ValidationError(f"expected an object, got {type(obj).__name__}", loc)
    keys = set(obj)
    missing = required - keys
    if missing:
        raise ValidationError(f"missing keys {sorted(missing)}", loc)
    extra = keys - required - optional
    if extra:
        raise ValidationError(f"unknown keys {preview(sorted(extra))}", loc)


def _at(loc: str, *path: int) -> str:
    """`loc` followed by one `[index]` per entry of `path`: a location is
    rendered only where an error is raised."""
    return loc + "".join(f"[{k}]" for k in path)


def _value(node: Any, loc: str, *path: int, depth: int = 0) -> Value:
    """The domain value of the JSON `node` at `_at(loc, *path)`, `depth`
    arrays deep.  A string, an integer or a flat array (the common table key
    and cell value) is read without its location."""
    kind = type(node)
    if kind is str or kind is int:
        return node
    if kind is list:
        if depth == _MAX_VALUE_DEPTH:
            raise ParseError(f"values nest deeper than {_MAX_VALUE_DEPTH} arrays",
                             _at(loc, *path))
        flat = tuple(node)
        if _FLAT.issuperset(map(type, flat)):
            return flat
        return tuple(_value(x, loc, *path, i, depth=depth + 1) for i, x in enumerate(node))
    if kind is bool:
        raise ValidationError("booleans are not domain values", _at(loc, *path))
    raise ValidationError(
        f"domain values are strings, integers, or arrays; got {kind.__name__}",
        _at(loc, *path),
    )


def _rational(node: Any, loc: str) -> Fraction:
    if not isinstance(node, str):
        raise ParseError(
            f'expected a rational string like "1/2", got {describe(node)}', loc
        )
    return parse_rational(node, loc)


def _int(node: Any, loc: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ValidationError(f"expected an integer, got {describe(node)}", loc)
    return node


def _string(node: Any, loc: str) -> str:
    if not isinstance(node, str):
        raise ValidationError(f"expected a string, got {describe(node)}", loc)
    return node


def _array(node: Any, loc: str) -> list:
    if not isinstance(node, list):
        raise ValidationError(f"expected an array, got {type(node).__name__}", loc)
    return node


def _values(node: Any, loc: str) -> tuple[Value, ...]:
    return tuple(_value(v, loc, i) for i, v in enumerate(_array(node, loc)))


def _pairs(node: Any, loc: str, *path: int) -> list:
    """The entries of the array of [key, value] pairs at `_at(loc, *path)`,
    every one checked to be a pair before any is read."""
    if not isinstance(node, list):
        raise ValidationError(
            f"expected an array, got {type(node).__name__}", _at(loc, *path)
        )
    for i, entry in enumerate(node):
        if not isinstance(entry, list) or len(entry) != 2:
            raise ValidationError("expected a [key, value] pair", _at(loc, *path, i))
    return node


def _table(node: Any, loc: str, what: str, cell: Callable) -> dict:
    """An array of [key, cell] pairs keyed by arrays (databases, points,
    parent values), as a dict.  `cell(node, weights, loc, i, 1)` reads the
    i-th right-hand side; `weights` maps each weight string already read in
    this table to its Fraction, so each distinct string is parsed once and
    its cells share one object."""
    table: dict[tuple, Any] = {}
    weights: dict[str, Fraction] = {}
    for i, (key_node, cell_node) in enumerate(_pairs(node, loc)):
        key = _value(key_node, loc, i, 0)
        if not isinstance(key, tuple):
            raise ValidationError(f"{what} keys must be arrays", _at(loc, i, 0))
        if key in table:
            raise ValidationError(
                f"duplicate {what} {preview(list(key))}", _at(loc, i, 0)
            )
        table[key] = cell(cell_node, weights, loc, i, 1)
    return table


def _weight(node: Any, weights: dict[str, Fraction], loc: str, *path: int) -> Fraction:
    """The rational string `node`, parsed only if `weights` lacks it; a
    string that fails to parse is never stored."""
    w = weights.get(node) if type(node) is str else None
    if w is None:
        w = weights[node] = _rational(node, _at(loc, *path))
    return w


def _row(node: Any, weights: dict[str, Fraction], loc: str, *path: int) -> dict:
    """An array of [value, "p/q"] pairs, as a dict."""
    row: dict[Value, Fraction] = {}
    for j, (v_node, w_node) in enumerate(_pairs(node, loc, *path)):
        v = _value(v_node, loc, *path, j, 0)
        if v in row:
            raise ValidationError(f"duplicate value {preview(v)}", _at(loc, *path, j))
        row[v] = _weight(w_node, weights, loc, *path, j, 1)
    return row


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


def _kernel_of_table(n: int, data_domain: tuple, null_value: Value,
                     output_domain: tuple, node: Any) -> MechanismKernel | None:
    """The kernel of a spelled-out table whose every row lists the whole
    output domain in order, read in whole-table passes straight into its
    integer table; None for any other table, which `_table`/`_row` and
    `MechanismKernel.from_table` read or word the first error of.

    It accepts only what that walk accepts, and builds the same kernel:
    every entry and every cell a [key, value] pair; keys arrays of strings
    and integers, no two equal; values that taken together equal the output
    domain's JSON form once per row; every weight a string `rational_terms`
    reads.  `True == 1` would pass that comparison, so unless that form
    is strings and arrays of strings, the values are walked to be strings,
    integers or such arrays with no bool among them.  Each distinct weight
    string is read once, its numerator put over the lcm L of the
    denominators as written.  The constructor checks the databases, signs
    and sums, and reduces the table."""
    if type(node) is not list or set(map(type, node)) != {list} or set(map(len, node)) != {2}:
        return None
    keys, cells = zip(*node)
    width = len(output_domain)
    if (set(map(type, keys)) != {list} or set(map(type, cells)) != {list}
            or set(map(len, cells)) != {width}  # some row is sparse
            or not _FLAT.issuperset(map(type, chain.from_iterable(keys)))):
        return None
    pairs = list(chain.from_iterable(cells))
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    values, weights = zip(*pairs)
    if values != tuple(map(value_to_json, output_domain)) * len(cells):
        return None
    flat = chain.from_iterable(o if type(o) is tuple else (o,) for o in output_domain)
    if set(map(type, flat)) != {str}:  # only an int or a deeper array needs the walk
        kinds = set(map(type, values))
        if list in kinds:
            arrays = values if kinds == {list} else [v for v in values if type(v) is list]
            kinds.discard(list)
            kinds.update(map(type, chain.from_iterable(arrays)))
        if not _FLAT.issuperset(kinds):
            return None
    if set(map(type, weights)) != {str}:
        return None
    try:
        terms = {w: rational_terms(w) for w in set(weights)}
    except ParseError:
        return None
    common = math.lcm(*(den for _, den in terms.values()))
    scaled = {w: num * (common // den) for w, (num, den) in terms.items()}
    rows = zip(*[map(scaled.__getitem__, weights)] * width)
    table = dict(zip(map(tuple, keys), rows))
    if len(table) < len(node):  # a database given twice
        return None
    try:
        return MechanismKernel(n, data_domain, null_value, output_domain, (common, table))
    except ModelError:
        return None


def parse_kernel(obj: dict, loc: str = "kernel") -> MechanismKernel:
    if isinstance(obj, dict) and "builtin" in obj:
        name = _string(obj["builtin"], f"{loc}.builtin")
        if name not in _BUILTIN_KERNELS:
            raise ValidationError(
                f"unknown builtin {preview(name)}; known: "
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
    data_domain = _values(obj["data_domain"], f"{loc}.data_domain")
    null_value = _value(obj["null_value"], f"{loc}.null_value")
    output_domain = _values(obj["output_domain"], f"{loc}.output_domain")
    kernel = _kernel_of_table(n, data_domain, null_value, output_domain, obj["table"])
    if kernel is not None:
        return kernel
    table = _table(obj["table"], f"{loc}.table", "database", _row)
    return _wrap_model_error(
        lambda: MechanismKernel.from_table(n, data_domain, null_value, output_domain, table),
        loc,
    )


def parse_distribution(obj: dict, loc: str = "distribution") -> Dist:
    _require_keys(obj, {"type", "variables", "weights"}, set(), loc)
    variables = tuple(
        _string(v, f"{loc}.variables[{i}]")
        for i, v in enumerate(_array(obj["variables"], f"{loc}.variables"))
    )
    weights = _table(obj["weights"], f"{loc}.weights", "point", _weight)
    return _wrap_model_error(lambda: Dist.from_weights(variables, weights), loc)


def parse_equation(obj: dict, loc: str) -> StochasticEquation:
    _require_keys(obj, {"target", "parents", "rows"}, set(), loc)
    target = _string(obj["target"], f"{loc}.target")
    parents = tuple(
        _string(p, f"{loc}.parents[{i}]")
        for i, p in enumerate(_array(obj["parents"], f"{loc}.parents"))
    )
    rows = _table(obj["rows"], f"{loc}.rows", "parent row", _row)
    return _wrap_model_error(
        lambda: StochasticEquation.from_rows(target, parents, rows), loc
    )


def parse_sem(obj: dict, loc: str = "sem") -> Sem:
    _require_keys(obj, {"type", "variables", "equations"}, set(), loc)
    domains: dict[str, tuple[Value, ...]] = {}
    for i, (name_node, dom_node) in enumerate(_pairs(obj["variables"], f"{loc}.variables")):
        here = f"{loc}.variables[{i}]"
        name = _string(name_node, f"{here}[0]")
        if name in domains:
            raise ValidationError(f"duplicate variable {preview(name)}", f"{here}[0]")
        domains[name] = _values(dom_node, f"{here}[1]")
    equations: dict[str, StochasticEquation] = {}
    for i, eq_node in enumerate(_array(obj["equations"], f"{loc}.equations")):
        eq = parse_equation(eq_node, f"{loc}.equations[{i}]")
        if eq.target in equations:
            raise ValidationError(
                f"two equations for {preview(eq.target)}", f"{loc}.equations[{i}]"
            )
        equations[eq.target] = eq

    def build() -> Sem:
        sem = Sem(tuple(domains), domains, equations)
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
    model = CanonicalModel(kernel, attr, population)
    _wrap_model_error(model.validate, loc)  # what it builds, its checks reuse
    return model


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


def parse_text(text: str):
    """Parse one top-level object, dispatching on its "type" tag."""
    node = load_strict_json(text)
    if not isinstance(node, dict):
        raise ValidationError("top level must be an object with a \"type\" key")
    tag = node.get("type")
    if not isinstance(tag, str) or tag not in _TYPE_PARSERS:
        raise ValidationError(
            f"unknown type {preview(tag)}; expected one of {sorted(_TYPE_PARSERS)}",
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


def _rows(entries) -> list:
    """[[value, "p/q"], ...] in the order given."""
    return [[value_to_json(v), format_ratio(w)] for v, w in entries]


def _kernel_header(kernel: MechanismKernel) -> dict:
    return {
        "type": "kernel",
        "n": kernel.n,
        "data_domain": [value_to_json(v) for v in kernel.data_domain],
        "null_value": value_to_json(kernel.null_value),
        "output_domain": [value_to_json(v) for v in kernel.output_domain],
    }


def serialize_kernel(kernel: MechanismKernel) -> dict:
    return {
        **_kernel_header(kernel),
        "table": [
            [value_to_json(db), _rows(kernel.row(db).items())]
            for db in kernel.databases()
        ],
    }


def serialize_distribution(dist: Dist) -> dict:
    return {
        "type": "distribution",
        "variables": list(dist.variables),
        "weights": _rows(dist.entries_sorted()),
    }


def serialize_equation(eq: StochasticEquation) -> dict:
    return {
        "target": eq.target,
        "parents": list(eq.parents),
        "rows": [
            [
                value_to_json(key),
                _rows(sorted(eq.rows[key].items(), key=lambda kv: value_sort_key(kv[0]))),
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
    return {**_model_fields(model), "kernel": serialize_kernel(model.kernel)}


def _model_fields(model: CanonicalModel) -> dict:
    """Everything `serialize_canonical_model` writes but the kernel."""
    out = {"type": "canonical_model"}
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
        "ratio1": format_ratio(spec.ratio1),
        "ratio2": format_ratio(spec.ratio2),
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


def _indented(node, depth: int) -> str:
    """`node` as `canonical_json` writes it `depth` levels deep.  Encoded
    JSON strings hold no raw newline, so re-indenting is a plain replace."""
    text = json.dumps(node, sort_keys=True, indent=2, ensure_ascii=False)
    return text.replace("\n", "\n" + "  " * depth)


# Cells per piece of a streamed kernel text: a piece of RR n=5 (32 outputs)
# holds 4 rows, about 20 KB of its 1.25 MB text: a digest holds little text
# at a time, and each piece still joins many cells at once.
_DIGEST_CHUNK_CELLS = 128


def _kernel_text(kernel: MechanismKernel, depth: int) -> Iterator[str]:
    """`_indented(serialize_kernel(kernel), depth)` in pieces of about
    `_DIGEST_CHUNK_CELLS` cells, rendered from `integer_table`: each
    distinct output value, data value and numerator is rendered once, and
    neither the serialized tree, the `Fraction` table nor the whole text is
    built.  A piece whose rows all have full support fills the ratio slots
    of one precomputed list of pieces by slice assignment and joins it once;
    a row with an absent output is written cell by cell."""

    def at(text: str) -> str:  # a depth-0 template, `depth` levels deeper
        return text.replace("\n", "\n" + "  " * depth)

    # "table" sorts just before "type", so its [] is the last in the text
    header = _indented({**_kernel_header(kernel), "table": []}, depth)
    head, _, tail = header.rpartition("[]")
    # depths: table 1, [db, row] 2, db and row 3, [output, ratio] 4, output 5
    point = [_indented(value_to_json(v), depth + 4) for v in kernel.data_domain]
    cell = [
        at("[\n" + " " * 10) + _indented(value_to_json(o), depth + 5)
        + at(",\n" + " " * 10 + '"')
        for o in kernel.output_domain
    ]
    comma, close_db = at(",\n        "), at("\n      ]\n    ]")
    open_db, open_row = at("[\n      [\n        "), at("\n      ],\n      [\n        ")
    close_cell = at('"\n        ]')
    common, table = kernel.integer_table
    ratio = {}  # numerator -> its text, the weight p/L reduced by g
    for p in set(chain.from_iterable(table.values())):
        g = math.gcd(p, common)
        ratio[p] = format_terms(p // g, common // g) + close_cell
    # a full-support row is [lead, ratio, comma + cell, ratio, ...]: its
    # ratios sit at the odd places of a list of 2|O| pieces per row
    width = len(cell)
    block = [None, None] + [x for c in cell[1:] for x in (comma + c, None)]
    rows = list(table.values())
    opened, between = head + at("[\n    "), close_db + at(",\n    ")
    leads = [(between if i else opened) + open_db + points + open_row
             for i, points in enumerate(map(comma.join, product(point, repeat=kernel.n)))]
    size = max(1, _DIGEST_CHUNK_CELLS // width)
    for start in range(0, len(rows), size):
        chunk, heads = rows[start : start + size], leads[start : start + size]
        if any(0 in row for row in chunk):  # some row has no entry at some output
            yield "".join(
                lead + comma.join(c + ratio[p] for c, p in zip(cell, row) if p)
                for lead, row in zip(heads, chunk))
            continue
        pieces = block * len(chunk)
        pieces[:: 2 * width] = [lead + cell[0] for lead in heads]
        pieces[1::2] = map(ratio.__getitem__, chain.from_iterable(chunk))
        yield "".join(pieces)
    yield close_db + at("\n  ]") + tail


def input_digest(obj) -> str:
    """Digest of an input object's canonical serialization.

    Two files describing the same model (different key order, whitespace, or
    a builtin shorthand versus its expanded table) get the same digest.  A
    kernel's text, bare or inside a `canonical_model`, is rendered from its
    integer table and streamed into the hash a chunk of rows at a time
    (`_kernel_text`), so neither the kernel's `Fraction` table nor the whole
    text is built; every other input is rendered whole by `canonical_json`.
    """
    if isinstance(obj, MechanismKernel):
        kernel, head, depth, tail = obj, "", 0, "\n"
    elif isinstance(obj, CanonicalModel):
        kernel, depth = obj.kernel, 1
        # "kernel": 0 cannot occur inside an encoded string or another key
        text = canonical_json({**_model_fields(obj), "kernel": 0})
        head, _, tail = text.partition('"kernel": 0')
        head += '"kernel": '
    else:
        return digest_of_text(canonical_json(serialize_input(obj)))
    digest = hashlib.sha256(head.encode("utf-8"))
    for piece in _kernel_text(kernel, depth):
        digest.update(piece.encode("utf-8"))
    digest.update(tail.encode("utf-8"))
    return "sha256:" + digest.hexdigest()
