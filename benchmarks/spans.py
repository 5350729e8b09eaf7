"""Outside-in tracing of the causaldp layers.

The traced run wraps public functions and methods of the program from here,
without editing the program.  Each wrapped call records a span (layer, target,
start, end, parent span, job id); spans stay in memory until the run ends.
A layer's self time is its spans' durations minus the time their child spans
cover.  `SupTracker.offer` runs too often for a span per call, so it is only
counted.

A function imported by name into other modules (`from .checkers import
run_check`) is patched in every loaded causaldp module that holds it, so
calls from `cli`, `scenarios` and the package root are all seen.  Every
patch is undone when `Tracer.installed()` exits.  A target that no longer
exists is listed in `Tracer.missing`, never skipped silently.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    layer: str
    target: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    job: str


def _count_lift(counts, args, result):
    if result is not None:
        counts["sem.lift.cells"] += len(result.weights)


def _count_condition(counts, args, result):
    counts["dist.condition.scanned"] += len(args[0].weights)
    if result is not None:
        counts["dist.condition.kept"] += len(result.weights)


def _count_marginal(counts, args, result):
    counts["dist.marginal.scanned"] += len(args[0].weights)


def _count_falsify(counts, args, result):
    if result is not None:
        counts["checkers.falsify.candidates"] += result.candidates_tried


def _count_parse(counts, args, result):
    counts["modelfile.parse.bytes_in"] += len(args[0].encode("utf-8"))


def _count_canonical(counts, args, result):
    if result is not None:
        counts["modelfile.serialize.bytes_out"] += len(result.encode("utf-8"))


# (layer, module, qualified name, extra counter); a dotted name is a method
TARGETS = (
    ("sem.lift", "causaldp.sem", "ProbabilisticSem.lift", _count_lift),
    ("sem.validate", "causaldp.sem", "Sem.validate", None),
    ("mechanisms.engine", "causaldp.mechanisms", "CanonicalEngine.output_given_db", None),
    ("mechanisms.engine", "causaldp.mechanisms", "CanonicalEngine.output_given_point", None),
    # the base joint's lift is not a cross-check; this span keeps it apart
    ("mechanisms.engine", "causaldp.mechanisms", "CanonicalEngine.base_joint", None),
    ("mechanisms.as_sem", "causaldp.mechanisms", "as_sem", None),
    ("mechanisms.classic_epsilon", "causaldp.mechanisms", "classic_epsilon", None),
    ("dist.condition", "causaldp.dist", "Dist.condition", _count_condition),
    ("dist.marginal", "causaldp.dist", "Dist.marginal", _count_marginal),
    ("checkers.sweep", "causaldp.checkers", "run_check", None),
    ("checkers.sweep", "causaldp.checkers", "check_classic", None),
    ("checkers.sweep", "causaldp.checkers", "check_associative", None),
    ("checkers.sweep", "causaldp.checkers", "check_strong_adversary_universal", None),
    ("checkers.sweep", "causaldp.checkers", "check_causal", None),
    ("checkers.sweep", "causaldp.checkers", "check_universal_causal", None),
    ("checkers.falsify", "causaldp.checkers", "falsify_bayesian0", _count_falsify),
    ("modelfile.parse", "causaldp.modelfile", "parse_text", _count_parse),
    ("modelfile.digest", "causaldp.modelfile", "input_digest", None),
    ("modelfile.serialize", "causaldp.modelfile", "report_to_json", None),
    ("modelfile.serialize", "causaldp.modelfile", "falsification_to_json", None),
    ("modelfile.serialize", "causaldp.modelfile", "serialize_input", None),
    ("modelfile.serialize", "causaldp.modelfile", "canonical_json", _count_canonical),
    ("scenarios.run", "causaldp.scenarios", "Scenario.run", None),
    ("brp", "causaldp.brp", "check_composition", None),
    ("brp", "causaldp.brp", "compose_sequential", None),
    ("adversary", "causaldp.adversary", "posterior", None),
    ("adversary", "causaldp.adversary", "posterior_under_intervention", None),
    ("adversary", "causaldp.adversary", "semantic_gap", None),
)
# counted without spans
OFFER = ("causaldp.reports", "SupTracker.offer")
ROOT_LAYER = "cli"
CROSS_CHECK_PARENTS = frozenset(
    {"CanonicalEngine.output_given_db", "CanonicalEngine.output_given_point"}
)


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.job = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------------

    def call(self, layer: str, target: str, fn, args, kwargs, count=None):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(layer, target, start, end, parent, self.job)
            self.counts[f"{layer}.calls"] += 1
            if count is not None:
                count(self.counts, args, result)

    def root(self, job: str, fn, *args):
        """Run one job under a root span of the `cli` layer."""
        self.job = job
        return self.call(ROOT_LAYER, "cli.main", fn, args, {})

    def _wrap(self, layer, target, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(layer, target, fn, args, kwargs, count)

        return wrapper

    def _offer_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def offer(tracker, ratio, witness):
            counts["reports.offer.calls"] += 1
            if ratio is None:
                counts["reports.offer.vacuous"] += 1
            return fn(tracker, ratio, witness)

        return offer

    # --- patching ---------------------------------------------------------------

    def _patch(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _install_one(self, module_name, qualname, make) -> None:
        module = sys.modules.get(module_name)
        where = f"{module_name}.{qualname}"
        if module is None:
            self.missing.append(where)
            return
        if "." in qualname:
            cls_name, meth = qualname.split(".", 1)
            cls = getattr(module, cls_name, None)
            if cls is None or meth not in vars(cls):
                self.missing.append(where)
                return
            self._patch(cls, meth, make(vars(cls)[meth]))
            return
        original = getattr(module, qualname, None)
        if original is None:
            self.missing.append(where)
            return
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "causaldp" or name.startswith("causaldp.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        try:
            for layer, module_name, qualname, count in TARGETS:
                self._install_one(
                    module_name, qualname,
                    lambda fn, l=layer, q=qualname, c=count: self._wrap(l, q, fn, c),
                )
            self._install_one(*OFFER, self._offer_counter)
            yield self
        finally:
            while self._restore:
                owner, attr, original = self._restore.pop()
                setattr(owner, attr, original)


# --- analysis -------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def layer_self_times(spans: list[Span]) -> Counter:
    totals: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        totals[span.layer] += own
    return totals


def cross_checks(spans: list[Span]) -> int:
    """Enumerations the engine ran to verify a closed form: lifts called
    directly from an engine query."""
    return sum(
        1
        for span in spans
        if span.layer == "sem.lift"
        and span.parent >= 0
        and spans[span.parent].target in CROSS_CHECK_PARENTS
    )
