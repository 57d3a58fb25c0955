"""Span recorder that instruments sublat from outside the program.

`Recorder.install` wraps each traced function and swaps the wrapper in at
every name the function is reachable through: module attributes (the
library imports many functions by name, so `subspace.rank` and
`exactlin.rank` are two separate bindings), default argument values
(`lattice.check_orthomodular` defaults to `subspace.orthocomplement`),
and tuples held in module globals (`cli._LAW_CHECKS`). `uninstall`
restores every binding it changed.

Spans stay in memory as [name, start, end, parent, job, value] lists;
`value` is a per-span measure such as the element count of a lattice.
Self time is a span's duration minus the part of it its child spans
cover.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict
from typing import Callable

NAME, START, END, PARENT, JOB, VALUE = range(6)

NARROW_COLS = 8


def _rref_name(args) -> str:
    width = "narrow" if args[0].cols <= NARROW_COLS else "wide"
    return f"exactlin.rref.{width}"


def _cells(args, result) -> int:
    return args[0].rows * args[0].cols


# (module, attribute, span name or function of the call's args, measure).
TARGETS: tuple = (
    ("sublat.exactlin", "rref", _rref_name, _cells),
    ("sublat.exactlin", "rank", "exactlin.rank", None),
    ("sublat.exactlin", "kernel_basis", "exactlin.kernel_basis", None),
    ("sublat.exactlin", "invert", "exactlin.invert", None),
    ("sublat.subspace", "meet", "subspace.meet", None),
    ("sublat.subspace", "join", "subspace.join", None),
    ("sublat.subspace", "leq", "subspace.leq", None),
    ("sublat.subspace", "orthocomplement", "subspace.orthocomplement", None),
    ("sublat.subspace", "image", "subspace.image", None),
    ("sublat.subspace", "maps_into", "subspace.maps_into", None),
    ("sublat.subspace", "contains_vector", "subspace.contains_vector", None),
    ("sublat.lattice", "close_and_build", "lattice.close_and_build", lambda a, r: len(r)),
    ("sublat.lattice", "check_distributive", "lattice.check_distributive", None),
    ("sublat.lattice", "check_modular", "lattice.check_modular", None),
    ("sublat.lattice", "check_orthomodular", "lattice.check_orthomodular", None),
    ("sublat.lattice", "orthocomplement_indices", "lattice.orthocomplement_indices", None),
    ("sublat.lattice", "atoms", "lattice.atoms", None),
    ("sublat.lattice", "covers", "lattice.covers", None),
    ("sublat.filters", "search_bivaluations", "filters.search_bivaluations", lambda a, r: len(r)),
    ("sublat.filters", "satisfies_laws", "filters.satisfies_laws", None),
    ("sublat.filters", "coatom_complement_filter", "filters.coatom_complement_filter", None),
    ("sublat.filters", "is_prime_paper", "filters.is_prime_paper", None),
    ("sublat.filters", "is_prime_standard", "filters.is_prime_standard", None),
    ("sublat.filters", "homomorphism_from_filter", "filters.homomorphism_from_filter", None),
    ("sublat.filters", "state_valuation", "filters.state_valuation", None),
    ("sublat.invariant", "algebra_span", "invariant.algebra_span", lambda a, r: r.dim),
    ("sublat.invariant", "is_irreducible", "invariant.is_irreducible", None),
    ("sublat.invariant", "common_invariant_sublattice",
     "invariant.common_invariant_sublattice", None),
    ("sublat.invariant", "invariant_sublattice", "invariant.invariant_sublattice", None),
    ("sublat.invariant", "contextual_valuation_report",
     "invariant.contextual_valuation_report", None),
    ("sublat.cli", "main", "cli.main", None),
    ("sublat.cli", "parse_input", "cli.parse_input", None),
)

LAYERS = ("exactlin", "subspace", "lattice", "filters", "invariant", "cli")

BATTERY = (
    "filters.coatom_complement_filter",
    "filters.is_prime_paper",
    "filters.is_prime_standard",
    "filters.homomorphism_from_filter",
)
LAW_CHECKS = (
    "lattice.check_distributive",
    "lattice.check_modular",
    "lattice.check_orthomodular",
)
INVARIANT_CALLS = (
    "is_irreducible",
    "common_invariant_sublattice",
    "invariant_sublattice",
    "contextual_valuation_report",
)
SUBSPACE_OPS = ("meet", "join", "leq", "orthocomplement", "image", "maps_into")


class Recorder:
    """Collects spans and scalar allocations while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job: str | None = None
        self.allocs = 0
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    def wrap(self, fn: Callable, name, measure=None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name(args) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else -1, recorder.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if measure is not None:
                span[VALUE] = measure(args, result)
            return result

        return traced

    def install(self) -> None:
        swap = {}
        for module_name, attr, name, measure in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            swap[id(original)] = (original, self.wrap(original, name, measure))
        for key, module in sorted(sys.modules.items()):
            if key == "sublat" or key.startswith("sublat."):
                self._rebind_namespace(module, swap)
        self._count_scalars()

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _rebind_namespace(self, module: types.ModuleType, swap: dict) -> None:
        for key, value in list(vars(module).items()):
            replaced = _swapped(value, swap)
            if replaced is not value:
                self._set(module, key, replaced)
            if isinstance(value, type) and value.__module__ == module.__name__:
                functions = [v for v in vars(value).values() if isinstance(v, types.FunctionType)]
            elif isinstance(value, types.FunctionType):
                functions = [value]
            else:
                functions = []
            for fn in functions:
                self._rebind_defaults(fn, swap)

    def _rebind_defaults(self, fn: types.FunctionType, swap: dict) -> None:
        if fn.__defaults__:
            new = _swapped(fn.__defaults__, swap)
            if new is not fn.__defaults__:
                self._set(fn, "__defaults__", new)
        if fn.__kwdefaults__:
            kw = {k: _swapped(v, swap) for k, v in fn.__kwdefaults__.items()}
            if any(kw[k] is not v for k, v in fn.__kwdefaults__.items()):
                self._set(fn, "__kwdefaults__", kw)

    def _set(self, owner, key: str, value) -> None:
        old = getattr(owner, key)
        setattr(owner, key, value)
        self._undo.append(lambda: setattr(owner, key, old))

    def _count_scalars(self) -> None:
        from sublat.exactlin import GaussianRational

        original = GaussianRational.__post_init__
        recorder = self

        def counted(scalar) -> None:
            recorder.allocs += 1
            original(scalar)

        self._set(GaussianRational, "__post_init__", counted)


def _swapped(value, swap: dict, depth: int = 2):
    """value with every traced function replaced by its wrapper."""
    hit = swap.get(id(value))
    if hit is not None and hit[0] is value:
        return hit[1]
    if depth and isinstance(value, tuple):
        items = tuple(_swapped(v, swap, depth - 1) for v in value)
        if any(a is not b for a, b in zip(items, value)):
            return items
    return value


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _has_ancestor(spans: list[list], i: int, name: str) -> bool:
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans: list[list], allocs: int, job_seconds: float):
    """The per-layer metrics of one traced pass, as name -> (value, unit), and
    each layer's share of job time in percent (self time of its spans; time
    in no span counts as untraced)."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_ms: dict[str, float] = defaultdict(float)
    total_ms: dict[str, float] = defaultdict(float)
    value: dict[str, float] = defaultdict(float)
    layer_ms: dict[str, float] = defaultdict(float)
    closure_ops = algebra_ranks = 0
    for i, span in enumerate(spans):
        name = span[NAME]
        calls[name] += 1
        self_ms[name] += own[i] * 1e3
        layer_ms[name.split(".", 1)[0]] += own[i] * 1e3
        if not _has_ancestor(spans, i, name):
            total_ms[name] += (span[END] - span[START]) * 1e3
        if span[VALUE] is not None:
            value[name] += span[VALUE]
        parent = span[PARENT]
        if (name in ("subspace.meet", "subspace.join", "subspace.leq") and parent >= 0
                and spans[parent][NAME] == "lattice.close_and_build"):
            closure_ops += 1
        if name == "exactlin.rank" and _has_ancestor(spans, i, "invariant.algebra_span"):
            algebra_ranks += 1

    count, ms = "count", "ms"
    cb = "lattice.close_and_build"
    elements = value[cb]
    metrics: dict[str, tuple[float, str]] = {
        f"{cb}.calls": (calls[cb], count),
        f"{cb}.ms": (total_ms[cb], ms),
        f"{cb}.self_ms": (self_ms[cb], ms),
        f"{cb}.elements": (elements, count),
        f"{cb}.ops_per_element": (closure_ops / elements if elements else 0.0, "ratio"),
        "lattice.check_laws.ms": (sum(total_ms[n] for n in LAW_CHECKS), ms),
    }
    for op in SUBSPACE_OPS:
        metrics[f"subspace.{op}.calls"] = (calls[f"subspace.{op}"], count)
        metrics[f"subspace.{op}.self_ms"] = (self_ms[f"subspace.{op}"], ms)
    for width in ("narrow", "wide"):
        metrics[f"exactlin.rref.{width}.calls"] = (calls[f"exactlin.rref.{width}"], count)
        metrics[f"exactlin.rref.{width}.self_ms"] = (self_ms[f"exactlin.rref.{width}"], ms)
    metrics["exactlin.rref.cells"] = (
        value["exactlin.rref.narrow"] + value["exactlin.rref.wide"], count)
    metrics["exactlin.scalar.allocs"] = (allocs, count)
    sb = "filters.search_bivaluations"
    metrics[f"{sb}.calls"] = (calls[sb], count)
    metrics[f"{sb}.self_ms"] = (self_ms[sb], ms)
    metrics[f"{sb}.results"] = (value[sb], count)
    metrics["filters.satisfies_laws.calls"] = (calls["filters.satisfies_laws"], count)
    metrics["filters.battery.calls"] = (sum(calls[n] for n in BATTERY), count)
    metrics["filters.battery.self_ms"] = (sum(self_ms[n] for n in BATTERY), ms)
    span_name = "invariant.algebra_span"
    metrics[f"{span_name}.calls"] = (calls[span_name], count)
    metrics[f"{span_name}.self_ms"] = (self_ms[span_name], ms)
    metrics[f"{span_name}.rank_calls"] = (algebra_ranks, count)
    metrics[f"{span_name}.accept_ratio"] = (
        value[span_name] / algebra_ranks if algebra_ranks else 0.0, "ratio")
    for fn in INVARIANT_CALLS:
        metrics[f"invariant.{fn}.calls"] = (calls[f"invariant.{fn}"], count)
        metrics[f"invariant.{fn}.ms"] = (total_ms[f"invariant.{fn}"], ms)
    metrics["cli.main.calls"] = (calls["cli.main"], count)
    metrics["cli.main.self_ms"] = (self_ms["cli.main"], ms)
    metrics["cli.parse_input.ms"] = (total_ms["cli.parse_input"], ms)
    job_ms = job_seconds * 1e3
    shares = {layer: 100.0 * layer_ms[layer] / job_ms for layer in LAYERS}
    shares["untraced"] = 100.0 - sum(shares.values())
    return metrics, shares


def write_spans(spans: list[list], path) -> None:
    """One tab-separated line per span: index, parent, job, name, start, end, value."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("index\tparent\tjob\tname\tstart_s\tend_s\tvalue\n")
        for i, s in enumerate(spans):
            out.write(f"{i}\t{s[PARENT]}\t{s[JOB]}\t{s[NAME]}\t{s[START]:.7f}\t"
                      f"{s[END]:.7f}\t{'' if s[VALUE] is None else s[VALUE]}\n")
