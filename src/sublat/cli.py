"""Batch front end: parse declaration files, run analyses, print reports.

Input files are line oriented. `#` starts a comment. Declarations:

    dim <n>
    ray <name> = [<scalar>, ...]
    proj <name> = [[<scalar>, ...], ...]
    context <name> = <projname>, <projname>, ...

Scalars use the exact grammar of exactlin.parse_scalar. The parser is
built once per process, on the first `main` call, and declares `file`,
--ops and --format text|records once each: --format serves every
subcommand (`dot` ignores it), `file` every one but demo-qubit and --ops
invariant and burnside. `main` loads the document, which closes its
declared subspaces once, on first use, and hands it and the one Reporter
to the subcommand. demo-qubit runs a fixed list of subcommands on a
built-in copy of the projectors and contexts of tests/data/qubit.sublat,
each after a one-line step header, and passes a step when it exits 0;
--seed picks the projector its filters step removes.

Each fact goes through one Reporter call that carries both its text and
its record: text mode prints the text, records mode prints one record
per line as space-separated key=value fields (spaces inside values
become underscores), so equal inputs produce byte-identical output.
`contexts` checks its contexts before its first line, so a file it
rejects leaves stdout empty; `burnside` prints its verdict before
closing the declared subspaces, which can exceed the closure cap.

Exit codes: 0 success, 1 input, parse or usage error (a negative
--limit or --assert-count and a dot --name that is no DOT identifier
included) or a stdout its reader closed early (nothing goes to stderr
then), 2 an --assert expectation (a demo-qubit step's included) failed.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import re
import sys
from dataclasses import dataclass, field

from . import filters as flt
from . import invariant as inv
from . import lattice as lt
from . import qubit
from . import subspace as sub
from .exactlin import ExactMatrix, GaussianRational, ScalarParseError, parse_scalar
from .lattice import FiniteLattice
from .subspace import StateVector, Subspace

__all__ = [
    "InputError",
    "InputSyntaxError",
    "InputValidationError",
    "InputDocument",
    "MAX_AMBIENT_DIM",
    "parse_input",
    "main",
]

DEFAULT_SEED = 20250815

# Largest accepted `dim`: the full space alone holds dim^2 exact scalars.
MAX_AMBIENT_DIM = 64


class InputError(ValueError):
    """Any problem with the input file; the CLI exits 1 on these."""


class InputSyntaxError(InputError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class InputValidationError(InputError):
    def __init__(self, declaration: str, law: str):
        super().__init__(f"declaration {declaration!r}: {law}")
        self.declaration = declaration
        self.law = law


@dataclass
class InputDocument:
    ambient_dim: int
    rays: dict[str, StateVector] = field(default_factory=dict)
    projectors: dict[str, ExactMatrix] = field(default_factory=dict)
    contexts: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @functools.cached_property
    def subspaces(self) -> dict[str, Subspace]:
        """The subspace each declared name denotes: a projector's image or a
        ray's span, projectors first, in declaration order."""
        named = {name: sub.image(m) for name, m in self.projectors.items()}
        named.update((name, sub.image(r.components)) for name, r in self.rays.items())
        return named

    @functools.cached_property
    def lattice(self) -> FiniteLattice:
        """The closure of the declared subspaces, built once, on first use."""
        return lt.close_and_build(self.subspaces.values(), ambient_dim=self.ambient_dim)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DIM_RE = re.compile(r"(\s*dim\s+)(\S+)\s*")
# `<keyword> <name> = <body>`; the keyword is the line's first token.
_DECL_RE = re.compile(rf"\s*\S+\s+({_NAME_RE.pattern})\s*=\s*(\S.*?)\s*")


def _items(text: str, base: int, line: int) -> list[tuple[str, int]]:
    """Split on commas outside brackets, in one scan; returns each item
    stripped, with the 0-based column of its first non-space character
    (for a blank item, the column just past its spaces)."""
    items: list[tuple[str, int]] = []
    depth = 0
    start = 0
    for idx, ch in enumerate(text + ","):  # the closing comma ends the last item
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise InputSyntaxError("unbalanced ']'", line, base + idx + 1)
        elif ch == "," and depth == 0:
            token = text[start:idx].lstrip()
            items.append((token.rstrip(), base + idx - len(token)))
            start = idx + 1
    if depth != 0:
        raise InputSyntaxError("unbalanced '['", line, base + len(text))
    return items


def _parse_scalar_at(token: str, offset: int, line: int) -> GaussianRational:
    try:
        return parse_scalar(token)
    except ScalarParseError as exc:
        raise InputSyntaxError(
            str(exc), line, offset + exc.position + 1
        ) from None


def _parse_bracket_list(
    text: str, offset: int, line: int, what: str, item: str, parse_item
) -> list:
    """Parse `[a, b, ...]`, each item through parse_item(token, column, line).

    `what` names the list and `item` its items in the error messages.
    """
    if not text.startswith("["):
        raise InputSyntaxError("expected '['", line, offset + 1)
    if not text.endswith("]"):
        raise InputSyntaxError("expected ']'", line, offset + len(text))
    inner = text[1:-1]
    if not inner.strip():
        raise InputSyntaxError(f"empty {what}", line, offset + 2)
    values = []
    for token, column in _items(inner, offset + 1, line):
        if not token:
            raise InputSyntaxError(f"empty {item}", line, column + 1)
        values.append(parse_item(token, column, line))
    return values


def _parse_vector(text: str, offset: int, line: int) -> list[GaussianRational]:
    return _parse_bracket_list(text, offset, line, "vector", "entry", _parse_scalar_at)


def parse_input(text: str) -> InputDocument:
    """Parse and validate declaration text.

    Syntax problems raise InputSyntaxError with a 1-based line and
    column; semantic problems raise InputValidationError naming the
    declaration and the law it broke.
    """
    dim: int | None = None
    rays: dict[str, StateVector] = {}
    projectors: dict[str, ExactMatrix] = {}
    contexts: dict[str, tuple[str, ...]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        keyword = line.split(None, 1)[0]
        keyword_col = line.index(keyword) + 1

        if keyword == "dim":
            m = _DIM_RE.fullmatch(line)
            if m is None:
                raise InputSyntaxError("malformed dim directive", lineno, keyword_col)
            digits = m.group(2).lstrip("0")
            if not (m.group(2).isascii() and m.group(2).isdigit() and digits):
                raise InputSyntaxError(
                    "dim takes a positive integer", lineno, m.start(2) + 1
                )
            if dim is not None:
                raise InputValidationError("dim", "declared more than once")
            # Refuse an overlong numeral before int() can (or cannot) read it.
            if len(digits) > len(str(MAX_AMBIENT_DIM)):
                raise InputValidationError("dim", f"dim with {len(digits)} digits "
                                           f"exceeds the limit of {MAX_AMBIENT_DIM}")
            dim = int(digits)
            if dim > MAX_AMBIENT_DIM:
                raise InputValidationError(
                    "dim", f"dim {dim} exceeds the limit of {MAX_AMBIENT_DIM}"
                )
            continue

        if keyword not in ("ray", "proj", "context"):
            raise InputSyntaxError(f"unknown directive {keyword!r}", lineno, keyword_col)
        if dim is None:
            raise InputValidationError(
                keyword, "dim must be declared before any other declaration"
            )
        m = _DECL_RE.fullmatch(line)
        if m is None:
            raise InputSyntaxError(
                f"malformed {keyword} declaration", lineno, keyword_col
            )
        name, body, body_col = m.group(1), m.group(2), m.start(2)
        if name in rays or name in projectors or name in contexts:
            raise InputValidationError(name, "name is already declared")

        if keyword == "ray":
            values = _parse_vector(body, body_col, lineno)
            if len(values) != dim:
                raise InputValidationError(
                    name, f"ray has {len(values)} components but dim is {dim}"
                )
            try:
                rays[name] = StateVector(ExactMatrix.column(values))
            except ValueError as exc:
                raise InputValidationError(name, str(exc)) from None
        elif keyword == "proj":
            rows = _parse_bracket_list(body, body_col, lineno, "matrix", "row", _parse_vector)
            if len(rows) != dim or any(len(r) != dim for r in rows):
                raise InputValidationError(
                    name, f"projector must be a {dim}x{dim} matrix"
                )
            matrix = ExactMatrix.from_rows(rows)
            if not matrix.is_hermitian():
                raise InputValidationError(name, "projector is not Hermitian")
            if not matrix.is_idempotent():
                raise InputValidationError(name, "projector is not idempotent")
            projectors[name] = matrix
        else:
            members = []
            for token, column in _items(body, body_col, lineno):
                if not _NAME_RE.fullmatch(token):
                    raise InputSyntaxError("expected a projector name", lineno, column + 1)
                if token not in projectors:
                    raise InputValidationError(
                        name, f"member {token!r} is not a declared projector"
                    )
                if token in members:
                    raise InputValidationError(name, f"duplicate member {token!r}")
                members.append(token)
            contexts[name] = tuple(members)

    if dim is None:
        raise InputValidationError("dim", "missing dim declaration")
    return InputDocument(dim, rays, projectors, contexts)


# --------------------------------------------------------------------------
# Output handling


def _record_value(value: object) -> str:
    """A bool as true/false, a flat list or tuple comma-joined; spaces as _."""
    if isinstance(value, bool):
        return "true" if value else "false"
    text = ",".join(map(str, value)) if isinstance(value, (list, tuple)) else str(value)
    return text.replace(" ", "_")


class Reporter:
    """Prints each fact once, in the chosen format.

    `out(text, kind, **fields)` prints `text` (one or more lines) in text
    mode and the record `kind field=value ...` in records mode. A call
    with `kind=None` is text only; one with `text=None` is a record only.
    """

    def __init__(self, fmt: str):
        self.records = fmt == "records"

    def __call__(self, text: str | None, kind: str | None = None, **fields: object) -> None:
        if not self.records:
            if text is not None:
                print(text)
        elif kind is not None:
            print(" ".join([kind] + [f"{k}={_record_value(v)}" for k, v in fields.items()]))


# --------------------------------------------------------------------------
# Shared command helpers


def _load_document(path: str) -> InputDocument:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        text = data.decode("utf-8-sig")  # drops a leading BOM
    except UnicodeDecodeError as exc:
        # exc.object follows any BOM; lines and columns count as in parse_input.
        lines = (exc.object[: exc.start].decode("utf-8") + "x").splitlines()
        raise InputSyntaxError(f"byte 0x{exc.object[exc.start]:02x} is not UTF-8",
                               len(lines), len(lines[-1])) from None
    return parse_input(text)


def _resolve_operators(doc: InputDocument, names: list[str]) -> list[ExactMatrix]:
    ops = []
    for name in names:
        if name not in doc.projectors:
            raise InputError(f"unknown projector {name!r}")
        ops.append(doc.projectors[name])
    return ops


def _bits(assignment: tuple[int, ...]) -> str:
    return "".join(str(v) for v in assignment)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _sublattice_line(
    out: Reporter, label: str, kind: str, spans: tuple[str, ...], **fields: object
) -> None:
    out(f"{label} ({len(spans)} elements): {', '.join(spans)}",
        kind, **fields, elements=len(spans), spans=spans)


# --------------------------------------------------------------------------
# Subcommands


def _cmd_lattice(doc: InputDocument, args: argparse.Namespace, out: Reporter) -> int:
    lat = doc.lattice
    n = len(lat)
    out(f"ambient dimension: {lat.ambient_dim}\nelements ({n}):",
        "lattice", ambient=lat.ambient_dim, elements=n, bottom=lat.bottom, top=lat.top)
    for i, s in enumerate(lat.elements):
        out(f"  [{i}] dim={s.dim} {s.span_str()}",
            "element", index=i, dim=s.dim, span=s.span_str())
    out("order (bit j of row i: element i <= element j):")
    for i, row in enumerate(lat.order):
        bits = "".join(["01"[b] for b in row])
        out(f"  [{i}] {bits}", "order", row=i, bits=bits)
    for kind, symbol, table in (
        ("meet", "^", lat.meet_table), ("join", "v", lat.join_table)
    ):
        out(f"{kind} table (entry j of row i: index of i {symbol} j):")
        for i, row in enumerate(table):
            entries = ",".join(map(str, row))
            out(f"  [{i}] {entries}", kind, row=i, entries=entries)
    return 0


_LAW_CHECKS = (
    ("distributive", lt.check_distributive),
    ("modular", lt.check_modular),
    ("orthomodular", lt.check_orthomodular),
)


def _cmd_laws(doc: InputDocument, args: argparse.Namespace, out: Reporter) -> int:
    lat = doc.lattice

    def span(e: int) -> str:
        return lat.elements[e].span_str()

    # law name -> (why an assertion of it fails, extra record fields)
    failures: dict[str, tuple[str, dict[str, str]]] = {}
    for law_name, check in _LAW_CHECKS:
        try:
            report = check(lat, limit=args.limit)
        except ValueError as exc:
            failures[law_name] = ("was not checked", {"status": "skipped"})
            out(f"{law_name}: skipped ({exc})",
                "law", name=law_name, status="skipped", reason=str(exc))
            continue
        if not report.holds:
            failures[law_name] = ("does not hold", {})
        shown = len(report.violations)
        verdict = ("holds" if report.holds else
                   f"fails ({report.total_violations} violations, showing {shown})")
        out(f"{law_name}: {verdict}", "law", name=law_name, status="checked",
            holds=report.holds, violations=report.total_violations, shown=shown)
        for v in report.violations:
            names = " ".join(f"{chr(97 + k)}={span(e)}" for k, e in enumerate(v.elements))
            out(f"  {names}: lhs={span(v.lhs)} rhs={span(v.rhs)}",
                "violation", law=law_name, elements=v.elements, lhs=v.lhs, rhs=v.rhs)
    for asserted in args.asserts or []:
        if asserted in failures:
            why, extra = failures[asserted]
            out(f"assertion failed: {asserted} {why}",
                "assertion", law=asserted, ok=False, **extra)
            return 2
    return 0


def _cmd_filters(doc: InputDocument, args: argparse.Namespace, out: Reporter) -> int:
    if args.remove not in doc.subspaces:
        raise InputError(f"unknown ray or projector {args.remove!r}")
    lat = doc.lattice
    target = doc.subspaces[args.remove]
    w = lat.index_of(target)
    filt = flt.coatom_complement_filter(lat, w)
    ideal = flt.ideal_complement(filt)
    directed = flt.is_downward_directed(filt)
    closed, witness = flt.is_upward_closed(filt)
    prime_paper = flt.is_prime_paper(filt)
    prime_standard = flt.is_prime_standard(filt)
    valuation = flt.homomorphism_from_filter(lat, filt, args.convention)

    def spans(members: list[int]) -> str:
        return ", ".join(lat.elements[i].span_str() for i in members)

    members = filt.sorted_members()
    out(f"lattice: {len(lat)} elements over C^{lat.ambient_dim}\n"
        f"removed element: {target.span_str()} (index {w})\n"
        f"filter ({len(filt)} members): {spans(members)}",
        "filter", removed=target.span_str(), removed_index=w, size=len(filt),
        members=members)
    out(f"downward directed: {_yes(directed)}",
        "property", name="downward-directed", value=directed)
    if closed:
        out("upward closed: yes", "property", name="upward-closed", value=True)
    else:
        low, high = witness
        out(f"upward closed: no (member {lat.elements[low].span_str()} lies below "
            f"non-member {lat.elements[high].span_str()})",
            "property", name="upward-closed", value=False,
            witness_low=low, witness_high=high)
    out(f"prime (paper convention): {_yes(prime_paper)}",
        "property", name="prime-paper", value=prime_paper)
    if prime_standard is flt.NOT_APPLICABLE:
        out("prime (standard convention): not applicable (not a standard filter)",
            "property", name="prime-standard", value="not-applicable")
    else:
        out(f"prime (standard convention): {_yes(prime_standard)}",
            "property", name="prime-standard", value=prime_standard)
    members = ideal.sorted_members()
    out(f"ideal ({len(ideal)} members): {spans(members)}",
        "ideal", size=len(ideal), members=members)
    out("\n".join([f"valuation ({valuation.convention} convention):"] + [
        f"  v({s.span_str()}) = {b}" for s, b in zip(lat.elements, valuation.assignment)
    ]), "valuation", convention=valuation.convention, bits=_bits(valuation.assignment))
    return 0


def _cmd_valuations(doc: InputDocument, args: argparse.Namespace, out: Reporter) -> int:
    laws = sorted(flt._check_law_tokens(token for token in args.laws.split(",") if token))
    lat = doc.lattice
    found = flt.search_bivaluations(lat, laws)
    out(f"laws: {', '.join(laws)}\nlattice: {len(lat)} elements",
        "search", laws=laws, elements=len(lat), found=len(found))
    for i, s in enumerate(lat.elements):
        out(f"  [{i}] {s.span_str()}", "legend", index=i, span=s.span_str())
    out(f"valuations found: {len(found)}")
    for k, v in enumerate(found):
        bits = _bits(v)
        out(f"  [{k}] {bits}", "valuation", index=k, bits=bits)
    if args.assert_count is not None and args.assert_count != len(found):
        out(f"assertion failed: expected {args.assert_count} valuations, "
            f"found {len(found)}",
            "assertion", expected=args.assert_count, found=len(found), ok=False)
        return 2
    return 0


def _cmd_invariant(doc: InputDocument, args: argparse.Namespace, out: Reporter) -> int:
    ops = _resolve_operators(doc, args.ops)
    universe = doc.lattice
    out(f"universe: {len(universe)} elements over C^{universe.ambient_dim}",
        "universe", elements=len(universe), ambient=universe.ambient_dim)
    kept = [inv.invariant_indices([op], universe) for op in ops]
    for name, indices in zip(args.ops, kept):
        _sublattice_line(out, f"invariant sublattice of {name}", "invariant",
                         lt.sublattice(universe, indices).spans(), op=name)
    _sublattice_line(out, "common invariant sublattice", "common",
                     lt.sublattice(universe, frozenset.intersection(*kept)).spans())
    return 0


def _cmd_burnside(doc: InputDocument, args: argparse.Namespace, out: Reporter) -> int:
    ops = _resolve_operators(doc, args.ops)
    span = inv.algebra_span(ops)
    full = span.side * span.side
    irreducible = span.dim == full
    verdict = "irreducible" if irreducible else "reducible"
    out(f"generators: {', '.join(args.ops)}\n"
        f"algebra dimension: {span.dim} of {full}\n"
        f"irreducible: {_yes(irreducible)}",
        "burnside", generators=args.ops, dimension=span.dim, full=full,
        irreducible=irreducible)
    # The verdict is out before the universe is closed, which can hit the
    # closure cap.
    common = inv.common_invariant_sublattice(ops, doc.lattice)
    spans = common.spans()
    out(f"common invariant subspaces ({len(common)}): {', '.join(spans)}",
        "common", elements=len(common), spans=spans)
    if args.assert_verdict not in (None, verdict):
        out(f"assertion failed: expected {args.assert_verdict}, got {verdict}",
            "assertion", expected=args.assert_verdict, ok=False)
        return 2
    return 0


def _cmd_contexts(doc: InputDocument, args: argparse.Namespace, out: Reporter) -> int:
    if not doc.contexts:
        raise InputError("no contexts declared")
    universe = doc.lattice
    contexts = {
        name: inv.invariant_indices(_resolve_operators(doc, members), universe)
        for name, members in sorted(doc.contexts.items())
    }
    # The report can reject the file, so it runs before the first line.
    report = inv.contextual_valuation_report(universe, contexts)

    for s in report.summaries:
        _sublattice_line(out, f"context {s.name}", "context", s.element_spans, name=s.name)
    out("meet-defined matrix (within some registered lattice):")
    for span, bits in report.meet_defined_rows:
        out(f"  {span} {bits}", "meet_defined", element=span, bits=bits)
    for summary in report.summaries:
        out(f"valuations in context {summary.name}:\n"
            f"  elements: {', '.join(summary.element_spans)}")
        for atom_span, bits in zip(summary.atom_spans, map(_bits, summary.paper_valuations)):
            out(f"  paper valuation at {atom_span}: {bits}",
                "paper_valuation", context=summary.name, atom=atom_span, bits=bits)
        for bits in map(_bits, summary.standard_valuations):
            out(f"  standard valuation: {bits}",
                "standard_valuation", context=summary.name, bits=bits)
        if summary.excluded_atom_spans:
            out("  domain excludes (meet undefined): "
                + ", ".join(summary.excluded_atom_spans),
                "excluded", context=summary.name, atoms=summary.excluded_atom_spans)
    out(f"union lattice elements: {', '.join(report.union_spans)}\n"
        f"union atoms: {', '.join(report.union_atom_spans)}",
        "union", spans=report.union_spans, atoms=report.union_atom_spans)
    for header, kind, found in (
        ("atom assignments consistent with every context separately",
         "consistent", report.per_lattice_consistent),
        ("global valuations on the union lattice", "global", report.global_valuations),
    ):
        out(f"{header}: {len(found)}")
        for bits in map(_bits, found):
            out(f"  {bits}", kind, bits=bits)
    out(None, "summary", consistent=len(report.per_lattice_consistent),
        global_valuations=len(report.global_valuations))
    return 0


def _cmd_dot(doc: InputDocument, args: argparse.Namespace, out: Reporter) -> int:
    # --format is accepted and `out` ignored: DOT is its own format.
    dot = lt.to_dot(doc.lattice, name=args.name)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(dot)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from None
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(dot)
    return 0


# --------------------------------------------------------------------------
# demo-qubit


def _qubit_document() -> InputDocument:
    """The projectors and contexts of tests/data/qubit.sublat: P(q, n) of
    qubit.projector is named by q's axis (x, y, z for q = 1, 2, 3) and n,
    and context c<axis> holds the axis's two projectors."""
    projectors = {f"{axis}{n}": qubit.projector(q, n)
                  for q, axis in enumerate("xyz", start=1) for n in (1, 2)}
    contexts = {f"c{axis}": (f"{axis}1", f"{axis}2") for axis in "xyz"}
    return InputDocument(2, projectors=projectors, contexts=contexts)


# The steps' commands and options, on the document of _qubit_document; P
# stands for the projector the seed picks.
_DEMO_STEPS = (
    ("lattice",),
    ("laws", "--assert", "modular", "--assert", "orthomodular"),
    ("contexts",),
    ("burnside", "--ops", "x1", "x2", "y1", "y2", "z1", "z2", "--assert", "irreducible"),
    ("burnside", "--ops", "x1", "x2", "--assert", "reducible"),
    ("filters", "--remove", "P"),
    ("valuations", "--assert-count", "0"),
)


@functools.cache
def _parse_step(step: tuple[str, ...]) -> argparse.Namespace:
    """A step parsed once per process, with a placeholder for the file."""
    return _build_parser().parse_args([step[0], "-", *step[1:]])


def _cmd_demo(doc: InputDocument, args: argparse.Namespace, out: Reporter) -> int:
    removed = random.Random(args.seed).choice(sorted(doc.projectors))
    failed = 0
    for step in _DEMO_STEPS:
        step = tuple(removed if a == "P" else a for a in step)
        out(f"step: {' '.join(step)}", "step", command=step[0], options=step[1:])
        parsed = _parse_step(step)
        failed += parsed.handler(doc, parsed, out) != 0
    checks = len(_DEMO_STEPS)
    out(f"demo-qubit: {checks - failed}/{checks} checks passed",
        "summary", checks=checks, failed=failed)
    return 2 if failed else 0


# --------------------------------------------------------------------------
# Argument parsing


class _ArgumentParser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    expectation failures, so usage problems exit 1 instead."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _nonnegative_int(text: str) -> int:
    """argparse type for a count; a negative value is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}  # any case


def _dot_name(text: str) -> str:
    """argparse type for a DOT graph name: a declaration name that is no DOT
    keyword, so DOT reads it as an identifier."""
    if not _NAME_RE.fullmatch(text) or text.lower() in _DOT_KEYWORDS:
        raise argparse.ArgumentTypeError(f"not a DOT identifier: {text!r}")
    return text


@functools.cache
def _build_parser() -> _ArgumentParser:
    """Build the parser on the first `main` call; later calls reuse it.

    Parsing leaves it unchanged, so no call's options carry over.
    """
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument(
        "--format",
        choices=("text", "records"),
        default="text",
        help="output style: human-readable text or line-delimited records",
    )
    reads_file = argparse.ArgumentParser(add_help=False, parents=[formatted])
    reads_file.add_argument("file")
    operates = argparse.ArgumentParser(add_help=False, parents=[reads_file])
    operates.add_argument("--ops", nargs="+", required=True, help="projector names")

    parser = _ArgumentParser(
        prog="sublat",
        description="Exact workbench for finite lattices of closed subspaces.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(
        name: str, summary: str, handler, parent=reads_file
    ) -> argparse.ArgumentParser:
        p = commands.add_parser(name, help=summary, parents=[parent])
        p.set_defaults(handler=handler)
        return p

    command("lattice", "catalogue, order, meet and join tables", _cmd_lattice)

    p = command("laws", "distributive, modular, orthomodular checks", _cmd_laws)
    p.add_argument(
        "--limit", type=_nonnegative_int, default=10, help="violations shown per law"
    )
    p.add_argument(
        "--assert",
        dest="asserts",
        action="append",
        choices=[name for name, _ in _LAW_CHECKS],
        help="exit 2 unless the law holds (repeatable)",
    )

    p = command(
        "filters", "deleted-element filter, ideal, primality, valuation", _cmd_filters
    )
    p.add_argument("--remove", required=True, help="ray or projector name to remove")
    p.add_argument(
        "--convention",
        choices=(flt.CONVENTION_PAPER, flt.CONVENTION_STANDARD),
        default=flt.CONVENTION_PAPER,
    )

    p = command("valuations", "two-valued maps satisfying the laws", _cmd_valuations)
    p.add_argument(
        "--laws",
        default=",".join(sorted(flt.FULL_HOMOMORPHISM_LAWS)),
        help="comma-separated law tokens",
    )
    p.add_argument(
        "--assert-count",
        type=_nonnegative_int,
        default=None,
        help="exit 2 unless exactly this many maps are found",
    )

    command("invariant", "invariant sublattices of declared projectors", _cmd_invariant,
            parent=operates)

    p = command("burnside", "generated algebra dimension and irreducibility", _cmd_burnside,
                parent=operates)
    p.add_argument(
        "--assert",
        dest="assert_verdict",
        choices=("irreducible", "reducible"),
        default=None,
        help="exit 2 unless the verdict matches",
    )

    command(
        "contexts", "context lattices, meet-definedness, valuation report", _cmd_contexts
    )

    p = command("dot", "Hasse diagram in DOT form", _cmd_dot)
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.add_argument("--name", type=_dot_name, default="lattice",
                   help="DOT graph name: letters, digits and _; no leading digit or keyword")

    p = command(
        "demo-qubit", "the reports above on the built-in qubit document", _cmd_demo,
        parent=formatted,
    )
    p.set_defaults(file=None)
    p.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="seed that picks the projector the filters step removes",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = _qubit_document() if args.file is None else _load_document(args.file)
        code = args.handler(doc, args, Reporter(args.format))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone; devnull takes the rest, so the exit's flush is quiet.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:  # InputError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
