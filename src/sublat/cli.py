"""Batch front end: parse declaration files, run analyses, print reports.

Input files are line oriented. `#` starts a comment. Declarations:

    dim <n>
    ray <name> = [<scalar>, ...]
    proj <name> = [[<scalar>, ...], ...]
    context <name> = <projname>, <projname>, ...

Scalars use the exact grammar of exactlin.parse_scalar. Every subcommand
accepts --format text|records; records mode prints one record per line as
space-separated key=value fields (spaces inside values become
underscores), so equal inputs produce byte-identical output.

Exit codes: 0 success, 1 input or parse error, 2 a demo-qubit check or an
--assert expectation failed.
"""

from __future__ import annotations

import argparse
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


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DIM_RE = re.compile(r"(\s*dim\s+)(\S+)\s*")
_RAY_RE = re.compile(r"(\s*ray\s+)([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(\S.*?)\s*")
_PROJ_RE = re.compile(r"(\s*proj\s+)([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(\S.*?)\s*")
_CONTEXT_RE = re.compile(r"(\s*context\s+)([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(\S.*?)\s*")


def _split_top_level(text: str, base: int, line: int) -> list[tuple[str, int]]:
    """Split on commas outside brackets; returns (piece, offset) pairs."""
    pieces: list[tuple[str, int]] = []
    depth = 0
    start = 0
    for idx, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise InputSyntaxError("unbalanced ']'", line, base + idx + 1)
        elif ch == "," and depth == 0:
            pieces.append((text[start:idx], base + start))
            start = idx + 1
    if depth != 0:
        raise InputSyntaxError("unbalanced '['", line, base + len(text))
    pieces.append((text[start:], base + start))
    return pieces


def _strip_with_offset(piece: str, offset: int) -> tuple[str, int]:
    stripped_left = piece.lstrip()
    offset += len(piece) - len(stripped_left)
    return stripped_left.rstrip(), offset


def _parse_scalar_at(token: str, offset: int, line: int) -> GaussianRational:
    try:
        return parse_scalar(token)
    except ScalarParseError as exc:
        raise InputSyntaxError(
            str(exc), line, offset + exc.position + 1
        ) from None


def _parse_bracket_vector(text: str, offset: int, line: int) -> list[GaussianRational]:
    if not text.startswith("["):
        raise InputSyntaxError("expected '['", line, offset + 1)
    if not text.endswith("]"):
        raise InputSyntaxError("expected ']'", line, offset + len(text))
    inner = text[1:-1]
    if not inner.strip():
        raise InputSyntaxError("empty vector", line, offset + 2)
    values = []
    for piece, piece_off in _split_top_level(inner, offset + 1, line):
        token, token_off = _strip_with_offset(piece, piece_off)
        if not token:
            raise InputSyntaxError("empty entry", line, token_off + 1)
        values.append(_parse_scalar_at(token, token_off, line))
    return values


def _parse_bracket_matrix(text: str, offset: int, line: int) -> list[list[GaussianRational]]:
    if not text.startswith("["):
        raise InputSyntaxError("expected '['", line, offset + 1)
    if not text.endswith("]"):
        raise InputSyntaxError("expected ']'", line, offset + len(text))
    inner = text[1:-1]
    if not inner.strip():
        raise InputSyntaxError("empty matrix", line, offset + 2)
    rows = []
    for piece, piece_off in _split_top_level(inner, offset + 1, line):
        token, token_off = _strip_with_offset(piece, piece_off)
        if not token:
            raise InputSyntaxError("empty row", line, token_off + 1)
        rows.append(_parse_bracket_vector(token, token_off, line))
    return rows


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

    def check_fresh(name: str, lineno: int) -> None:
        if name in rays or name in projectors or name in contexts:
            raise InputValidationError(name, "name is already declared")

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
            if not m.group(2).isdigit() or int(m.group(2)) < 1:
                raise InputSyntaxError(
                    "dim takes a positive integer", lineno, m.start(2) + 1
                )
            if dim is not None:
                raise InputValidationError("dim", "declared more than once")
            dim = int(m.group(2))
            if dim > MAX_AMBIENT_DIM:
                raise InputValidationError(
                    "dim", f"dim {dim} exceeds the limit of {MAX_AMBIENT_DIM}"
                )
            continue

        if keyword in ("ray", "proj", "context") and dim is None:
            raise InputValidationError(
                keyword, "dim must be declared before any other declaration"
            )

        if keyword == "ray":
            m = _RAY_RE.fullmatch(line)
            if m is None:
                raise InputSyntaxError("malformed ray declaration", lineno, keyword_col)
            name = m.group(2)
            check_fresh(name, lineno)
            values = _parse_bracket_vector(m.group(3), m.start(3), lineno)
            if len(values) != dim:
                raise InputValidationError(
                    name, f"ray has {len(values)} components but dim is {dim}"
                )
            try:
                rays[name] = StateVector(ExactMatrix.column(values))
            except ValueError as exc:
                raise InputValidationError(name, str(exc)) from None
            continue

        if keyword == "proj":
            m = _PROJ_RE.fullmatch(line)
            if m is None:
                raise InputSyntaxError("malformed proj declaration", lineno, keyword_col)
            name = m.group(2)
            check_fresh(name, lineno)
            rows = _parse_bracket_matrix(m.group(3), m.start(3), lineno)
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
            continue

        if keyword == "context":
            m = _CONTEXT_RE.fullmatch(line)
            if m is None:
                raise InputSyntaxError(
                    "malformed context declaration", lineno, keyword_col
                )
            name = m.group(2)
            check_fresh(name, lineno)
            members = []
            for piece, piece_off in _split_top_level(m.group(3), m.start(3), lineno):
                token, token_off = _strip_with_offset(piece, piece_off)
                if not _NAME_RE.fullmatch(token):
                    raise InputSyntaxError(
                        "expected a projector name", lineno, token_off + 1
                    )
                if token not in projectors:
                    raise InputValidationError(
                        name, f"member {token!r} is not a declared projector"
                    )
                if token in members:
                    raise InputValidationError(name, f"duplicate member {token!r}")
                members.append(token)
            contexts[name] = tuple(members)
            continue

        raise InputSyntaxError(f"unknown directive {keyword!r}", lineno, keyword_col)

    if dim is None:
        raise InputValidationError("dim", "missing dim declaration")
    return InputDocument(dim, rays, projectors, contexts)


# --------------------------------------------------------------------------
# Output handling


def _record_value(value: object) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (list, tuple)):
        return ",".join(_record_value(v) for v in value)
    return str(value).replace(" ", "_")


class Reporter:
    """Routes each logical output line to the chosen format."""

    def __init__(self, fmt: str, stream=None):
        self.fmt = fmt
        self.stream = stream if stream is not None else sys.stdout

    def text(self, line: str = "") -> None:
        if self.fmt == "text":
            print(line, file=self.stream)

    def record(self, kind: str, **fields: object) -> None:
        if self.fmt == "records":
            parts = [kind] + [f"{k}={_record_value(v)}" for k, v in fields.items()]
            print(" ".join(parts), file=self.stream)


# --------------------------------------------------------------------------
# Shared command helpers


def _load_document(path: str) -> InputDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return parse_input(text)


def _document_seeds(doc: InputDocument) -> list[Subspace]:
    seeds = [sub.image(m) for m in doc.projectors.values()]
    seeds += [sub.image(r.components) for r in doc.rays.values()]
    return seeds


def _build_lattice(doc: InputDocument) -> FiniteLattice:
    return lt.close_and_build(_document_seeds(doc), ambient_dim=doc.ambient_dim)


def _resolve_subspace(doc: InputDocument, name: str) -> Subspace:
    if name in doc.rays:
        return sub.image(doc.rays[name].components)
    if name in doc.projectors:
        return sub.image(doc.projectors[name])
    raise InputError(f"unknown ray or projector {name!r}")


def _resolve_operators(doc: InputDocument, names: list[str]) -> list[ExactMatrix]:
    ops = []
    for name in names:
        if name not in doc.projectors:
            raise InputError(f"unknown projector {name!r}")
        ops.append(doc.projectors[name])
    return ops


def _bits(assignment: tuple[int, ...]) -> str:
    return "".join(str(v) for v in assignment)


# --------------------------------------------------------------------------
# Subcommands


def _cmd_lattice(args: argparse.Namespace) -> int:
    doc = _load_document(args.file)
    lat = _build_lattice(doc)
    rep = Reporter(args.format)
    rep.record(
        "lattice",
        ambient=lat.ambient_dim,
        elements=len(lat),
        bottom=lat.bottom,
        top=lat.top,
    )
    rep.text(f"ambient dimension: {lat.ambient_dim}")
    rep.text(f"elements ({len(lat)}):")
    for i, s in enumerate(lat.elements):
        rep.text(f"  [{i}] dim={s.dim} {s.span_str()}")
        rep.record("element", index=i, dim=s.dim, span=s.span_str())
    rep.text("order (bit j of row i: element i <= element j):")
    for i in range(len(lat)):
        bits = "".join("1" if lat.leq(i, j) else "0" for j in range(len(lat)))
        rep.text(f"  [{i}] {bits}")
        rep.record("order", row=i, bits=bits)
    rep.text("meet table (entry j of row i: index of i ^ j):")
    for i in range(len(lat)):
        row = lat.meet_table[i]
        rep.text(f"  [{i}] {','.join(str(v) for v in row)}")
        rep.record("meet", row=i, entries=row)
    rep.text("join table (entry j of row i: index of i v j):")
    for i in range(len(lat)):
        row = lat.join_table[i]
        rep.text(f"  [{i}] {','.join(str(v) for v in row)}")
        rep.record("join", row=i, entries=row)
    return 0


_LAW_CHECKS = (
    ("distributive", lt.check_distributive),
    ("modular", lt.check_modular),
    ("orthomodular", lt.check_orthomodular),
)


def _cmd_laws(args: argparse.Namespace) -> int:
    doc = _load_document(args.file)
    lat = _build_lattice(doc)
    rep = Reporter(args.format)
    verdicts: dict[str, bool | None] = {}
    for law_name, check in _LAW_CHECKS:
        try:
            report = check(lat, limit=args.limit)
        except ValueError as exc:
            verdicts[law_name] = None
            rep.text(f"{law_name}: skipped ({exc})")
            rep.record("law", name=law_name, status="skipped", reason=str(exc))
            continue
        verdicts[law_name] = report.holds
        if report.holds:
            rep.text(f"{law_name}: holds")
        else:
            shown = len(report.violations)
            rep.text(
                f"{law_name}: fails ({report.total_violations} violations, "
                f"showing {shown})"
            )
        rep.record(
            "law",
            name=law_name,
            status="checked",
            holds=report.holds,
            violations=report.total_violations,
            shown=len(report.violations),
        )
        for v in report.violations:
            names = " ".join(
                f"{chr(97 + k)}={lat.elements[e].span_str()}"
                for k, e in enumerate(v.elements)
            )
            rep.text(
                f"  {names}: lhs={lat.elements[v.lhs].span_str()} "
                f"rhs={lat.elements[v.rhs].span_str()}"
            )
            rep.record(
                "violation",
                law=law_name,
                elements=v.elements,
                lhs=v.lhs,
                rhs=v.rhs,
            )
    for asserted in args.asserts or []:
        if verdicts.get(asserted) is not True:
            rep.text(f"assertion failed: {asserted} does not hold")
            rep.record("assertion", law=asserted, ok=False)
            return 2
    return 0


def _cmd_filters(args: argparse.Namespace) -> int:
    doc = _load_document(args.file)
    lat = _build_lattice(doc)
    rep = Reporter(args.format)
    target = _resolve_subspace(doc, args.remove)
    w = lat.index_of(target)
    filt = flt.coatom_complement_filter(lat, w)
    ideal = flt.ideal_complement(lat, filt)
    directed = flt.is_downward_directed(filt)
    closed, witness = flt.is_upward_closed(filt)
    prime_paper = flt.is_prime_paper(filt)
    prime_standard = flt.is_prime_standard(filt)
    valuation = flt.homomorphism_from_filter(lat, filt, args.convention)

    rep.text(f"lattice: {len(lat)} elements over C^{lat.ambient_dim}")
    rep.text(f"removed element: {target.span_str()} (index {w})")
    members = ", ".join(lat.elements[i].span_str() for i in filt.sorted_members())
    rep.text(f"filter ({len(filt)} members): {members}")
    rep.record(
        "filter",
        removed=target.span_str(),
        removed_index=w,
        size=len(filt),
        members=filt.sorted_members(),
    )
    rep.text(f"downward directed: {'yes' if directed else 'no'}")
    rep.record("property", name="downward-directed", value=directed)
    if closed:
        rep.text("upward closed: yes")
        rep.record("property", name="upward-closed", value=True)
    else:
        low, high = witness
        rep.text(
            f"upward closed: no (member {lat.elements[low].span_str()} lies below "
            f"non-member {lat.elements[high].span_str()})"
        )
        rep.record(
            "property",
            name="upward-closed",
            value=False,
            witness_low=low,
            witness_high=high,
        )
    rep.text(f"prime (paper convention): {'yes' if prime_paper else 'no'}")
    rep.record("property", name="prime-paper", value=prime_paper)
    if prime_standard is flt.NOT_APPLICABLE:
        rep.text("prime (standard convention): not applicable (not a standard filter)")
        rep.record("property", name="prime-standard", value="not-applicable")
    else:
        rep.text(f"prime (standard convention): {'yes' if prime_standard else 'no'}")
        rep.record("property", name="prime-standard", value=prime_standard)
    ideal_members = ", ".join(
        lat.elements[i].span_str() for i in ideal.sorted_members()
    )
    rep.text(f"ideal ({len(ideal)} members): {ideal_members}")
    rep.record("ideal", size=len(ideal), members=ideal.sorted_members())
    rep.text(f"valuation ({valuation.convention} convention):")
    for i, s in enumerate(lat.elements):
        rep.text(f"  v({s.span_str()}) = {valuation.value(i)}")
    rep.record(
        "valuation", convention=valuation.convention, bits=_bits(valuation.assignment)
    )
    return 0


def _cmd_valuations(args: argparse.Namespace) -> int:
    doc = _load_document(args.file)
    lat = _build_lattice(doc)
    rep = Reporter(args.format)
    laws = [token for token in args.laws.split(",") if token]
    try:
        found = flt.search_bivaluations(lat, laws)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    rep.text(f"laws: {', '.join(sorted(laws))}")
    rep.text(f"lattice: {len(lat)} elements")
    rep.record("search", laws=sorted(laws), elements=len(lat), found=len(found))
    for i, s in enumerate(lat.elements):
        rep.text(f"  [{i}] {s.span_str()}")
        rep.record("legend", index=i, span=s.span_str())
    rep.text(f"valuations found: {len(found)}")
    for k, biv in enumerate(found):
        rep.text(f"  [{k}] {_bits(biv.assignment)}")
        rep.record("valuation", index=k, bits=_bits(biv.assignment))
    if args.assert_count is not None and args.assert_count != len(found):
        rep.text(
            f"assertion failed: expected {args.assert_count} valuations, "
            f"found {len(found)}"
        )
        rep.record(
            "assertion", expected=args.assert_count, found=len(found), ok=False
        )
        return 2
    return 0


def _cmd_invariant(args: argparse.Namespace) -> int:
    doc = _load_document(args.file)
    universe = _build_lattice(doc)
    rep = Reporter(args.format)
    ops = _resolve_operators(doc, args.ops)
    rep.text(f"universe: {len(universe)} elements over C^{universe.ambient_dim}")
    rep.record("universe", elements=len(universe), ambient=universe.ambient_dim)
    for name, op in zip(args.ops, ops):
        lat = inv.invariant_sublattice(op, universe)
        spans = ", ".join(lat.spans())
        rep.text(f"invariant sublattice of {name} ({len(lat)} elements): {spans}")
        rep.record("invariant", op=name, elements=len(lat), spans=lat.spans())
    common = inv.common_invariant_sublattice(ops, universe)
    spans = ", ".join(common.spans())
    rep.text(f"common invariant sublattice ({len(common)} elements): {spans}")
    rep.record("common", elements=len(common), spans=common.spans())
    return 0


def _cmd_burnside(args: argparse.Namespace) -> int:
    doc = _load_document(args.file)
    universe = _build_lattice(doc)
    rep = Reporter(args.format)
    ops = _resolve_operators(doc, args.ops)
    span = inv.algebra_span(ops)
    side = span.side
    irreducible = inv.is_irreducible(ops)
    common = inv.common_invariant_sublattice(ops, universe)
    rep.text(f"generators: {', '.join(args.ops)}")
    rep.text(f"algebra dimension: {span.dim} of {side * side}")
    rep.text(f"irreducible: {'yes' if irreducible else 'no'}")
    rep.text(
        f"common invariant subspaces ({len(common)}): {', '.join(common.spans())}"
    )
    rep.record(
        "burnside",
        generators=args.ops,
        dimension=span.dim,
        full=side * side,
        irreducible=irreducible,
    )
    rep.record("common", elements=len(common), spans=common.spans())
    if args.assert_verdict is not None:
        expected = args.assert_verdict == "irreducible"
        if irreducible != expected:
            rep.text(
                f"assertion failed: expected {args.assert_verdict}, got "
                f"{'irreducible' if irreducible else 'reducible'}"
            )
            rep.record(
                "assertion", expected=args.assert_verdict, ok=False
            )
            return 2
    return 0


def _cmd_contexts(args: argparse.Namespace) -> int:
    doc = _load_document(args.file)
    if not doc.contexts:
        raise InputError("no contexts declared")
    universe = _build_lattice(doc)
    rep = Reporter(args.format)
    registry = inv.LatticeRegistry()
    for name, member_names in doc.contexts.items():
        members = [doc.projectors[m] for m in member_names]
        registry.register(name, inv.common_invariant_sublattice(members, universe))

    for name, lat in registry.items():
        rep.text(f"context {name} ({len(lat)} elements): {', '.join(lat.spans())}")
        rep.record("context", name=name, elements=len(lat), spans=lat.spans())

    union_elements = sorted(
        {s for _, lat in registry.items() for s in lat.elements},
        key=Subspace.sort_key,
    )
    rep.text("meet-defined matrix (within some registered lattice):")
    for x in union_elements:
        bits = "".join(
            "1" if inv.meet_defined(x, y, registry) else "0" for y in union_elements
        )
        rep.text(f"  {x.span_str()} {bits}")
        rep.record("meet_defined", element=x.span_str(), bits=bits)

    try:
        report = inv.contextual_valuation_report(registry)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    for summary in report.summaries:
        rep.text(f"valuations in context {summary.name}:")
        rep.text(f"  elements: {', '.join(summary.element_spans)}")
        for atom_span, bits in zip(summary.atom_spans, summary.paper_valuations):
            rep.text(f"  paper valuation at {atom_span}: {_bits(bits)}")
            rep.record(
                "paper_valuation",
                context=summary.name,
                atom=atom_span,
                bits=_bits(bits),
            )
        for bits in summary.standard_valuations:
            rep.text(f"  standard valuation: {_bits(bits)}")
            rep.record(
                "standard_valuation", context=summary.name, bits=_bits(bits)
            )
        if summary.excluded_atom_spans:
            rep.text(
                "  domain excludes (meet undefined): "
                + ", ".join(summary.excluded_atom_spans)
            )
            rep.record(
                "excluded", context=summary.name, atoms=summary.excluded_atom_spans
            )
    rep.text(f"union lattice elements: {', '.join(report.union_spans)}")
    rep.text(f"union atoms: {', '.join(report.union_atom_spans)}")
    rep.record("union", spans=report.union_spans, atoms=report.union_atom_spans)
    rep.text(
        "atom assignments consistent with every context separately: "
        f"{len(report.per_lattice_consistent)}"
    )
    for bits in report.per_lattice_consistent:
        rep.text(f"  {_bits(bits)}")
        rep.record("consistent", bits=_bits(bits))
    rep.text(
        f"global valuations on the union lattice: {len(report.global_valuations)}"
    )
    for bits in report.global_valuations:
        rep.text(f"  {_bits(bits)}")
        rep.record("global", bits=_bits(bits))
    rep.record(
        "summary",
        consistent=len(report.per_lattice_consistent),
        global_valuations=len(report.global_valuations),
    )
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    doc = _load_document(args.file)
    lat = _build_lattice(doc)
    dot = lt.to_dot(lat, name=args.name)
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


_EXPECTED_CATALOGUE = frozenset(
    {
        "{0}",
        "span{[0,1]}",
        "span{[1,-1]}",
        "span{[1,-i]}",
        "span{[1,0]}",
        "span{[1,i]}",
        "span{[1,1]}",
        "C^2",
    }
)
_EXPECTED_CONTEXT_SPANS = {
    1: frozenset({"{0}", "span{[1,1]}", "span{[1,-1]}", "C^2"}),
    2: frozenset({"{0}", "span{[1,i]}", "span{[1,-i]}", "C^2"}),
    3: frozenset({"{0}", "span{[1,0]}", "span{[0,1]}", "C^2"}),
}


def _cmd_demo(args: argparse.Namespace) -> int:
    rep = Reporter(args.format)
    checks: list[tuple[str, bool]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, ok))
        suffix = f" ({detail})" if detail else ""
        rep.text(f"check {name}: {'ok' if ok else 'FAILED'}{suffix}")
        rep.record("check", name=name, ok=ok)

    # Catalogue: closure of the six nontrivial projector images.
    images = [sub.image(p) for p in qubit.nontrivial_projectors()]
    full_lattice = lt.close_and_build(images, ambient_dim=2)
    rep.text("subspace catalogue from the six nontrivial projectors:")
    for i, s in enumerate(full_lattice.elements):
        rep.text(f"  [{i}] dim={s.dim} {s.span_str()}")
        rep.record("element", index=i, dim=s.dim, span=s.span_str())
    check(
        "catalogue",
        frozenset(full_lattice.spans()) == _EXPECTED_CATALOGUE
        and len(full_lattice) == 8,
    )

    # Context lattices.
    context_lattices: dict[int, FiniteLattice] = {}
    for w in (1, 2, 3):
        members = list(qubit.context(w).members)
        lat = inv.common_invariant_sublattice(members, full_lattice)
        context_lattices[w] = lat
        rep.text(f"invariant lattice for context {w}: {', '.join(lat.spans())}")
        rep.record("context_lattice", w=w, spans=lat.spans())
        check(
            f"context-lattice-{w}",
            frozenset(lat.spans()) == _EXPECTED_CONTEXT_SPANS[w],
        )

    # Algebra dimensions and irreducibility.
    sigma = list(qubit.nontrivial_projectors())
    full_dim = inv.algebra_span(sigma).dim
    single_dim = inv.algebra_span(list(qubit.context(1).members)).dim
    common = inv.common_invariant_sublattice(sigma, full_lattice)
    rep.text(
        f"algebra dimension: full family {full_dim} of 4, single context "
        f"{single_dim} of 4"
    )
    rep.record("algebra", full=full_dim, single_context=single_dim)
    check("burnside-full-family", full_dim == 4 and inv.is_irreducible(sigma))
    check(
        "burnside-single-context",
        single_dim == 2 and not inv.is_irreducible(list(qubit.context(1).members)),
    )
    check(
        "common-invariants-trivial",
        frozenset(common.spans()) == frozenset({"{0}", "C^2"}),
    )

    # Distributivity counterexample and context-lattice distributivity.
    k = full_lattice.index_of(sub.span([[1, 1]]))
    m = full_lattice.index_of(sub.span([[1, -1]]))
    o = full_lattice.index_of(sub.span([[1, 0]]))
    lhs = full_lattice.meet(full_lattice.join(k, m), o)
    rhs = full_lattice.join(full_lattice.meet(k, o), full_lattice.meet(m, o))
    rep.text(
        "distributivity witness: (span{[1,1]} v span{[1,-1]}) ^ span{[1,0]} = "
        f"{full_lattice.elements[lhs].span_str()}, "
        "(span{[1,1]} ^ span{[1,0]}) v (span{[1,-1]} ^ span{[1,0]}) = "
        f"{full_lattice.elements[rhs].span_str()}"
    )
    rep.record(
        "distributivity_witness",
        lhs=full_lattice.elements[lhs].span_str(),
        rhs=full_lattice.elements[rhs].span_str(),
    )
    dist_report = lt.check_distributive(full_lattice, limit=1000)
    check(
        "distributivity-counterexample",
        lhs == o
        and rhs == full_lattice.bottom
        and not dist_report.holds
        and any(v.elements == (k, m, o) for v in dist_report.violations),
    )
    check(
        "context-lattices-distributive",
        all(
            lt.check_distributive(context_lattices[w]).holds for w in (1, 2, 3)
        ),
    )
    check(
        "full-lattice-orthomodular",
        lt.check_orthomodular(full_lattice).holds
        and lt.check_modular(full_lattice).holds,
    )

    # Filter battery over the six atoms.
    battery_ok = True
    for a in lt.atoms(full_lattice):
        filt = flt.coatom_complement_filter(full_lattice, a)
        directed = flt.is_downward_directed(filt)
        closed, witness = flt.is_upward_closed(filt)
        prime = flt.is_prime_paper(filt)
        valuation = flt.homomorphism_from_filter(
            full_lattice, filt, flt.CONVENTION_PAPER
        )
        expected_bits = tuple(
            1 if i == a else 0 for i in range(len(full_lattice))
        )
        ok = (
            directed
            and not closed
            and witness == (full_lattice.bottom, a)
            and prime
            and valuation.assignment == expected_bits
        )
        battery_ok = battery_ok and ok
        span_name = full_lattice.elements[a].span_str()
        rep.text(
            f"filter battery at {span_name}: directed={'yes' if directed else 'no'} "
            f"upward-closed={'yes' if closed else 'no'} "
            f"prime-paper={'yes' if prime else 'no'}"
        )
        rep.record(
            "filter_battery",
            atom=span_name,
            directed=directed,
            upward_closed=closed,
            prime_paper=prime,
            bits=_bits(valuation.assignment),
        )
    check("filter-battery", battery_ok)

    # Valuation searches.
    full_found = flt.search_bivaluations(full_lattice, flt.FULL_HOMOMORPHISM_LAWS)
    per_context = [
        len(flt.search_bivaluations(context_lattices[w], flt.FULL_HOMOMORPHISM_LAWS))
        for w in (1, 2, 3)
    ]
    rep.text(
        f"valuation search: full lattice {len(full_found)}, per context "
        f"{per_context[0]}/{per_context[1]}/{per_context[2]}"
    )
    rep.record(
        "valuation_search", full=len(full_found), per_context=per_context
    )
    check(
        "valuation-search",
        len(full_found) == 0 and per_context == [2, 2, 2],
    )

    # Three-valued state valuation.
    p11 = qubit.projector(qubit.ProjectorId(1, 1))
    results = (
        flt.state_valuation(p11, sub.vector([1, 1])),
        flt.state_valuation(p11, sub.vector([1, -1])),
        flt.state_valuation(p11, sub.vector([1, 0])),
    )
    rep.text(
        f"state valuation of P(1,1): [1,1] -> {results[0]}, [1,-1] -> "
        f"{results[1]}, [1,0] -> {results[2]}"
    )
    rep.record(
        "state_valuation",
        plus=str(results[0]),
        minus=str(results[1]),
        up=str(results[2]),
    )
    check(
        "state-valuation",
        results == (1, 0, flt.INDETERMINATE),
    )

    # Seeded random spot check of the De Morgan and dimension identities.
    rng = random.Random(args.seed)
    pairs = 25
    spot_ok = True
    for _ in range(pairs):
        s = full_lattice.elements[rng.randrange(len(full_lattice))]
        t = full_lattice.elements[rng.randrange(len(full_lattice))]
        de_morgan = sub.orthocomplement(sub.join(s, t)) == sub.meet(
            sub.orthocomplement(s), sub.orthocomplement(t)
        )
        dims = (
            sub.meet(s, t).dim + sub.join(s, t).dim == s.dim + t.dim
        )
        spot_ok = spot_ok and de_morgan and dims
    rep.text(f"random spot check: {pairs} pairs at seed {args.seed}")
    rep.record("spot_check", pairs=pairs, seed=args.seed)
    check("random-identities", spot_ok)

    failed = [name for name, ok in checks if not ok]
    rep.text(f"demo-qubit: {len(checks) - len(failed)}/{len(checks)} checks passed")
    rep.record("summary", checks=len(checks), failed=len(failed))
    return 2 if failed else 0


# --------------------------------------------------------------------------
# Argument parsing


class _ArgumentParser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    expectation failures, so usage problems exit 1 instead."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "records"),
        default="text",
        help="output style: human-readable text or line-delimited records",
    )


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="sublat",
        description="Exact workbench for finite lattices of closed subspaces.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("lattice", help="catalogue, order, meet and join tables")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(handler=_cmd_lattice)

    p = commands.add_parser("laws", help="distributive, modular, orthomodular checks")
    p.add_argument("file")
    p.add_argument("--limit", type=int, default=10, help="violations shown per law")
    p.add_argument(
        "--assert",
        dest="asserts",
        action="append",
        choices=[name for name, _ in _LAW_CHECKS],
        help="exit 2 unless the law holds (repeatable)",
    )
    _add_format(p)
    p.set_defaults(handler=_cmd_laws)

    p = commands.add_parser(
        "filters", help="deleted-element filter, ideal, primality, valuation"
    )
    p.add_argument("file")
    p.add_argument("--remove", required=True, help="ray or projector name to remove")
    p.add_argument(
        "--convention",
        choices=(flt.CONVENTION_PAPER, flt.CONVENTION_STANDARD),
        default=flt.CONVENTION_PAPER,
    )
    _add_format(p)
    p.set_defaults(handler=_cmd_filters)

    p = commands.add_parser("valuations", help="two-valued maps satisfying the laws")
    p.add_argument("file")
    p.add_argument(
        "--laws",
        default=",".join(sorted(flt.FULL_HOMOMORPHISM_LAWS)),
        help="comma-separated law tokens",
    )
    p.add_argument(
        "--assert-count",
        type=int,
        default=None,
        help="exit 2 unless exactly this many maps are found",
    )
    _add_format(p)
    p.set_defaults(handler=_cmd_valuations)

    p = commands.add_parser(
        "invariant", help="invariant sublattices of declared projectors"
    )
    p.add_argument("file")
    p.add_argument("--ops", nargs="+", required=True, help="projector names")
    _add_format(p)
    p.set_defaults(handler=_cmd_invariant)

    p = commands.add_parser(
        "burnside", help="generated algebra dimension and irreducibility"
    )
    p.add_argument("file")
    p.add_argument("--ops", nargs="+", required=True, help="projector names")
    p.add_argument(
        "--assert",
        dest="assert_verdict",
        choices=("irreducible", "reducible"),
        default=None,
        help="exit 2 unless the verdict matches",
    )
    _add_format(p)
    p.set_defaults(handler=_cmd_burnside)

    p = commands.add_parser(
        "contexts", help="context lattices, meet-definedness, valuation report"
    )
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(handler=_cmd_contexts)

    p = commands.add_parser("dot", help="Hasse diagram in DOT form")
    p.add_argument("file")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.add_argument("--name", default="lattice", help="DOT graph name")
    _add_format(p)
    p.set_defaults(handler=_cmd_dot)

    p = commands.add_parser(
        "demo-qubit", help="self-checking tour of the qubit construction"
    )
    p.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="seed for the randomized spot checks",
    )
    _add_format(p)
    p.set_defaults(handler=_cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
