"""The four workloads: seeded job lists and the answer check for each job.

A workload's job list is a number of rounds; each round repeats the same
mix of job kinds with fresh seeded inputs, so a run's mix does not depend
on how many rounds it holds. A job is one library call chain or one
in-process `sublat.cli.main([...])` call, and its check compares the
answer with facts known in closed form (see families.py). A check returns
None when the answer is right and the reason otherwise.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import families as fam
from sublat import cli
from sublat import filters as flt
from sublat import invariant as inv
from sublat import lattice as lt
from sublat import subspace as sub
from sublat.exactlin import format_scalar, parse_scalar


@dataclass(frozen=True)
class Job:
    id: str
    spec: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Plan:
    """A run's job list; `prepare_checks` runs once after set-up, untimed."""

    rounds: list[list[Job]]
    prepare_checks: Callable[[], None] = lambda: None


def _expect(label: str, got, want) -> str | None:
    return None if got == want else f"{label}: got {got!r}, expected {want!r}"


def _first_error(*reasons: str | None) -> str | None:
    return next((r for r in reasons if r), None)


# --------------------------------------------------------------------------
# closure-scale


def _closure_job(job_id: str, family: fam.LatticeFamily) -> Job:
    def run():
        seeds = [sub.span([list(v)]) for v in family.vectors]
        lat = lt.close_and_build(seeds, ambient_dim=family.ambient_dim)
        return (len(lat), lt.check_distributive(lat).holds, lt.check_modular(lat).holds)

    def check(answer) -> str | None:
        return _expect("(elements, distributive, modular)", answer,
                       (family.elements, family.distributive, True))

    return Job(job_id, f"{family.label} from {len(family.vectors)} lines in "
               f"C^{family.ambient_dim}: {_vectors_text(family.vectors)}", run, check)


def _vectors_text(vectors) -> str:
    return ";".join(",".join(format_scalar(x) for x in v) for v in vectors)


# Every round closes one heavy C^4 family taken in turn (or MO_24), MO_16, two
# MO_12 and eight small lattices: the tail percentile p75 falls among the two
# MO_12 jobs of each round and the median among the three Boolean frames.
_CLOSURE_HEAVY = (
    lambda rng: fam.mo_lines(rng, 24),
    lambda rng: fam.boolean_frame(rng, 4),
    lambda rng: fam.mo_direct_sum(rng, 2, 2),
    lambda rng: fam.mo_direct_sum(rng, 3, 2),
)
_CLOSURE_ROUND = (
    lambda rng: fam.mo_lines(rng, 16),
    lambda rng: fam.mo_lines(rng, 12),
    lambda rng: fam.mo_lines(rng, 12),
    lambda rng: fam.boolean_frame(rng, 3),
    lambda rng: fam.boolean_frame(rng, 3),
    lambda rng: fam.boolean_frame(rng, 3),
    lambda rng: fam.mo_lines(rng, 8),
    lambda rng: fam.mo_lines(rng, 6),
    lambda rng: fam.mo_lines(rng, 5),
    lambda rng: fam.mo_lines(rng, 4),
    lambda rng: fam.mo_lines(rng, 3),
)


def closure_scale(rng: random.Random, rounds: int, workdir: Path) -> Plan:
    plan = []
    for r in range(rounds):
        makers = (_CLOSURE_HEAVY[r % len(_CLOSURE_HEAVY)],) + _CLOSURE_ROUND
        families = [make(rng) for make in makers]
        rng.shuffle(families)
        plan.append([_closure_job(f"r{r}.j{j}:{f.label}", f) for j, f in enumerate(families)])
    return Plan(plan)


# --------------------------------------------------------------------------
# algebra-irreducibility


def _span_job(job_id: str, family: fam.GeneratorFamily) -> Job:
    return Job(job_id + ":algebra_span", family.label,
               lambda: inv.algebra_span(family.generators).dim,
               lambda dim: _expect("algebra dimension", dim, family.algebra_dim))


def _irreducible_job(job_id: str, family: fam.GeneratorFamily) -> Job:
    return Job(job_id + ":is_irreducible", family.label,
               lambda: inv.is_irreducible(family.generators),
               lambda verdict: _expect("irreducible", verdict, family.irreducible))


def _common_job(job_id: str, family: fam.GeneratorFamily) -> Job:
    def run():
        universe = lt.close_and_build([sub.image(g) for g in family.generators],
                                      ambient_dim=family.side)
        return inv.common_invariant_sublattice(family.generators, universe)

    def check(common) -> str | None:
        block_ok = family.block is None or sub.image(family.block) in common
        return _first_error(
            _expect("common invariant subspaces", len(common), family.common_invariant_count()),
            None if block_ok else "block subspace missing from the common invariant sublattice",
        )

    return Job(job_id + ":common_invariant_sublattice", family.label, run, check)


def algebra_irreducibility(rng: random.Random, rounds: int, workdir: Path) -> Plan:
    """Every round: a full C^3 family (the two slowest jobs), a C^4 block
    family and one common-invariant chain (the next three, where the tail
    percentile p75 falls), and five small C^3 block families.

    The common-invariant chain runs on C^3 block families, where its check
    is the block subspace; on full families it would repeat the cross-check
    inside is_irreducible, and in C^4 its 16-element universe would make one
    job outlast a round.
    """
    plan = []
    for r in range(rounds):
        jobs = []
        families = [fam.full_family(rng, 3), fam.block_family(rng, 4, 2)]
        families += [fam.block_family(rng, 3, m) for m in (1, 2, 1, 2, rng.choice((1, 2)))]
        for family in families:
            jobs += [_span_job(f"r{r}.{len(jobs)}.{family.label}", family),
                     _irreducible_job(f"r{r}.{len(jobs) + 1}.{family.label}", family)]
        family = fam.block_family(rng, 3, rng.choice((1, 2)))
        jobs.append(_common_job(f"r{r}.{len(jobs)}.{family.label}", family))
        rng.shuffle(jobs)
        plan.append(jobs)
    return Plan(plan)


# --------------------------------------------------------------------------
# valuation-search


def _lattice_job(job_id: str, lat, family: fam.LatticeFamily) -> Job:
    """One lattice: the search under each law set, then the deleted-atom
    filter battery at every atom under both conventions."""

    def run():
        counts = tuple(len(flt.search_bivaluations(lat, laws)) for laws in family.law_sets())
        verdicts = []
        for w in lt.atoms(lat):
            filt = flt.coatom_complement_filter(lat, w)
            verdicts.append((
                w,
                flt.is_prime_paper(filt),
                flt.is_prime_standard(filt) is flt.NOT_APPLICABLE,
                flt.homomorphism_from_filter(lat, filt, flt.CONVENTION_PAPER).ones(),
                flt.homomorphism_from_filter(lat, filt, flt.CONVENTION_STANDARD).ones(),
            ))
        return counts, verdicts

    def check(answer) -> str | None:
        counts, verdicts = answer
        everything = set(range(family.elements))
        wrong = [w for w, paper, not_standard, ones_paper, ones_standard in verdicts
                 if not (paper and not_standard and ones_paper == (w,)
                         and set(ones_standard) == everything - {w})]
        return _first_error(
            _expect("valuations per law set", counts,
                    tuple(family.valuation_count(laws) for laws in family.law_sets())),
            _expect("atoms", len(verdicts), family.atoms),
            f"wrong filter verdicts at atoms {wrong}" if wrong else None,
        )

    return Job(job_id, f"{family.label}: {_vectors_text(family.vectors)}", run, check)


def valuation_search(rng: random.Random, rounds: int, workdir: Path) -> Plan:
    """Lattices are closed once in set-up; rounds repeat the same jobs.

    A job covers one lattice, so each takes milliseconds and the median is
    not at the mercy of a collector pause inside a sub-millisecond call.
    Every lattice stays within flt.SEARCH_SIZE_CAP, so each law set is
    searched by the current backtracker.
    """
    families = [fam.mo_orthopairs(rng, 2), fam.mo_orthopairs(rng, 3),
                fam.boolean_frame(rng, 3), fam.mo_lines(rng, 10), fam.mo_lines(rng, 22)]
    rng.shuffle(families)
    built = []
    for family in families:
        seeds = [sub.span([list(v)]) for v in family.vectors]
        built.append((family, lt.close_and_build(seeds, ambient_dim=family.ambient_dim)))
    return Plan([[_lattice_job(f"r{r}.{family.label}", lat, family) for family, lat in built]
                 for r in range(rounds)])


# --------------------------------------------------------------------------
# qubit-cli

PROJECTORS = ("x1", "x2", "y1", "y2", "z1", "z2")
ATOMS = PROJECTORS + ("plus", "minus", "up")
_RAY_LINE = re.compile(r"(\s*ray\s+\w+\s*=\s*)\[([^\]]*)\](.*)")


def rescaled_variant(text: str, rng: random.Random) -> str:
    """The declaration text with every ray multiplied by a nonzero scalar."""
    out = []
    for line in text.splitlines():
        m = _RAY_LINE.fullmatch(line)
        if m:
            factor = fam.random_factor(rng)
            values = [format_scalar(factor * parse_scalar(t.strip())) for t in m.group(2).split(",")]
            line = f"{m.group(1)}[{', '.join(values)}]{m.group(3)}"
        out.append(line)
    return "\n".join(out) + "\n"


def _contexts_of(ops) -> int:
    return len({op[0] for op in ops})


def qubit_facts(argv: list[str], rc: int, output: str) -> str | None:
    """Closed-form facts about the qubit file (MO_6 with three orthogonal pairs)."""
    qubit_lattice = fam.LatticeFamily(
        label="MO_6-orthopairs", ambient_dim=2, vectors=(), elements=8, atoms=6,
        distributive=False, join_primes=0, orthocomplemented=True)
    if rc != 0:
        return f"exit code {rc}"
    command = argv[0]
    if command == "demo-qubit":
        wanted = [r"summary checks=\d+ failed=0"]
    elif command == "lattice":
        wanted = ["lattice ambient=2 elements=8 bottom=0 top=7"]
    elif command == "laws":
        wanted = ["law name=distributive status=checked holds=false",
                  "law name=modular status=checked holds=true",
                  "law name=orthomodular status=checked holds=true"]
    elif command == "filters":
        wanted = [r"filter removed=\S+ removed_index=\d+ size=7",
                  "property name=prime-paper value=true",
                  "property name=prime-standard value=not-applicable",
                  "valuation convention=paper bits=0*10*$" if "paper" in argv
                  else "valuation convention=standard bits=1*01*$"]
    elif command == "valuations":
        laws = tuple(argv[argv.index("--laws") + 1].split(","))
        wanted = [f"search laws=\\S+ elements=8 found={qubit_lattice.valuation_count(laws)}$"]
    elif command in ("invariant", "burnside"):
        ops = argv[argv.index("--ops") + 1:argv.index("--format")]
        full = _contexts_of(ops) >= 2
        wanted = [f"common elements={2 if full else 4} "]
        if command == "burnside":
            wanted.append(f"burnside generators=\\S+ dimension={4 if full else 2} full=4 "
                          f"irreducible={'true' if full else 'false'}")
    elif command == "contexts":
        wanted = ["summary consistent=8 global_valuations=0"]
    elif command == "dot":
        wanted = [r"digraph lattice \{"] + [f'  n{i} \\[label=' for i in range(8)]
    else:
        return f"no facts for {command}"
    missing = [w for w in wanted if not re.search(w, output, re.MULTILINE)]
    return f"missing {missing[0]!r}" if missing else None


def call_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue() + err.getvalue()


def _qubit_commands(rng: random.Random) -> list[list[str]]:
    """Eight fast commands and five slow ones, so the median job is a fast one.

    FILE stands for the round's rescaled copy. Targets are drawn once per run,
    so the unscaled references cost one call per command; pairs of
    projectors come from two different contexts, so every draw costs alike.
    """
    removes = rng.sample(ATOMS, 2)
    law_sets = rng.sample(fam.LAW_SETS, 2)
    first, second = rng.sample(("x", "y", "z"), 2)
    pair = [first + rng.choice("12"), second + rng.choice("12")]
    return [
        ["lattice", "FILE"],
        ["laws", "FILE"],
        ["laws", "FILE", "--limit", str(rng.randint(0, 5))],
        *(["filters", "FILE", "--remove", remove, "--convention", rng.choice(("paper", "standard"))]
          for remove in removes),
        *(["valuations", "FILE", "--laws", ",".join(laws)] for laws in law_sets),
        ["dot", "FILE"],
        ["invariant", "FILE", "--ops", *pair],
        ["burnside", "FILE", "--ops", "x1", "y1", "z1"],
        ["burnside", "FILE", "--ops", *reversed(pair)],
        ["contexts", "FILE"],
        ["demo-qubit", "--seed", str(rng.randrange(10**6))],
    ]


def qubit_cli(rng: random.Random, rounds: int, workdir: Path, source: Path) -> Plan:
    """Every round reads its own rescaled copy of the qubit file.

    Its records must be byte-identical to those of the unscaled file, which
    `prepare_checks` computes once per command.
    """
    text = source.read_text(encoding="utf-8")
    commands = [argv + ["--format", "records"] for argv in _qubit_commands(rng)]
    references = {tuple(str(source) if a == "FILE" else a for a in argv): (0, "")
                  for argv in commands}
    plan = []
    for r in range(rounds):
        path = workdir / f"qubit-r{r}.sublat"
        path.write_text(rescaled_variant(text, rng), encoding="utf-8")
        jobs = []
        for j, argv in enumerate(commands):
            key = tuple(str(source) if a == "FILE" else a for a in argv)
            argv = [str(path) if a == "FILE" else a for a in argv]
            jobs.append(_cli_job(f"r{r}.j{j}:{argv[0]}", argv, key, references))
        rng.shuffle(jobs)
        plan.append(jobs)

    def prepare_checks() -> None:
        for key in references:
            references[key] = call_cli(list(key))

    return Plan(plan, prepare_checks)


def _cli_job(job_id: str, argv: list[str], key: tuple[str, ...], references: dict) -> Job:
    def check(answer) -> str | None:
        rc, output = answer
        reference = references[key]
        return _first_error(
            qubit_facts(argv, rc, output),
            None if answer == reference else "records differ from the unscaled file's",
        )

    return Job(job_id, " ".join(argv), lambda: call_cli(argv), check)
