"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

import refproc
import run

sys.path.insert(0, str(run.ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from sublat import cli, exactlin, lattice, subspace  # noqa: E402


def _plan(name: str, seed: int, tmp_path, rounds: int = 2):
    return run._builders(workloads)[name](random.Random(seed), rounds, tmp_path)


def _listing(plan) -> list[tuple[str, str]]:
    return [(job.id, job.spec) for jobs in plan.rounds for job in jobs]


@pytest.mark.parametrize("name", sorted(run.NOMINAL_ROUND_S))
def test_same_seed_gives_same_job_list(name, tmp_path):
    first = _listing(_plan(name, 7, tmp_path))
    inputs = {p.name: p.read_text() for p in tmp_path.iterdir()}
    again = _listing(_plan(name, 7, tmp_path))
    assert first == again
    assert inputs == {p.name: p.read_text() for p in tmp_path.iterdir()}
    other = _listing(_plan(name, 8, tmp_path))
    assert other != first or inputs != {p.name: p.read_text() for p in tmp_path.iterdir()}
    assert len({job_id for job_id, _ in first}) == len(first)


def test_check_rejects_a_wrong_answer(tmp_path):
    job = next(j for j in _plan("closure-scale", 3, tmp_path, rounds=1).rounds[0]
               if j.id.endswith(":MO_3"))
    assert job.check(job.run()) is None
    wrong = workloads.Job("wrong", job.spec, lambda: (6, False, True), job.check)

    def broken():
        raise ZeroDivisionError("boom")

    raising = workloads.Job("raising", job.spec, broken, job.check)
    result = run.run_pass([[job, wrong, raising]])
    assert result.attempted == 3
    assert [(job_id, kind) for job_id, kind, _ in result.failures] == [
        ("wrong", "WrongAnswer"), ("raising", "ZeroDivisionError")]


def test_qubit_records_must_match_the_unscaled_file(tmp_path):
    plan = workloads.qubit_cli(random.Random(3), 1, tmp_path, run.QUBIT_FILE)
    plan.prepare_checks()
    job = next(j for j in plan.rounds[0] if j.id.endswith(":lattice"))
    rc, output = job.run()
    assert job.check((rc, output)) is None
    flipped = output.replace("order row=1 bits=0", "order row=1 bits=1", 1)
    assert flipped != output
    assert job.check((rc, flipped)) == "records differ from the unscaled file's"
    assert job.check((1, output)) == "exit code 1"


def test_rescaled_variant_keeps_every_line():
    text = run.QUBIT_FILE.read_text()
    variant = workloads.rescaled_variant(text, random.Random(1))
    assert variant != text
    assert cli.parse_input(variant).ambient_dim == 2
    before = cli.parse_input(text)
    after = cli.parse_input(variant)
    assert list(after.rays) == list(before.rays)
    for name in before.rays:
        assert subspace.image(after.rays[name].components) == subspace.image(
            before.rays[name].components)


def test_reference_process_runs_the_frozen_copy(tmp_path):
    def build(into):
        import workloads

        assert Path(workloads.lt.__file__).is_relative_to(refproc.REF_SRC)
        into.mkdir()
        plan = workloads.closure_scale(random.Random(5), 1, into)
        return [job for jobs in plan.rounds for job in jobs]

    reference = refproc.Reference(run.import_sublat, build, tmp_path / "ref")
    try:
        assert reference.ask("import") > 0
        assert reference.ask("build") > 0
        assert reference.ask("job 0") > 0
        with pytest.raises(refproc.ReferenceFailed):
            reference.ask("job 99")
    finally:
        reference.close()
    assert not (tmp_path / "ref").exists()
    assert not workloads.lt.__file__.startswith(str(refproc.REF_SRC))


def test_paired_run_times_each_job_in_both_processes(tmp_path):
    jobs = [j for j in _plan("closure-scale", 5, tmp_path / "program", rounds=1).rounds[0]
            if j.id.split(":")[1] in ("MO_3", "MO_4", "MO_5")]
    assert len(jobs) == 3

    def build(into):
        import workloads

        into.mkdir()
        plan = workloads.closure_scale(random.Random(5), 1, into)
        return [j for j in plan.rounds[0] if j.id.split(":")[1] in ("MO_3", "MO_4", "MO_5")]

    reference = refproc.Reference(run.import_sublat, build, tmp_path / "ref")
    try:
        reference.ask("build")
        result = run.run_pass([jobs], reference=reference)
    finally:
        reference.close()
    assert not result.failures
    assert len(result.latencies) == len(result.reference_latencies) == 3


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, "j", None],
        ["a", 1.0, 4.0, 0, "j", None],
        ["b", 3.0, 6.0, 0, "j", None],   # overlaps a: the union counts once
        ["a.1", 2.0, 3.0, 1, "j", None],
        ["late", 9.0, 12.0, 0, "j", None],  # clipped to the parent's end
    ]
    assert tracer.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0]


def test_tail_percentile_keeps_ten_jobs_beyond():
    assert run.tail_percentile(44) == 75.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(10_000) == 99.9
    assert run.tail_percentile(30) == 50.0
    assert run.percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.0


def test_install_reaches_every_binding_and_uninstall_restores_them():
    originals = (exactlin.rank, subspace.rank, lattice.check_orthomodular.__defaults__,
                 cli._LAW_CHECKS, exactlin.GaussianRational.__post_init__)
    recorder = tracer.Recorder()
    recorder.install()
    try:
        assert subspace.rank is not originals[1]
        assert subspace.rank.__wrapped__ is originals[1]
        assert exactlin.rank is subspace.rank
        assert lattice.check_orthomodular.__wrapped__.__defaults__[0] is subspace.orthocomplement
        assert cli._LAW_CHECKS[0][1] is lattice.check_distributive
        assert lattice.check_distributive.__wrapped__ is originals[3][0][1]
    finally:
        recorder.uninstall()
    assert (exactlin.rank, subspace.rank, lattice.check_orthomodular.__defaults__,
            cli._LAW_CHECKS, exactlin.GaussianRational.__post_init__) == originals


def _small_jobs(tmp_path):
    closure = _plan("closure-scale", 5, tmp_path, rounds=1).rounds[0]
    algebra = _plan("algebra-irreducibility", 5, tmp_path, rounds=1).rounds[0]
    return ([j for j in closure if j.id.split(":")[1] in ("MO_3", "MO_5", "Boolean_2^3")]
            + [j for j in algebra if "block_C^2+C^1" in j.id])


def _traced_counts(jobs):
    recorder = tracer.Recorder()
    recorder.install()
    try:
        result = run.run_pass([jobs], recorder)
    finally:
        recorder.uninstall()
    assert not result.failures
    metrics, _ = tracer.layer_metrics(recorder.spans, recorder.allocs, sum(result.latencies))
    counts = {k: v for k, (v, unit) in metrics.items() if unit in ("count", "ratio")}
    return counts, [(s[tracer.NAME], s[tracer.PARENT], s[tracer.JOB]) for s in recorder.spans]


def test_traced_counts_repeat_exactly(tmp_path):
    jobs = _small_jobs(tmp_path)
    counts, spans = _traced_counts(jobs)
    again, spans_again = _traced_counts(_small_jobs(tmp_path))
    assert counts == again
    assert spans == spans_again
    for name in ("exactlin.rref.narrow.calls", "exactlin.rref.wide.calls",
                 "exactlin.scalar.allocs", "lattice.close_and_build.calls",
                 "invariant.algebra_span.rank_calls", "subspace.join.calls"):
        assert counts[name] > 0, name
