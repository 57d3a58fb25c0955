"""Byte-for-byte stdout, in both formats, of three input files:
tests/data/qubit.sublat under every subcommand, tests/data/frame_c4.sublat
(whose closure makes exact meets) under the lattice commands, and
tests/data/contexts_mixed.sublat (a pair context beside a one-projector
context) under `contexts`.

Each case's stdout is stored in tests/data/golden/<name>.<ext>, with the
extension `txt` for `--format text` and `records` for `--format records`;
its exit code is in CASES. To regenerate the files after a deliberate
output change, run

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from sublat.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
QUBIT = str(DATA / "qubit.sublat")
FRAME = str(DATA / "frame_c4.sublat")
MIXED = str(DATA / "contexts_mixed.sublat")

# --format value -> golden file extension
FORMATS = {"text": "txt", "records": "records"}

# name -> (argv without --format, exit code)
CASES = {
    "lattice": (["lattice", QUBIT], 0),
    "laws": (["laws", QUBIT], 0),
    "laws_limit2": (["laws", QUBIT, "--limit", "2"], 0),
    "filters_plus_paper": (["filters", QUBIT, "--remove", "plus", "--convention", "paper"], 0),
    "filters_plus_standard": (
        ["filters", QUBIT, "--remove", "plus", "--convention", "standard"], 0),
    "filters_x1_paper": (["filters", QUBIT, "--remove", "x1", "--convention", "paper"], 0),
    "filters_x1_standard": (
        ["filters", QUBIT, "--remove", "x1", "--convention", "standard"], 0),
    "valuations": (["valuations", QUBIT], 0),
    "valuations_complement_law": (["valuations", QUBIT, "--laws", "complement-law"], 0),
    "invariant": (["invariant", QUBIT, "--ops", "x1", "z1"], 0),
    "burnside": (["burnside", QUBIT, "--ops", "x1", "y1", "z1"], 0),
    "contexts": (["contexts", QUBIT], 0),
    "contexts_mixed": (["contexts", MIXED], 0),
    "dot": (["dot", QUBIT], 0),
    "demo_qubit": (["demo-qubit", "--seed", "7"], 0),
    "frame_lattice": (["lattice", FRAME], 0),
    "frame_laws": (["laws", FRAME], 0),
    "frame_valuations": (["valuations", FRAME], 0),
    "frame_valuations_laws": (
        ["valuations", FRAME, "--laws", "bottom-to-zero,complement-law,top-to-one"], 0),
    "frame_filters_r1": (["filters", FRAME, "--remove", "r1"], 0),
    "frame_dot": (["dot", FRAME], 0),
}


def _run(argv, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", fmt])
    return code, out.getvalue()


def _check(name, fmt, path=QUBIT):
    argv, expected_code = CASES[name]
    code, stdout = _run([path if a == QUBIT else a for a in argv], fmt)
    assert code == expected_code
    golden = GOLDEN / f"{name}.{FORMATS[fmt]}"
    assert stdout == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_match_golden(name):
    _check(name, "records")


@pytest.mark.parametrize("name", sorted(CASES))
def test_text_matches_golden(name):
    _check(name, "text")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("name", sorted(n for n, (argv, _) in CASES.items() if QUBIT in argv))
def test_byte_order_mark_is_ignored(tmp_path, name, fmt):
    # Editors on Windows may save UTF-8 with a leading byte-order mark.
    path = tmp_path / "qubit.sublat"
    path.write_bytes(b"\xef\xbb\xbf" + Path(QUBIT).read_bytes())
    _check(name, fmt, str(path))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, expected_code) in sorted(CASES.items()):
        for fmt, ext in sorted(FORMATS.items()):
            code, stdout = _run(argv, fmt)
            if code != expected_code:
                raise SystemExit(f"{name} {fmt}: exit {code}, expected {expected_code}")
            (GOLDEN / f"{name}.{ext}").write_text(stdout, encoding="utf-8")
            print(f"wrote {name}.{ext}")
