import subprocess
import sys
from pathlib import Path

import pytest

from sublat.cli import (
    MAX_AMBIENT_DIM,
    InputSyntaxError,
    InputValidationError,
    main,
    parse_input,
)

DATA = Path(__file__).parent / "data" / "qubit.sublat"

GOOD_DOC = """\
# comment line
dim 2
ray psi = [1, -1]
proj p = [[1/2, 1/2], [1/2, 1/2]]
context c = p
"""


def test_parse_input_good():
    doc = parse_input(GOOD_DOC)
    assert doc.ambient_dim == 2
    assert list(doc.rays) == ["psi"]
    assert list(doc.projectors) == ["p"]
    assert doc.contexts["c"] == ("p",)
    assert str(doc.rays["psi"]) == "[1,-1]"


def test_parse_input_scalar_position():
    with pytest.raises(InputSyntaxError) as err:
        parse_input("dim 2\nray v = [1, 1/0]")
    assert err.value.line == 2
    assert err.value.column == 15
    assert "zero denominator" in str(err.value)


def test_parse_input_syntax_errors():
    with pytest.raises(InputSyntaxError) as err:
        parse_input("dim 2\nfoo bar")
    assert (err.value.line, err.value.column) == (2, 1)
    with pytest.raises(InputSyntaxError, match="malformed ray"):
        parse_input("dim 2\nray v 1, 2")
    with pytest.raises(InputSyntaxError, match="unbalanced"):
        parse_input("dim 2\nray v = [1, [2]")
    with pytest.raises(InputSyntaxError, match="positive integer"):
        parse_input("dim zero")
    with pytest.raises(InputSyntaxError, match="empty entry"):
        parse_input("dim 2\nray v = [1, ]")


def test_parse_input_validation_errors():
    with pytest.raises(InputValidationError) as err:
        parse_input("dim 2\nproj p = [[0, 1], [0, 0]]")
    assert err.value.declaration == "p"
    assert err.value.law == "projector is not Hermitian"

    with pytest.raises(InputValidationError, match="not idempotent"):
        parse_input("dim 2\nproj p = [[2, 0], [0, 0]]")
    with pytest.raises(InputValidationError, match="components"):
        parse_input("dim 2\nray v = [1, 2, 3]")
    with pytest.raises(InputValidationError, match="nonzero"):
        parse_input("dim 2\nray v = [0, 0]")
    with pytest.raises(InputValidationError, match="already declared"):
        parse_input("dim 2\nray v = [1, 0]\nproj v = [[1, 0], [0, 1]]")
    with pytest.raises(InputValidationError, match="not a declared projector"):
        parse_input("dim 2\ncontext c = nope")
    with pytest.raises(InputValidationError, match="missing dim"):
        parse_input("# nothing\n")
    with pytest.raises(InputValidationError, match="before any other"):
        parse_input("ray v = [1, 0]\ndim 2")
    with pytest.raises(InputValidationError, match="more than once"):
        parse_input("dim 2\ndim 2")
    with pytest.raises(InputValidationError, match="2x2"):
        parse_input("dim 2\nproj p = [[1]]")


def test_lattice_command(capsys):
    assert main(["lattice", str(DATA)]) == 0
    out = capsys.readouterr().out
    assert "elements (8):" in out
    assert "[6] dim=1 span{[1,1]}" in out
    assert "meet table" in out


def test_lattice_records(capsys):
    assert main(["lattice", str(DATA), "--format", "records"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "lattice ambient=2 elements=8 bottom=0 top=7"
    assert "element index=1 dim=1 span=span{[0,1]}" in lines
    assert all(" " not in field for line in lines for field in line.split(" "))


def test_laws_command(capsys):
    assert main(["laws", str(DATA)]) == 0
    out = capsys.readouterr().out
    assert "distributive: fails (120 violations" in out
    assert "modular: holds" in out
    assert "orthomodular: holds" in out


def test_laws_assert_exit_codes(capsys):
    assert main(["laws", str(DATA), "--assert", "modular"]) == 0
    assert main(["laws", str(DATA), "--assert", "distributive"]) == 2
    out = capsys.readouterr().out
    assert "assertion failed: distributive" in out


def test_filters_command(capsys):
    assert main(["filters", str(DATA), "--remove", "plus"]) == 0
    out = capsys.readouterr().out
    assert "removed element: span{[1,1]} (index 6)" in out
    assert "downward directed: yes" in out
    assert "upward closed: no" in out
    assert "prime (paper convention): yes" in out
    assert "not applicable" in out
    assert "v(span{[1,1]}) = 1" in out
    assert "v(C^2) = 0" in out


def test_filters_standard_convention(capsys):
    assert main(
        ["filters", str(DATA), "--remove", "x1", "--convention", "standard"]
    ) == 0
    out = capsys.readouterr().out
    assert "v(span{[1,1]}) = 0" in out
    assert "v(C^2) = 1" in out


def test_filters_unknown_name(capsys):
    assert main(["filters", str(DATA), "--remove", "nope"]) == 1
    assert "unknown ray or projector" in capsys.readouterr().err


def test_valuations_command(capsys):
    assert main(["valuations", str(DATA), "--assert-count", "0"]) == 0
    out = capsys.readouterr().out
    assert "valuations found: 0" in out
    assert main(["valuations", str(DATA), "--assert-count", "5"]) == 2


def test_valuations_complement_law(capsys):
    assert main(
        ["valuations", str(DATA), "--laws", "complement-law", "--assert-count", "16"]
    ) == 0


def test_valuations_unknown_law(capsys):
    assert main(["valuations", str(DATA), "--laws", "bogus"]) == 1
    assert "unknown law" in capsys.readouterr().err


def test_invariant_command(capsys):
    assert main(["invariant", str(DATA), "--ops", "x1", "z1"]) == 0
    out = capsys.readouterr().out
    assert (
        "invariant sublattice of x1 (4 elements): {0}, span{[1,-1]}, "
        "span{[1,1]}, C^2" in out
    )
    assert "common invariant sublattice (2 elements): {0}, C^2" in out
    assert main(["invariant", str(DATA), "--ops", "nope"]) == 1


def test_burnside_command(capsys):
    assert (
        main(
            [
                "burnside",
                str(DATA),
                "--ops", "x1", "x2", "y1", "y2", "z1", "z2",
                "--assert", "irreducible",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "algebra dimension: 4 of 4" in out
    assert "irreducible: yes" in out
    assert main(["burnside", str(DATA), "--ops", "x1", "x2", "--assert", "reducible"]) == 0
    assert main(["burnside", str(DATA), "--ops", "x1", "x2", "--assert", "irreducible"]) == 2


def test_contexts_command(capsys):
    assert main(["contexts", str(DATA)]) == 0
    out = capsys.readouterr().out
    assert "atom assignments consistent with every context separately: 8" in out
    assert "global valuations on the union lattice: 0" in out
    assert "domain excludes (meet undefined)" in out
    assert "meet-defined matrix" in out


def test_contexts_requires_contexts(tmp_path, capsys):
    path = tmp_path / "plain.sublat"
    path.write_text("dim 2\nray v = [1, 0]\n")
    assert main(["contexts", str(path)]) == 1
    assert "no contexts declared" in capsys.readouterr().err


def test_dot_command(tmp_path, capsys):
    assert main(["dot", str(DATA)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph lattice {")
    assert out.count("->") == 12

    target = tmp_path / "hasse.dot"
    assert main(["dot", str(DATA), "--out", str(target), "--name", "qubit"]) == 0
    text = target.read_text()
    assert text.startswith("digraph qubit {")
    assert text.count("label=") == 8


def test_demo_qubit(capsys):
    assert main(["demo-qubit"]) == 0
    out = capsys.readouterr().out
    assert "demo-qubit: 14/14 checks passed" in out
    assert "FAILED" not in out


def test_demo_qubit_other_seed(capsys):
    assert main(["demo-qubit", "--seed", "7"]) == 0


def test_demo_records_byte_identical():
    command = [sys.executable, "-m", "sublat", "demo-qubit", "--format", "records"]
    first = subprocess.run(command, capture_output=True, timeout=120)
    second = subprocess.run(command, capture_output=True, timeout=120)
    assert first.returncode == 0
    assert second.returncode == 0
    assert first.stdout
    assert first.stdout == second.stdout


def test_missing_file(capsys):
    assert main(["lattice", "/nonexistent/input.sublat"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_bad_input_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.sublat"
    path.write_text("dim 2\nray v = [1, 1/0]\n")
    assert main(["lattice", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 2, column 15" in err


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["laws"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 1


def test_dim_above_limit_exits_one(tmp_path, capsys):
    path = tmp_path / "huge.sublat"
    path.write_text("dim 100000\n")
    assert main(["lattice", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"limit of {MAX_AMBIENT_DIM}" in captured.err
    with pytest.raises(InputValidationError, match=f"exceeds the limit of {MAX_AMBIENT_DIM}"):
        parse_input(f"dim {MAX_AMBIENT_DIM + 1}")
    assert parse_input(f"dim {MAX_AMBIENT_DIM}").ambient_dim == MAX_AMBIENT_DIM
