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


_PROJ_P = "proj p = [[1, 0], [0, 0]]\n"


# (text, message, line, column); line and column are None for validation errors
_PARSE_ERRORS = [
    ("dim 2\nproj p [[1, 0], [0, 0]]", "malformed proj declaration", 2, 1),
    ("dim 2\n  context c", "malformed context declaration", 2, 3),
    ("dim 2\nray v = [  ]", "empty vector", 2, 10),
    ("dim 2\nproj p = []", "empty matrix", 2, 11),
    ("dim 2\nproj p = [[1, 0], ]", "empty row", 2, 19),
    ("dim 2\nray v = 1, 0", "expected '['", 2, 9),
    ("dim 2\nproj p = [1, 0]", "expected '['", 2, 11),
    ("dim 2\nray v = [1, 0", "expected ']'", 2, 13),
    # numerals are ASCII digits, at most MAX_LITERAL_DIGITS of them
    ("dim \u00b2", "dim takes a positive integer", 1, 5),
    ("dim \uff13", "dim takes a positive integer", 1, 5),
    ("dim 2\nray v = [1/\u00b2, 0]", "expected a digit (at position 2)", 2, 12),
    ("dim 2\nray v = [0, " + "9" * 4301 + "]", "more than 4300 digits (at position 0)", 2, 13),
    ("dim 2\nproj p = [[1, 0] x, [0, 0]]", "expected ']'", 2, 18),
    ("dim 2\n" + _PROJ_P + "context c = p, 1x", "expected a projector name", 3, 16),
    ("dim 2\n" + _PROJ_P + "context c = p,", "expected a projector name", 3, 15),
    ("dim 2\n" + _PROJ_P + "context c = p,  p",
     "declaration 'c': duplicate member 'p'", None, None),
    ("dim 2\n" + _PROJ_P + "ray v = [1, 0]\ncontext v = p",
     "declaration 'v': name is already declared", None, None),
    ("dim 2\n" + _PROJ_P + "context c = p\nray c = [1, 0]",
     "declaration 'c': name is already declared", None, None),
    ("dim 2\nray r = [1, 0]]", "unbalanced ']'", 2, 14),
    ("dim", "malformed dim directive", 1, 1),
    # a numeral longer than MAX_AMBIENT_DIM's is refused before int() reads it
    ("dim " + "9" * 5000,
     "declaration 'dim': dim with 5000 digits exceeds the limit of 64", None, None),
    ("dim 0000065", "declaration 'dim': dim 65 exceeds the limit of 64", None, None),
    ("dim 00", "dim takes a positive integer", 1, 5),
]


@pytest.mark.parametrize(
    "text, message, line, column", _PARSE_ERRORS, ids=[c[1] for c in _PARSE_ERRORS]
)
def test_parse_input_error_branches(text, message, line, column):
    with pytest.raises((InputSyntaxError, InputValidationError)) as err:
        parse_input(text)
    if line is None:
        assert isinstance(err.value, InputValidationError)
        assert str(err.value) == message
    else:
        assert isinstance(err.value, InputSyntaxError)
        assert str(err.value) == f"line {line}, column {column}: {message}"
        assert (err.value.line, err.value.column) == (line, column)


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


# e1 and e2 are coordinate projectors; the complement of span{e2} is the
# plane of e1 and e3, which closing e1, e2 and r never reaches.
_NO_COMPLEMENT_DOC = """\
dim 3
proj e1 = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
proj e2 = [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
ray r = [1, 1, 0]
"""

_LAWS_SKIPPED = {
    "text": (
        "modular: holds\n"
        "orthomodular: skipped (orthocomplement span{[1,0,0],[0,0,1]} of "
        "span{[0,1,0]} is not a lattice element)\n"
    ),
    "records": (
        "law name=modular status=checked holds=true violations=0 shown=0\n"
        "law name=orthomodular status=skipped reason=orthocomplement_"
        "span{[1,0,0],[0,0,1]}_of_span{[0,1,0]}_is_not_a_lattice_element\n"
    ),
}
_LAWS_ASSERTION_FAILED = {
    "text": "assertion failed: orthomodular was not checked\n",
    "records": "assertion law=orthomodular ok=false status=skipped\n",
}


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_laws_skips_orthomodular_without_complements(tmp_path, capsys, fmt):
    path = tmp_path / "no_complement.sublat"
    path.write_text(_NO_COMPLEMENT_DOC)
    argv = ["laws", str(path), "--format", fmt, "--limit", "0"]
    assert main(argv) == 0
    distributive = {
        "text": "distributive: fails (6 violations, showing 0)\n",
        "records": "law name=distributive status=checked holds=false "
                   "violations=6 shown=0\n",
    }[fmt]
    captured = capsys.readouterr()
    assert captured.out == distributive + _LAWS_SKIPPED[fmt]
    assert captured.err == ""
    # a skipped law is not a law that holds
    assert main(argv + ["--assert", "orthomodular"]) == 2
    captured = capsys.readouterr()
    assert captured.out == distributive + _LAWS_SKIPPED[fmt] + _LAWS_ASSERTION_FAILED[fmt]
    assert main(argv + ["--assert", "modular"]) == 0
    capsys.readouterr()
    # a law that was checked and fails is reported as failing
    assert main(argv + ["--assert", "distributive"]) == 2
    assert capsys.readouterr().out.endswith({
        "text": "assertion failed: distributive does not hold\n",
        "records": "assertion law=distributive ok=false\n",
    }[fmt])


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


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_valuations_repeated_law_counts_once(capsys, fmt):
    outputs = []
    for laws in ("meet-hom,meet-hom", "meet-hom"):
        assert main(["valuations", str(DATA), "--laws", laws, "--format", fmt]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert ("found=9" if fmt == "records" else "valuations found: 9") in outputs[0]


@pytest.mark.parametrize("rays", [0, 40], ids=["qubit", "forty-rays"])
def test_closed_stdout_exits_one_quietly(tmp_path, rays):
    # The qubit lattice fits stdout's buffer, so the write fails at the final
    # flush; forty rays of C^2 overflow it, so the write fails mid-run.
    path = DATA
    if rays:
        path = tmp_path / "rays.sublat"
        path.write_text("dim 2\n" + "".join(f"ray r{k} = [1, {k}]\n" for k in range(rays)))
    proc = subprocess.Popen([sys.executable, "-m", "sublat", "lattice", str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"")


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


def test_burnside_prints_verdict_before_universe_cap(tmp_path, capsys):
    # the five images close past the element cap; the span needs no closure
    path = tmp_path / "cap.sublat"
    path.write_text(
        "dim 3\n"
        "proj a = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]\n"
        "proj b = [[0, 0, 0], [0, 1, 0], [0, 0, 0]]\n"
        "proj c = [[0, 0, 0], [0, 0, 0], [0, 0, 1]]\n"
        "proj d = [[1/3, 1/3, 1/3], [1/3, 1/3, 1/3], [1/3, 1/3, 1/3]]\n"
        "proj e = [[1/2, 1/2, 0], [1/2, 1/2, 0], [0, 0, 0]]\n"
    )
    assert main(["burnside", str(path), "--ops", "a", "b", "--format", "records"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "burnside generators=a,b dimension=3 full=9 irreducible=false\n"
    assert "meet/join closure exceeds the cap of 256 elements" in captured.err


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


@pytest.mark.parametrize("fmt", [None, "text", "records"], ids=["default", "text", "records"])
@pytest.mark.parametrize(
    "text, error",
    [
        (
            "dim 2\n"
            "proj x1 = [[1/2, 1/2], [1/2, 1/2]]\n"
            "proj z1 = [[1, 0], [0, 0]]\n"
            "context bad = x1, z1\n",
            "error: context 'bad' has no element besides {0} and C^2\n",
        ),
        (
            "dim 3\n"
            "proj a = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]\n"
            "proj b = [[0, 0, 0], [0, 1, 0], [0, 0, 0]]\n"
            "proj c = [[0, 0, 0], [0, 0, 0], [0, 0, 1]]\n"
            "ray d = [1, 1, 0]\n"
            "context k = a, b, c\n",
            "error: lattice 'k' element span{[0,1,0],[0,0,1]} is neither trivial "
            "nor an atom of the union lattice\n",
        ),
    ],
    ids=["trivial-context", "plane-not-atom"],
)
def test_contexts_rejection_leaves_stdout_empty(tmp_path, capsys, text, error, fmt):
    path = tmp_path / "rejected.sublat"
    path.write_text(text)
    fmt_args = [] if fmt is None else ["--format", fmt]
    assert main(["contexts", str(path), *fmt_args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == error


def _orthogonal_pair_contexts(count):
    """A C^2 file with count contexts, the projector pairs onto [1, k] and
    [k, -1] for k = 1..count; each context has two standard valuations, so
    2^count assignments are consistent with every context separately."""
    lines = ["dim 2"]
    for k in range(1, count + 1):
        d = 1 + k * k
        lines += [
            f"proj p{k} = [[1/{d}, {k}/{d}], [{k}/{d}, {k * k}/{d}]]",
            f"proj q{k} = [[{k * k}/{d}, -{k}/{d}], [-{k}/{d}, 1/{d}]]",
            f"context c{k:02d} = p{k}, q{k}",
        ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_contexts_over_the_assignment_cap_leaves_stdout_empty(tmp_path, capsys, fmt):
    path = tmp_path / "many.sublat"
    path.write_text(_orthogonal_pair_contexts(17))
    assert main(["contexts", str(path), "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: 131072 atom assignments are consistent with every context "
        "separately; the report lists at most 65536 (2^16, the valuation "
        "search's free-bit cap)\n"
    )


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


def test_dot_out_that_cannot_be_written_exits_one(tmp_path, capsys):
    # a directory, as a read-only file would not stop a superuser
    assert main(["dot", str(DATA), "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot write {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'\n"
    )


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize(
    "name", ["my lattice", 'a"];x[', "9lives", "Node", ""],
    ids=["space", "injection", "leading-digit", "keyword", "empty"],
)
def test_dot_rejects_a_name_that_is_no_identifier(capsys, name, fmt):
    # a space, quotes or brackets would break or inject into the DOT text,
    # and DOT reads a keyword such as node as syntax
    with pytest.raises(SystemExit) as exc:
        main(["dot", str(DATA), "--name", name, "--format", fmt])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --name: not a DOT identifier: {name!r}" in captured.err


@pytest.mark.parametrize(
    "name, valid",
    [("x1", True), ("_a", True), ("A_9", True), ("1x", False), ("a-b", False),
     ("é", False), ("a.b", False)],
)
def test_declaration_and_dot_names_share_one_grammar(capsys, name, valid):
    # a name the input file may declare is a name dot --name accepts
    try:
        parse_input(f"dim 2\nray {name} = [1, 0]\n")
        declared = True
    except InputSyntaxError:
        declared = False
    try:
        named = main(["dot", str(DATA), "--name", name]) == 0
    except SystemExit as exc:
        assert exc.code == 1
        named = False
    capsys.readouterr()
    assert declared == named == valid


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_dot_name_replaces_only_the_graph_name(capsys, fmt):
    assert main(["dot", str(DATA), "--name", "qubit", "--format", fmt]) == 0
    named = capsys.readouterr().out
    golden = (DATA.parent / "golden" / "dot.txt").read_text(encoding="utf-8")
    assert named == golden.replace("digraph lattice {", "digraph qubit {", 1)
    assert named != golden


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--limit", "-1"], "argument --limit: must be nonnegative, got -1"),
        (["--limit=-3"], "argument --limit: must be nonnegative, got -3"),
        (["--limit", "x"], "argument --limit: invalid int value: 'x'"),
    ],
)
def test_laws_rejects_bad_limit(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["laws", str(DATA)] + argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--assert-count", "-1"], "argument --assert-count: must be nonnegative, got -1"),
        (["--assert-count=-3"], "argument --assert-count: must be nonnegative, got -3"),
        (["--assert-count", "x"], "argument --assert-count: invalid int value: 'x'"),
    ],
)
def test_valuations_rejects_bad_assert_count(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["valuations", str(DATA)] + argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


# Priming calls, each with its expected exit code, then the final call and
# the golden file it must reproduce.
_PARSER_REUSE = [
    ([(["laws", "--assert", "modular"], 0), (["laws", "--assert", "distributive"], 2)],
     ["laws"], "laws"),
    ([(["burnside", "--ops", "x1", "z1"], 0)],
     ["burnside", "--ops", "x1", "y1", "z1"], "burnside"),
    ([(["valuations", "--assert-count", "0"], 0)],
     ["valuations"], "valuations"),
    ([(["filters", "--remove", "x1", "--convention", "standard"], 0)],
     ["filters", "--remove", "x1"], "filters_x1_paper"),
]


@pytest.mark.parametrize("fmt", [None, "text", "records"], ids=["default", "text", "records"])
def test_parser_reuse_carries_nothing_over(capsys, fmt):
    # The parser is built once per process, so no option of one call may
    # leak into the next; the priming calls use the other format.
    final_fmt = [] if fmt is None else ["--format", fmt]
    other_fmt = ["--format", "text" if fmt == "records" else "records"]
    for priming, (command, *rest), golden in _PARSER_REUSE:
        for (name, *options), code in priming:
            assert main([name, str(DATA), *options, *other_fmt]) == code
        capsys.readouterr()
        assert main([command, str(DATA), *rest, *final_fmt]) == 0
        ext = "records" if fmt == "records" else "txt"
        expected = (DATA.parent / "golden" / f"{golden}.{ext}").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "command",
    ["lattice", "laws", "filters", "valuations", "invariant", "burnside", "contexts",
     "dot", "demo-qubit"],
)
def test_subcommand_help_lists_shared_arguments(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert ("--format {text,records} output style: human-readable text or "
            "line-delimited records") in out
    takes_file = command != "demo-qubit"
    assert ("positional arguments: file" in out) == takes_file


def test_laws_limit_zero_shows_no_violations(capsys):
    assert main(["laws", str(DATA), "--limit", "0", "--format", "records"]) == 0
    out = capsys.readouterr().out
    assert "law name=distributive status=checked holds=false violations=120 shown=0" in out
    assert "violation" not in out.replace("violations=", "")


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
