import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from framescale import codim2_scaling, hull_certificate_check, make_frame
from framescale.cli import _build_parser, _json_dumps, build_report, main
from framescale.errors import CorankMismatchError, ParseError
from framescale.frame_core import apply_scaling, is_tight
from framescale.framedoc import (
    FrameDocument,
    document_from_frame,
    format_frame_document,
    frame_from_document,
    format_number,
    parse_frame_document,
)
from conftest import ROUTES, bench_corpus, count_nearest, frame_file, route_lines
from test_derived import FRAMES, _frame


MB_TEXT = "n 2\nm 3\n1 0\n-0.5 0.8660254037844386\n-0.5 -0.8660254037844386\n"
EXAMPLE_TEXT = "n 2\nm 3\nname example\n2 1\n1 2\n1 1\n"
QUADRANT_TEXT = "n 2\nm 3\n1 0.1\n0.9 0.5\n0.5 1\n"
# cofactor weights [1, 2e-86, 0] on theta column norms [3.2e201, 1.6e287, 3e-210]
OVERFLOW_TEXT = ("n 2\nm 3\n0 -5.6632054457081432e+100\n-3.9917884693248457e+143 0\n"
                 "-1.5506848944305719e-105 7.7534244721528595e-106\n")

# ``scale`` offers only the routes of ``decide``.  A test that holds a
# library route of ``ROUTES`` to scale's output asks that route itself for
# the lines scale would print (``route_lines``), and a route's error fails
# it.  Such rows keep the ids they had when ``scale --method`` named them


def reference_json_dumps(obj, indent=0):
    """One ``format_number`` call per float: the reference for the report's
    JSON bytes."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {reference_json_dumps(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + ", ".join(reference_json_dumps(v, indent) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return format_number(obj)
    if isinstance(obj, int):
        return str(obj)
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestFrameDocuments:
    def test_parse_basic(self):
        doc = parse_frame_document(EXAMPLE_TEXT)
        assert doc.n == 2 and doc.m == 3 and doc.name == "example"
        F = frame_from_document(doc)
        assert np.array_equal(F.synthesis, [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0]])

    def test_comments_and_blank_lines_skipped(self):
        doc = parse_frame_document("# comment\nn 2\n\nm 2\n1 0\n# mid\n0 1\n")
        assert doc.m == 2

    def test_parse_errors_carry_location(self):
        with pytest.raises(ParseError) as exc:
            parse_frame_document("n 2\nm 2\n1 0\n1 oops\n")
        assert exc.value.line == 4
        assert exc.value.col == 2

    def test_first_bad_number_reported_before_a_later_short_row(self):
        with pytest.raises(ParseError) as exc:
            parse_frame_document("n 3\nm 3\n1 0 0\n1 oops 1e\n1\n")
        assert (exc.value.line, exc.value.col) == (4, 2)
        assert str(exc.value) == "<input>: bad number 'oops' (line 4, column 2)"

    def test_numbers_parse_as_float_does(self):
        tokens = ["-0", "1e-300", "4.9e-324", "1_0", "0.10000000000000001",
                  "-1.2345678901234567e-200", "9007199254740993", "1.7976931348623157e308"]
        doc = parse_frame_document("n 2\nm 4\n" + "\n".join(
            f"{a} {b}" for a, b in zip(tokens[::2], tokens[1::2])) + "\n")
        expected = np.array([float(t) for t in tokens]).reshape(4, 2)
        assert doc.vectors.tobytes() == expected.tobytes()

    def test_row_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_frame_document("n 2\nm 3\n1 0\n0 1\n")

    def test_wrong_row_width(self):
        with pytest.raises(ParseError):
            parse_frame_document("n 2\nm 2\n1 0 0\n0 1 0\n")

    def test_missing_headers(self):
        with pytest.raises(ParseError):
            parse_frame_document("1 0\n0 1\n")

    def test_round_trip_bit_identical(self, rng):
        F = make_frame(rng.standard_normal((5, 3)))
        doc = document_from_frame(F, name="probe")
        text = format_frame_document(doc)
        back = parse_frame_document(text)
        assert np.array_equal(back.vectors, doc.vectors)
        assert format_frame_document(back) == text


class TestInputErrors:
    @pytest.mark.parametrize("case, message", [
        ("n 2 3\nm 2\n1 0\n0 1\n", "header 'n' needs one value"),
        ("n two\nm 2\n1 0\n0 1\n", "header 'n' is not an integer"),
        ("n 2\nm 0\n", "header 'm' must be positive"),
        ("n 2\n", "missing 'n' or 'm' header"),
        # a repeated header used to override the first: R^3 and two vectors
        ("n 2\nn 3\nm 3\n1 0 0\n0 1 0\n0 0 1\n", "repeated header 'n' (line 2)"),
        ("n 2\nm 3\nm 2\n1 0\n0 1\n", "repeated header 'm' (line 3)"),
        ("n 2\nname a\nm 2\nname b\n1 0\n0 1\n", "repeated header 'name' (line 4)"),
    ], ids=["header-two-values", "header-not-integer", "header-not-positive",
            "header-missing", "header-n-repeated", "header-m-repeated",
            "header-name-repeated"])
    def test_analyze_exits_two_with_one_error_line(self, tmp_path, capsys, case, message):
        assert main(["analyze", write(tmp_path, "bad.frame", case)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err


class TestAnalyze:
    def test_tight_frame_report(self, tmp_path, capsys):
        path = write(tmp_path, "mb.frame", MB_TEXT)
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "strictly_scalable" in out
        assert "tight" in out

    def test_not_scalable_still_exit_zero(self, tmp_path, capsys):
        path = write(tmp_path, "x.frame", EXAMPLE_TEXT)
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "not_scalable" in out

    def test_json_deterministic(self, tmp_path, capsys):
        path = write(tmp_path, "x.frame", EXAMPLE_TEXT)
        main(["analyze", path, "--json"])
        first = capsys.readouterr().out
        main(["analyze", path, "--json"])
        second = capsys.readouterr().out
        assert first == second
        assert '"verdict": "not_scalable"' in first

    @pytest.mark.parametrize("name", sorted(FRAMES))
    def test_json_bytes_match_reference(self, name):
        rep = build_report(document_from_frame(_frame(name), name=name), 1e-8)
        assert _json_dumps(rep) == reference_json_dumps(rep)

    @pytest.mark.skipif(bench_corpus() is None, reason="needs bench/corpus.py")
    def test_json_bytes_match_reference_on_the_corpus(self):
        for spec in bench_corpus().build_corpus("analyze-grid", 1):
            rep = build_report(parse_frame_document(spec.text), 1e-8)
            assert _json_dumps(rep) == reference_json_dumps(rep), spec.fid

    @pytest.mark.parametrize("obj", [
        [1, 2, 3], [0.5, 2, -0.0], [1.5, None, True], [], [[]], [[], []],
        [[0.1, 2.5e-300, -3.0]], [[1.0], [2.0]], [[1.0, 2.0], [3.0]],
        [[1.0, 2], [3.0, 4.0]], [[1.0, 2.0], [3.0, float("inf")]], (0.25, 1e300),
        {"a": [[0.1]], "b": [[1, 2]], "c": [0.1, [0.2]], "d": {}},
    ])
    def test_json_writer_matches_reference_on_edge_lists(self, obj):
        assert _json_dumps(obj) == reference_json_dumps(obj)

    def test_json_escapes_name(self, tmp_path, capsys):
        name = 'a\tb "q" \\ é'
        frame = frame_from_document(parse_frame_document(MB_TEXT))
        doc = document_from_frame(frame, name=name)
        path = tmp_path / "named.frame"
        path.write_text(format_frame_document(doc), encoding="utf-8")
        assert main(["analyze", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["frame"]["name"] == name

    def test_malformed_file_exit_two(self, tmp_path, capsys):
        path = write(tmp_path, "bad.frame", "n 2\nm 1\n1 0\n")
        assert main(["analyze", path]) == 2

    def test_missing_file_exit_two(self, capsys):
        assert main(["analyze", "/nonexistent/nope.frame"]) == 2

    @pytest.mark.parametrize("command", [["scale"], ["analyze"], ["analyze", "good.frame"]])
    def test_non_utf8_file_exit_two(self, tmp_path, capsys, command):
        # exit 1 from scale would mean "not scalable"; with two paths the
        # report of the good file comes first
        (tmp_path / "bad.frame").write_bytes(b"n 2\nm 3\n1 0\n0 1\n1 1\n\xff\n")
        write(tmp_path, "good.frame", MB_TEXT)
        paths = [str(tmp_path / name) for name in command[1:] + ["bad.frame"]]
        assert main(command[:1] + paths) == 2
        out, err = capsys.readouterr()
        assert out.count("frame (unnamed): ") == len(command) - 1
        assert "bad.frame" in err and "UTF-8" in err

    def test_directory_is_a_read_error(self, tmp_path, capsys):
        # a directory's files are named as paths (DIR/*)
        assert main(["analyze", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: cannot read {tmp_path}: ")

    def test_reports_follow_the_order_of_the_paths(self, tmp_path, capsys):
        a = write(tmp_path, "a.frame", EXAMPLE_TEXT)
        b = write(tmp_path, "b.frame", MB_TEXT)
        assert main(["analyze", a, b]) == 0
        out = capsys.readouterr().out
        assert out.index("not_scalable") < out.index("strictly_scalable")
        assert main(["analyze", b, a]) == 0
        out = capsys.readouterr().out
        assert out.index("strictly_scalable") < out.index("not_scalable")

    def test_batch_error_names_its_file(self, tmp_path, capsys):
        # b.frame parses but does not span: with several paths its error
        # line names it, as read and parse errors do, after the report of
        # a.frame, and the run stops there; a single path keeps the bare
        # message
        a = write(tmp_path, "a.frame", MB_TEXT)
        bad = write(tmp_path, "b.frame", "n 2\nm 2\n1 0\n2 0\n")
        c = write(tmp_path, "c.frame", EXAMPLE_TEXT)
        assert main(["analyze", a, bad, c]) == 2
        out, err = capsys.readouterr()
        assert out.count("frame (unnamed): ") == 1 and "strictly_scalable" in out
        assert err == f"error: {bad}: vectors do not span R^n\n"
        assert main(["analyze", bad]) == 2
        assert capsys.readouterr().err == "error: vectors do not span R^n\n"

    def test_overflowing_frame_potential_exit_two(self, tmp_path, capsys):
        # a vector of about 1e80 puts the frame potential past the float
        # range: an input error naming it, with no warning and no inf
        path = write(tmp_path, "far.frame", "n 2\nm 4\n1 0.2\n0.7 0.9\n1e80 2e80\n0.1 1\n")
        assert main(["analyze", "--json", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: frame potential overflows the float range\n"


BAD_TOLS = ["nan", "inf", "0", "-1", "abc"]
TOL_COMMANDS = [["analyze"], ["scale"], ["dual", "--check-scalable"]]


class TestTolerance:
    """A tolerance that is not a finite positive number is an input error of
    ``analyze``, the one command that reads a tolerance; a NaN would make
    every tightness comparison pass vacuously.  ``scale`` and ``dual`` take
    no --tol: each re-checks its scaling at ``is_tight``'s default.  No
    command reads the environment."""

    @pytest.mark.parametrize("tol", BAD_TOLS)
    @pytest.mark.parametrize("command", TOL_COMMANDS, ids=" ".join)
    def test_bad_option_exit_two(self, tmp_path, capsys, command, tol):
        # argparse refuses the line before any file is read: the path names
        # no file
        with pytest.raises(SystemExit) as exc:
            main(command + [str(tmp_path / "missing.frame"), "--tol", tol])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        if command == ["analyze"]:
            assert captured.err.endswith(
                "framescale analyze: error: argument --tol: must be a finite positive"
                f" number, got {tol!r}\n")
        else:
            assert captured.err.endswith(
                f"framescale: error: unrecognized arguments: --tol {tol}\n")

    def _assert_env_ignored(self, tmp_path, capsys, monkeypatch, command, tol):
        monkeypatch.delenv("FRAMESCALE_TOL", raising=False)
        assert main(["generate", "mb"]) == 0
        path = write(tmp_path, "mb.frame", capsys.readouterr().out)
        assert main(command + [path]) == 0
        want = capsys.readouterr()
        monkeypatch.setenv("FRAMESCALE_TOL", tol)
        assert main(command + [path]) == 0
        assert capsys.readouterr() == want

    @pytest.mark.parametrize("tol", BAD_TOLS + ["1e-300"])
    @pytest.mark.parametrize("command", TOL_COMMANDS[1:], ids=" ".join)
    def test_env_does_not_reach_scale_or_dual(self, tmp_path, capsys, monkeypatch,
                                              command, tol):
        # a bad variable is no error of theirs, and 1e-300, which no rounded
        # scaling of the generated mb frame meets, used to end both in exit 3
        self._assert_env_ignored(tmp_path, capsys, monkeypatch, command, tol)

    @pytest.mark.parametrize("tol", BAD_TOLS + ["1e-5", "1e-300"])
    def test_env_does_not_reach_analyze(self, tmp_path, capsys, monkeypatch, tol):
        # FRAMESCALE_TOL used to set the default of --tol, and a bad value
        # ended analyze in exit 2
        self._assert_env_ignored(tmp_path, capsys, monkeypatch, ["analyze"], tol)

    def test_option_overrides_bad_env(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "x.frame", EXAMPLE_TEXT)
        monkeypatch.setenv("FRAMESCALE_TOL", "abc")
        assert main(["analyze", path, "--tol", "1e-5"]) == 0
        assert "tolerance: 1e-05" in capsys.readouterr().out


class TestCommandLine:
    """Each command line is parsed once: one that starts with a command by
    that command's parser, anything else by the top-level parser.  The
    exit code and bytes equal those of the top-level parser parsing the
    whole line, which hands a command's arguments to its parser.  A
    ``generate`` line that parses but asks for what its kind cannot honour
    is refused by the command: exit 2 and one error line."""

    @pytest.mark.parametrize("argv, code, stream, text", [
        ([], 2, "err", "framescale: error: the following arguments are required: command\n"),
        (["analyze"], 2, "err",
         "framescale analyze: error: the following arguments are required: path\n"),
        (["analyze", "--batch", "d", "x"], 2, "err",
         "framescale: error: unrecognized arguments: --batch\n"),
        (["--version"], 0, "out", "0.1.0\n"),
        (["bogus"], 2, "err", "framescale: error: argument command: invalid choice: 'bogus' ("),
        (["analyze", "-h"], 0, "out", "usage: framescale analyze [-h]"),
        (["scale"], 2, "err",
         "framescale scale: error: the following arguments are required: path\n"),
        (["scale", "--method", "nope", "x"], 2, "err",
         "framescale scale: error: argument --method: invalid choice: 'nope' ("),
        (["scale", "--method", "cofactor", "x"], 2, "err",
         "framescale scale: error: argument --method: invalid choice: 'cofactor' ("),
        (["scale", "--method", "codim2", "x"], 2, "err",
         "framescale scale: error: argument --method: invalid choice: 'codim2' ("),
        (["scale", "--method", "lp", "x"], 2, "err",
         "framescale scale: error: argument --method: invalid choice: 'lp' ("),
        (["scale", "--tol", "1e-5", "x"], 2, "err",
         "framescale: error: unrecognized arguments: --tol x\n"),
        (["dual", "--tol", "1e-5", "x"], 2, "err",
         "framescale: error: unrecognized arguments: --tol x\n"),
        (["scale", "x", "--bogus"], 2, "err",
         "framescale: error: unrecognized arguments: --bogus\n"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_exit_and_bytes_as_the_top_level_parser(self, capsys, monkeypatch,
                                                    argv, code, stream, text):
        monkeypatch.setenv("COLUMNS", "80")

        def outcome(parse):
            with pytest.raises(SystemExit) as exc:
                parse(list(argv))
            out, err = capsys.readouterr()
            return exc.value.code, out, err

        got = outcome(main)
        assert got == outcome(_build_parser()[0].parse_args)
        assert got[0] == code
        assert text in got[1 if stream == "out" else 2]
        assert got[2 if stream == "out" else 1] == ""

    @pytest.mark.parametrize("argv, message", [
        (["generate", "hadamard-doubled", "--n", "1"], "hadamard-doubled needs n >= 2, got n=1"),
        (["generate", "mb", "--n", "7"], "mb takes no --n"),
        (["generate", "p1", "--n", "2", "--m", "99", "--seed", "5"],
         "p1 takes no --m or --seed"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_generate_refuses_what_it_cannot_honour(self, capsys, argv, message):
        # hadamard-doubled in R^1 has a nonempty W, mb is always in R^2, and
        # p1 has 2n vectors and no randomness: none prints a frame
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestScale:
    def test_scalable_prints_weights(self, tmp_path, capsys):
        path = write(tmp_path, "mb.frame", MB_TEXT)
        assert main(["scale", path]) == 0
        weights = [float(v) for v in capsys.readouterr().out.split()]
        assert len(weights) == 3
        assert all(w > 0 for w in weights)

    def test_not_scalable_exit_one_with_certificate(self, tmp_path, capsys):
        path = write(tmp_path, "q.frame", QUADRANT_TEXT)
        assert main(["scale", path]) == 1
        assert "certificate" in capsys.readouterr().out

    def test_method_cofactor(self):
        t, p = np.pi / 3, 2 * np.pi / 3
        F = make_frame([[1.0, 0.0], [np.cos(t), np.sin(t)], [np.cos(p), np.sin(p)]])
        [line] = route_lines(F, "cofactor")
        weights = [float(v) for v in line.split()]
        assert np.allclose(weights, weights[0])

    def test_method_codim2(self):
        deg = np.pi / 180
        F = make_frame([(1.0, 0.0)] + [(np.cos(a), np.sin(a))
                                       for a in (30 * deg, 100 * deg, 110 * deg)])
        [line] = route_lines(F, "codim2")
        assert min(float(v) for v in line.split()) > 0

    @pytest.mark.parametrize("route, strict", [("auto", False), ("codim2", False),
                                               ("auto", True), ("codim2", True)],
                             ids=["auto", "--method codim2", "--strict",
                                  "--method codim2 --strict"])
    def test_codim2_single_feasible_direction(self, tmp_path, capsys, route, strict):
        # corank 2 with one feasible kernel direction, t = 0 on the kernel
        # basis: scale and the codim-2 route answer as the hull solver does
        text = "n 2\nm 4\n0 1\n1 1\n0 1\n-1 1\n"
        lines = ["0 0.707106781187 0 0.707106781187"]
        if strict:
            lines.insert(0, "scalable, but not strictly")
        if route == "auto":
            path = write(tmp_path, "c2.frame", text)
            assert main(["scale", path] + ["--strict"] * strict) == 0
            assert capsys.readouterr() == ("".join(line + "\n" for line in lines), "")
        else:
            F = frame_from_document(parse_frame_document(text))
            assert route_lines(F, route, strict) == lines
        assert route_lines(frame_from_document(parse_frame_document(text)), "lp", strict) == lines

    @pytest.mark.parametrize("s", ["1e-100", "1", "1e9", "1e10", "1e100"])
    def test_far_vector_scales_as_at_one(self, tmp_path, capsys, s):
        # one vector times 1e10 is no input error, and at 1e+-100 the theta
        # column of the third vector has a sum of squares far outside the
        # float range; its norm is still taken, with no warning
        path = write(tmp_path, "far.frame", f"n 2\nm 3\n1 0\n0 1\n{s} {s}\n")
        assert main(["scale", path]) == 0
        assert capsys.readouterr().out == "0.707106781187 0.707106781187 0\n"

    def test_tiny_vector_keeps_its_corank_one_route(self, tmp_path, capsys):
        # at scale 1 the frame has corank 1 and forces the third weight to
        # 0; a theta column norm that underflowed to 0 read as corank 2.  The
        # hull solver answers it, with the forced zero of the corank-1 answer
        path = write(tmp_path, "tiny.frame", "n 2\nm 3\n1 0\n0 1\n1e-100 1e-100\n")
        assert main(["analyze", path, "--json"]) == 0
        s = json.loads(capsys.readouterr().out)["scalability"]
        assert (s["verdict"], s["method"], s["near_zero"]) == ("scalable", "feasibility", [2])
        F = make_frame([[1.0, 0.0], [0.0, 1.0], [1e-100, 1e-100]])
        assert route_lines(F, "cofactor")[-1].split()[-1] == "0"

    @pytest.mark.parametrize("method", ["auto", "cofactor"])
    def test_corank_one_certificate(self, tmp_path, capsys, method):
        # (1, 0), (1, 1), (1, 2) lie in one open quadrant: corank 1, not
        # scalable, and the certificate comes from the kernel in closed form
        F = make_frame([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        if method == "auto":
            assert main(["scale", frame_file(tmp_path, F)]) == 1
            out = capsys.readouterr().out
        else:
            [out] = route_lines(F, method)
        assert out.startswith("not scalable; certificate y: ")
        y = [float(v) for v in out.split(":")[1].split()]
        assert hull_certificate_check(F, y)

    def test_method_rank_mismatch_raises(self):
        mb = frame_from_document(parse_frame_document(MB_TEXT))
        with pytest.raises(CorankMismatchError,
                           match="^codim-2 method needs corank 2, measured corank 1$"):
            codim2_scaling(mb)

    def test_method_split(self, tmp_path, capsys):
        path = write(tmp_path, "mb.frame", MB_TEXT)
        assert main(["scale", path, "--method", "split"]) == 0

    @pytest.mark.parametrize("args", [[], ["--strict"], ["--method", "split"]],
                             ids=lambda a: " ".join(a) or "auto")
    def test_kernel_route_margin_does_not_overflow(self, tmp_path, capsys, args):
        # theta's column norms reach 1e287: the cofactor route's unit-column
        # weights, about 3e201, overflowed ||P w||^2 in the margin test that
        # decide once ran on them, and under warnings as errors that ended in
        # a traceback.  The hull solver answers on unit columns
        path = write(tmp_path, "overflow.frame", OVERFLOW_TEXT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lp = route_lines(frame_from_document(parse_frame_document(OVERFLOW_TEXT)), "lp")
            assert not lp[-1].startswith("not scalable")
            assert main(["scale", *args, path]) == 0
        lines = capsys.readouterr().out.splitlines()
        if args == ["--method", "split"]:
            assert len(lines) == 1 and all(float(v) >= 0.0 for v in lines[0].split())
        else:
            assert lines[-1:] == lp
            assert lines[:-1] == (["scalable, but not strictly"] if args else [])

    @pytest.mark.parametrize("x, word", [("1e-200", "underflow"), ("1e200", "overflow")])
    def test_out_of_range_vector_exit_two(self, tmp_path, capsys, x, word):
        # the squares of the third vector leave the float range: an input
        # error that names the vector, with no warning and no traceback
        path = write(tmp_path, "far.frame", f"n 2\nm 3\n1 0\n0 1\n{x} {x}\n")
        assert main(["scale", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: frame vector 2 is too ")
        assert word in err and err.count("\n") == 1


def _scale_id(case):
    """The id of a (route, strict) row: the ``scale`` arguments that ask it,
    or once asked it where the route is one of ``ROUTES``."""
    route, strict = case
    return " ".join(["--method", route] * (route != "auto") + ["--strict"] * strict) or "auto"


def _scale_lines(tmp_path, capsys, F, route, strict):
    """The lines of ``scale`` on F, asked with --method ``route`` (auto,
    split) and --strict if ``strict``, which must exit 0 or 1; or those of
    the library route ``route`` of ``ROUTES``, whose errors propagate."""
    if route in ROUTES:
        return route_lines(F, route, strict)
    code = main(["scale", frame_file(tmp_path, F), "--method", route] + ["--strict"] * strict)
    out, err = capsys.readouterr()
    assert code == int(out.startswith("not scalable")) and err == "", (code, err)
    return out.splitlines()


class TestZeroWeights:
    # the straddling vector of the two-block frame is the last one, and every
    # scaling gives it weight 0; a zero weight prints as 0, never as the
    # square root of rounding noise or as -0
    SCALE_CASES = [("auto", False), ("lp", False), ("lp", True), ("split", False),
                   ("split", True)]

    @pytest.mark.parametrize("case", SCALE_CASES, ids=_scale_id)
    def test_straddling_weight_is_exactly_zero(self, tmp_path, capsys, case):
        F = _frame("two-block")
        lines = _scale_lines(tmp_path, capsys, F, *case)
        assert not lines[-1].startswith("not scalable")
        tokens = lines[-1].split()
        assert len(tokens) == F.m
        assert "-0" not in tokens
        assert float(tokens[-1]) == 0.0

    def test_report_weight_is_exactly_zero(self):
        rep = build_report(document_from_frame(_frame("two-block")), 1e-8)
        s, sp = rep["scalability"], rep["split"]
        for weights in (s["weights_c"], s["scalars_a"], sp["v_element"],
                        sp["parseval_scalars"]):
            assert weights[-1] == 0.0
        assert s["near_zero"][-1] == len(s["weights_c"]) - 1

    @pytest.mark.parametrize("name", sorted(FRAMES))
    @pytest.mark.parametrize("case", SCALE_CASES + [("cofactor", False), ("codim2", False)],
                             ids=_scale_id)
    def test_no_negative_zero_printed(self, tmp_path, capsys, name, case):
        try:
            lines = _scale_lines(tmp_path, capsys, _frame(name), *case)
        except CorankMismatchError:  # a corank route asked off its corank
            return
        if not lines[-1].startswith("not scalable"):
            assert not any(t.startswith("-") for t in lines[-1].split())


class TestDimensionOne:
    # every frame in R^1 is tight; its reduced diagram matrix has no rows
    TEXTS = {1: "n 1\nm 1\n2\n", 2: "n 1\nm 2\n2\n-0.5\n", 3: "n 1\nm 3\n2\n-0.5\n3\n"}

    @pytest.mark.parametrize("m", sorted(TEXTS))
    @pytest.mark.parametrize("args", [["analyze"], ["analyze", "--json"], ["scale"],
                                      ["lp"], ["lp", "--strict"],
                                      ["scale", "--method", "split"],
                                      ["scale", "--method", "split", "--strict"]],
                             ids=lambda a: " ".join(["scale", "--method"] * (a[0] == "lp") + a))
    def test_runs_exit_zero(self, tmp_path, capsys, m, args):
        # ["lp"] asks the hull solver alone for the lines scale would print
        path = write(tmp_path, "line.frame", self.TEXTS[m])
        if args[0] == "lp":
            F = frame_from_document(parse_frame_document(self.TEXTS[m]))
            out = "\n".join(route_lines(F, "lp", "--strict" in args))
            assert not out.startswith("not scalable")
            args = ["scale"] + args[1:]
        else:
            assert main(args + [path]) == 0
            out = capsys.readouterr().out
        if args == ["analyze", "--json"]:
            rep = json.loads(out)
            assert rep["scalability"]["verdict"] == "strictly_scalable"
            assert rep["frame"]["tight"] and rep["dual"]["dual_scalable"]
        elif args[0] == "scale":
            a = np.array([float(v) for v in out.split()])
            X = parse_frame_document(self.TEXTS[m]).vectors.T
            assert a.min() >= 0 and a.max() > 0 and a.size == m
            assert is_tight(apply_scaling(make_frame(X.T), a)).tight
            if "--strict" in args:
                assert a.min() > 0

    @pytest.mark.parametrize("m", sorted(TEXTS))
    def test_dual_round_trip(self, tmp_path, capsys, m):
        path = write(tmp_path, "line.frame", self.TEXTS[m])
        assert main(["dual", path]) == 0
        dual_path = write(tmp_path, "dual.frame", capsys.readouterr().out)
        assert main(["scale", dual_path]) == 0
        assert main(["dual", dual_path, "--check-scalable"]) == 0


class TestDual:
    def test_prints_dual_document(self, tmp_path, capsys):
        path = write(tmp_path, "x.frame", EXAMPLE_TEXT)
        assert main(["dual", path]) == 0
        doc = parse_frame_document(capsys.readouterr().out)
        expected = np.array([[7.0, -4.0], [-4.0, 7.0], [1.0, 1.0]]) / 11.0
        assert np.abs(doc.vectors - expected).max() < 1e-12

    def test_check_scalable_flag(self, tmp_path, capsys):
        path = write(tmp_path, "x.frame", EXAMPLE_TEXT)
        assert main(["dual", path, "--check-scalable"]) == 0
        assert "dual scalable" in capsys.readouterr().out

    def test_check_scalable_weights_make_dual_tight(self, tmp_path, capsys):
        path = write(tmp_path, "x.frame", EXAMPLE_TEXT)
        assert main(["dual", path, "--check-scalable"]) == 0
        out = capsys.readouterr().out
        doc_text, weights = out.split("dual scalable; weights c: ")
        dual = frame_from_document(parse_frame_document(doc_text))
        a = np.sqrt([float(v) for v in weights.split()])
        assert is_tight(apply_scaling(dual, a), 1e-12).tight

    def test_check_scalable_in_dimension_one(self, tmp_path, capsys):
        # every frame in R^1 is tight, so its canonical dual is scalable
        path = write(tmp_path, "line.frame", "n 1\nm 3\n2\n-0.5\n3\n")
        assert main(["dual", path, "--check-scalable"]) == 0
        out = capsys.readouterr().out
        doc_text, weights = out.split("dual scalable; weights c: ")
        Y = parse_frame_document(doc_text).vectors.T
        c = np.array([float(v) for v in weights.split()])
        assert c.min() >= 0 and float(c @ Y[0] ** 2) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("x", ["1e9", "1e15", "1e17"])
    def test_analyze_answers_a_far_vector(self, tmp_path, capsys, x):
        # (1, 0), (0, 1), (x, x): the frame operator has the eigenvalue 1 on
        # (1, -1) exactly, and the sorted QR of X reads it to the last digit
        path = write(tmp_path, "far.frame", f"n 2\nm 3\n1 0\n0 1\n{x} {x}\n")
        assert main(["analyze", "--json", path]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["frame"]["lower_bound"] == 1.0
        assert rep["dual"]["dual_scalable"] is True
        assert main(["dual", "--check-scalable", path]) == 0

    @pytest.mark.parametrize("command", [["dual"], ["dual", "--check-scalable"]])
    @pytest.mark.parametrize("x", ["1e17", "1e100"])
    def test_dual_of_a_far_vector_is_accurate(self, tmp_path, capsys, command, x):
        # the dual vector of (x, x) is (1, 1) / 2x, no matter how far it lies
        # below the others, which are (1, -1) / 2 and (-1, 1) / 2
        path = write(tmp_path, "far.frame", f"n 2\nm 3\n1 0\n0 1\n{x} {x}\n")
        assert main(command + [path]) == 0
        out = capsys.readouterr().out
        Y = parse_frame_document(out.split("dual scalable")[0]).vectors
        expected = np.array([[0.5, -0.5], [-0.5, 0.5], [0.5 / float(x)] * 2])
        assert np.abs(Y / expected - 1.0).max() < 1e-15
        assert ("dual scalable; weights c:" in out) == ("--check-scalable" in command)

    def test_analyze_names_the_frame_potential_of_a_far_vector(self, tmp_path, capsys):
        # at 1e100 the dual is accurate, but the frame potential overflows
        path = write(tmp_path, "far.frame", "n 2\nm 3\n1 0\n0 1\n1e100 1e100\n")
        assert main(["analyze", path]) == 2
        assert "frame potential" in capsys.readouterr().err

    def test_orthonormal_basis_self_dual(self, tmp_path, capsys):
        path = write(tmp_path, "onb.frame", "n 2\nm 2\n1 0\n0 1\n")
        main(["dual", path])
        doc = parse_frame_document(capsys.readouterr().out)
        assert np.abs(doc.vectors - np.eye(2)).max() < 1e-12


class TestGenerate:
    def test_round_trip(self, capsys):
        assert main(["generate", "random-unit", "--n", "2", "--m", "5",
                     "--seed", "7"]) == 0
        text = capsys.readouterr().out
        doc = parse_frame_document(text)
        assert format_frame_document(doc) == text
        norms = np.linalg.norm(doc.vectors, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_deterministic_seed(self, capsys):
        main(["generate", "random-unit", "--n", "3", "--m", "6", "--seed", "9"])
        first = capsys.readouterr().out
        main(["generate", "random-unit", "--n", "3", "--m", "6", "--seed", "9"])
        assert capsys.readouterr().out == first

    def test_p1_operator(self, capsys):
        main(["generate", "p1", "--n", "4"])
        doc = parse_frame_document(capsys.readouterr().out)
        X = doc.vectors.T
        assert np.allclose(X @ X.T, np.diag([2.0, 2.0, 5.0, 10.0]), atol=1e-12)

    def test_hadamard_doubled_w_empty(self, capsys):
        from framescale import find_W_element
        main(["generate", "hadamard-doubled", "--n", "2"])
        doc = parse_frame_document(capsys.readouterr().out)
        assert not find_W_element(frame_from_document(doc)).member

    def test_bad_params_exit_two(self, capsys):
        assert main(["generate", "random-unit", "--n", "4", "--m", "2"]) == 2
        assert main(["generate", "hadamard-doubled", "--n", "3"]) == 2
        assert main(["generate", "random-unit", "--n", "-1", "--m", "2"]) == 2
        assert main(["generate", "random-unit", "--n", "0", "--m", "0"]) == 2
        assert main(["generate", "random-unit", "--n", "2", "--m", "3",
                     "--seed", "-1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 5 and all(e.startswith("error: ") for e in err)


# frames whose vectors pass intake, their squares finite, but whose diagram
# entries, frame potential or dual-scaling weights leave the float range
DIAGRAM_OVERFLOW_R2 = "n 2\nm 3\n1e154 1e154\n1 0\n0 1\n"
DIAGRAM_OVERFLOW_R3 = "n 3\nm 4\n1e154 1e154 0\n1 0 0\n0 1 0\n0 0 1\n"
POTENTIAL_OVERFLOW = "n 2\nm 201\n" + "1e153 1e152\n" * 200 + "0 1e153\n"
DIAGRAM_ERROR = "error: frame vector 0 is too large: its diagram entries overflow\n"
DUAL_ERROR = "error: dual-scaling weights leave the float range\n"
PARSEVAL_ERROR = "error: Parseval weights leave the float range\n"


class TestFloatRange:
    @pytest.mark.parametrize("command, text, message", [
        (["scale"], DIAGRAM_OVERFLOW_R2, DIAGRAM_ERROR),
        (["scale"], DIAGRAM_OVERFLOW_R3, DIAGRAM_ERROR),
        (["analyze", "--json"], POTENTIAL_OVERFLOW,
         "error: frame potential overflows the float range\n"),
        (["dual", "--check-scalable"], DIAGRAM_OVERFLOW_R2, DUAL_ERROR),
        (["dual", "--check-scalable"], DIAGRAM_OVERFLOW_R3, DUAL_ERROR),
        # a subnormal theta column norm, and a vector whose square is subnormal
        (["scale", "--method", "split"], "n 2\nm 3\n1 0\n0 1\n1e-156 0\n", PARSEVAL_ERROR),
        (["analyze", "--json"], "n 2\nm 2\n1e-160 0\n0 1\n", PARSEVAL_ERROR),
    ], ids=["scale-r2", "scale-r3", "analyze-potential", "dual-r2", "dual-r3",
            "split-subnormal-norm", "analyze-subnormal-square"])
    def test_input_error_with_one_line_and_no_warning(self, tmp_path, capsys,
                                                      command, text, message):
        path = write(tmp_path, "range.frame", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(command + [path]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", message)


# CLI regressions that CI's console-script step once ran, named by the frame
# file each wrote there: (frame, argv, exit code, check).  A frame is text or
# commands, each run on the output of the one before.  argv is a command
# line, or the name of a library route of ``ROUTES``, which is asked for the
# lines scale would print (``route_lines``); its exit code is then the one
# those lines stand for.  A check is the exact "stdout", a part of one
# stream ("in stdout"/"in stderr"), or JSON fields.  In the cases of
# ``SPLIT_ONLY`` the split of 1 answers every hull question, so Wolfe's
# nearest point never runs
CERTIFICATE = ("in stdout", "certificate y:")
ONE_SIGNED = "n 2\nm 3\n1 1\n1 2\n2 1\n"  # every x_1 x_2 > 0: the split of 1 answers
TINY_ROW = "n 2\nm 5\n1 1e-9\n1 2e-9\n1 3e-9\n1e-9 1\n2e-9 1\n"  # x_1 x_2 about 1e-9
J = np.arange(32)  # a strict frame, n = 8, m = 32 below theta's 35 rows
TALL = format_frame_document(FrameDocument(n=8, m=32, vectors=(np.array(
    [f(2 * np.pi * k * J / 32) for k in range(1, 5) for f in (np.cos, np.sin)])
    * (1 + J % 5 / 4) * (-1.0) ** J).T))
CLI_CASES = {
    "dual.frame-scale-split": ((["generate", "p1", "--n", "4"], ["dual"]),
                               ["scale", "--method", "split"], 1, CERTIFICATE),
    # corank 2, one feasible direction: the hull solver, with corank 2's zeros
    "corank2.frame-analyze": ("n 2\nm 4\n0 1\n1 1\n0 1\n-1 1\n", ["analyze", "--json"], 0,
                              ("json", "scalability", {"method": "feasibility",
                                                       "near_zero": [0, 2]})),
    "mb.frame-scale-cofactor": ((["generate", "mb"],), "cofactor", 0,
                                ("stdout", "0.57735026919 0.57735026919 0.57735026919\n")),
    "onesigned.frame-analyze": (ONE_SIGNED, ["analyze", "--json"], 0,
                                ("json", "scalability", {"method": "feasibility"})),
    "onesigned.frame-scale": (ONE_SIGNED, ["scale"], 1, CERTIFICATE),
    "tinyrow.frame-scale": (TINY_ROW, ["scale"], 1, CERTIFICATE),
    "tinyrow.frame-scale-lp": (TINY_ROW, "lp", 1, CERTIFICATE),
    "badnum.frame-scale": ("n 2\nm 3\n1 0\n1 oops\n1\n", ["scale"], 2,
                           ("in stderr", "(line 4, column 2)")),
    "short.frame-scale": ("n 2\nm 3\n1 0\n0 1\n1\n", ["scale"], 2,
                          ("in stderr", "expected 2 values in vector row, got 1 (line 5)")),
    "tall.frame-analyze": (TALL, ["analyze", "--json"], 0,
                           ("json", "scalability", {"method": "feasibility"})),
    # V is trivial by the split of 1 on a product block of 15 rows, 7 columns
    "r67.frame-analyze": ((["generate", "random-unit", "--n", "6", "--m", "7"],),
                          ["analyze", "--json"], 0, ("json", "split", {"v_nontrivial": False})),
}
SPLIT_ONLY = {"onesigned.frame-analyze", "tall.frame-analyze"}


@pytest.mark.parametrize("name", list(CLI_CASES))
def test_cli_case(tmp_path, capsys, monkeypatch, name):
    frame, argv, code, check = CLI_CASES[name]
    nearest = count_nearest(monkeypatch)
    path = tmp_path / "case.frame"
    if isinstance(frame, str):
        path.write_text(frame)
    else:
        for k, command in enumerate(frame):
            assert main(command + [str(path)] * (k > 0)) == 0
            path.write_text(capsys.readouterr().out)
    if isinstance(argv, str):
        lines = route_lines(frame_from_document(parse_frame_document(path.read_text())), argv)
        assert lines[-1].startswith("not scalable") == (code == 1)
        out, err = "".join(line + "\n" for line in lines), ""
    else:
        assert main(argv + [str(path)]) == code
        out, err = capsys.readouterr()
    kind, *expected = check
    if kind == "json":
        report = json.loads(out)[expected[0]]
        assert {key: report[key] for key in expected[1]} == expected[1]
    else:
        stream = out if kind.endswith("stdout") else err
        assert expected[0] in stream if kind.startswith("in ") else stream == expected[0]
    if name in SPLIT_ONLY:
        assert nearest == []


def test_python_dash_m_runs_main_in_a_fresh_process(tmp_path):
    # ``python -m framescale``, the benchmark's cold start: main's exit code,
    # on the package in src/, and no warning at import
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONWARNINGS="error",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    quadrant = write(tmp_path, "quadrant.frame", QUADRANT_TEXT)
    for argv, code, stdout in ((["--version"], 0, "0.1.0\n"),
                               (["scale", quadrant], 1, "not scalable; certificate y: ")):
        run = subprocess.run([sys.executable, "-m", "framescale", *argv],
                             capture_output=True, text=True, env=env, timeout=60)
        assert (run.returncode, run.stderr, run.stdout.count("\n")) == (code, "", 1)
        assert run.stdout.startswith(stdout)


def test_closed_output_pipe_exits_141_in_silence(tmp_path):
    # the reader takes 10 bytes and closes the pipe while ``analyze`` still
    # has about 50 reports to print, far more than a pipe buffers: a
    # traceback and exit 1, which reads as "not scalable", used to follow
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONWARNINGS="error",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    rng = np.random.default_rng(0)
    paths = []
    for k in range(50):
        F = make_frame(rng.standard_normal((12, 4)))
        paths.append(write(tmp_path, f"{k}.frame", format_frame_document(document_from_frame(F))))
    proc = subprocess.Popen([sys.executable, "-m", "framescale", "analyze", "--json", *paths],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")
