import json

import numpy as np
import pytest

from framescale import make_frame
from framescale.cli import _json_dumps, build_report, main
from framescale.errors import ParseError
from framescale.frame_core import apply_scaling, is_tight
from framescale.framedoc import (
    document_from_frame,
    format_frame_document,
    frame_from_document,
    format_number,
    parse_frame_document,
)
from test_derived import FRAMES, _frame


MB_TEXT = "n 2\nm 3\n1 0\n-0.5 0.8660254037844386\n-0.5 -0.8660254037844386\n"
EXAMPLE_TEXT = "n 2\nm 3\nname example\n2 1\n1 2\n1 1\n"
QUADRANT_TEXT = "n 2\nm 3\n1 0.1\n0.9 0.5\n0.5 1\n"


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

    def test_batch_sorted_order(self, tmp_path, capsys):
        write(tmp_path, "b.frame", MB_TEXT)
        write(tmp_path, "a.frame", EXAMPLE_TEXT)
        assert main(["analyze", "--batch", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.index("not_scalable") < out.index("strictly_scalable")

    def test_tol_env_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FRAMESCALE_TOL", "1e-5")
        path = write(tmp_path, "mb.frame", MB_TEXT)
        assert main(["analyze", path]) == 0
        assert "1e-05" in capsys.readouterr().out

    def test_tol_env_read_on_every_call(self, tmp_path, capsys, monkeypatch):
        # one parser serves the process, so the default must not be frozen in it
        path = write(tmp_path, "mb.frame", MB_TEXT)
        monkeypatch.setenv("FRAMESCALE_TOL", "1e-5")
        assert main(["analyze", path]) == 0
        assert "tolerance: 1e-05" in capsys.readouterr().out
        monkeypatch.delenv("FRAMESCALE_TOL")
        assert main(["analyze", path]) == 0
        assert "tolerance: 1e-08" in capsys.readouterr().out


BAD_TOLS = ["nan", "inf", "0", "-1", "abc"]
TOL_COMMANDS = [["analyze"], ["scale"], ["dual", "--check-scalable"]]


class TestTolerance:
    """A tolerance that is not a finite positive number is an input error;
    a NaN would make every tightness comparison pass vacuously."""

    @pytest.mark.parametrize("tol", BAD_TOLS)
    @pytest.mark.parametrize("command", TOL_COMMANDS, ids=" ".join)
    def test_bad_option_exit_two(self, tmp_path, capsys, command, tol):
        path = write(tmp_path, "x.frame", EXAMPLE_TEXT)
        assert main(command + [path, "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --tol must be a finite positive number")

    @pytest.mark.parametrize("tol", BAD_TOLS)
    @pytest.mark.parametrize("command", TOL_COMMANDS, ids=" ".join)
    def test_bad_env_exit_two(self, tmp_path, capsys, monkeypatch, command, tol):
        path = write(tmp_path, "x.frame", EXAMPLE_TEXT)
        monkeypatch.setenv("FRAMESCALE_TOL", tol)
        assert main(command + [path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: FRAMESCALE_TOL must be a finite positive number")

    def test_option_overrides_bad_env(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "x.frame", EXAMPLE_TEXT)
        monkeypatch.setenv("FRAMESCALE_TOL", "abc")
        assert main(["analyze", path, "--tol", "1e-5"]) == 0
        assert "tolerance: 1e-05" in capsys.readouterr().out


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

    def test_method_cofactor(self, tmp_path, capsys):
        t, p = np.pi / 3, 2 * np.pi / 3
        text = "n 2\nm 3\n1 0\n%.17g %.17g\n%.17g %.17g\n" % (
            np.cos(t), np.sin(t), np.cos(p), np.sin(p))
        path = write(tmp_path, "tp.frame", text)
        assert main(["scale", path, "--method", "cofactor"]) == 0
        weights = [float(v) for v in capsys.readouterr().out.split()]
        assert np.allclose(weights, weights[0])

    def test_method_codim2(self, tmp_path, capsys):
        deg = np.pi / 180
        rows = [(1.0, 0.0)] + [(np.cos(a), np.sin(a))
                               for a in (30 * deg, 100 * deg, 110 * deg)]
        text = "n 2\nm 4\n" + "".join("%.17g %.17g\n" % r for r in rows)
        path = write(tmp_path, "c2.frame", text)
        assert main(["scale", path, "--method", "codim2"]) == 0
        weights = [float(v) for v in capsys.readouterr().out.split()]
        assert min(weights) > 0

    def test_method_rank_mismatch_exit_two(self, tmp_path, capsys):
        path = write(tmp_path, "mb.frame", MB_TEXT)
        assert main(["scale", path, "--method", "codim2"]) == 2
        assert "corank" in capsys.readouterr().err

    def test_method_split(self, tmp_path, capsys):
        path = write(tmp_path, "mb.frame", MB_TEXT)
        assert main(["scale", path, "--method", "split"]) == 0


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
        assert main(["dual", path, "--check-scalable", "--tol", "1e-12"]) == 0
        out = capsys.readouterr().out
        doc_text, weights = out.split("dual scalable; weights c: ")
        dual = frame_from_document(parse_frame_document(doc_text))
        a = np.sqrt([float(v) for v in weights.split()])
        assert is_tight(apply_scaling(dual, a), 1e-12).tight

    def test_check_scalable_honours_tol(self, tmp_path, capsys):
        # no rounded scaling is tight to 1e-300: the check fails with exit 3
        path = write(tmp_path, "x.frame", EXAMPLE_TEXT)
        assert main(["dual", path, "--check-scalable", "--tol", "1e-300"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dual tight" in captured.err

    def test_check_scalable_in_dimension_one(self, tmp_path, capsys):
        # every frame in R^1 is tight, so its canonical dual is scalable
        path = write(tmp_path, "line.frame", "n 1\nm 3\n2\n-0.5\n3\n")
        assert main(["dual", path, "--check-scalable"]) == 0
        out = capsys.readouterr().out
        doc_text, weights = out.split("dual scalable; weights c: ")
        Y = parse_frame_document(doc_text).vectors.T
        c = np.array([float(v) for v in weights.split()])
        assert c.min() >= 0 and float(c @ Y[0] ** 2) == pytest.approx(1.0, rel=1e-9)

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
