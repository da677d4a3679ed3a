"""Command-line interface: analyze, scale, dual, generate.

Exit codes: 0 analyzed, 1 not scalable (cmd_scale only), 2 input error,
3 internal numeric failure, 141 output pipe closed.  The tightness tolerance
of ``analyze`` is --tol, a finite positive number echoed in every report;
``scale`` and ``dual`` re-check their scalings at ``is_tight``'s default, and
every other threshold is a constant of the ``numerics`` table.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
from json.encoder import encode_basestring

import numpy as np

from . import __version__, numerics
from . import duals as duals_mod
from . import scalability as sca
from . import split_scaling as split
from .errors import BadParamsError, FramescaleError, InternalNumericError, ParseError
from .frame_core import apply_scaling, frame_operator, frame_potential, is_tight, make_frame
from .framedoc import (
    FrameDocument,
    document_from_frame,
    format_frame_document,
    format_number,
    frame_from_document,
    parse_frame_document,
)


def _vec(a):
    return None if a is None else np.asarray(a, dtype=float).ravel().tolist()


def _mat(a):
    return None if a is None else np.asarray(a, dtype=float).tolist()


@functools.lru_cache(maxsize=1024)
def _float_format(rows, cols):
    """One ``%`` format string for a list of ``cols`` floats (``rows`` None)
    or a ``rows`` x ``cols`` matrix of floats, each at 17 significant digits
    as ``format_number`` writes it."""
    row = "[" + ", ".join(["%.17g"] * cols) + "]"
    return row if rows is None else "[" + ", ".join([row] * rows) + "]"


def _json_dumps(obj, indent=0):
    """Deterministic JSON with floats at 17 significant digits.  A list of
    floats, and a matrix of them (equal nonempty rows), is written by one
    format string.  Floats and strings, the most frequent leaves, are
    tested first."""
    if isinstance(obj, float):
        return format_number(obj)
    if isinstance(obj, str):
        return encode_basestring(obj)
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {_json_dumps(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        types = set(map(type, obj))
        if types == {float}:
            return _float_format(None, len(obj)) % tuple(obj)
        if types == {list} and len(set(map(len, obj))) == 1 and obj[0]:
            flat = tuple(itertools.chain.from_iterable(obj))
            if set(map(type, flat)) == {float}:
                return _float_format(len(obj), len(obj[0])) % flat
        items = ", ".join(_json_dumps(v, indent) for v in obj)
        return "[" + items + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    return encode_basestring(str(obj))


def _split_elements(frame, verdict):
    """Elements of W and V: on a scalable frame the points on the ray of the
    kernel weights c (``split_scaling.intersection_points``), else each
    block's own answer."""
    if not verdict.scalable:
        return split.find_W_element(frame), split.find_V_element(frame)
    return split.intersection_points(frame, verdict.weights_c)


def build_report(doc: FrameDocument, tightness: float) -> dict:
    """The ``analyze`` report of one frame document; ``tightness`` is the
    ``is_tight`` tolerance, echoed as ``tolerance``."""
    frame = frame_from_document(doc)
    # a finite potential ||S||_F^2 bounds S, its spectrum and every theta entry
    potential = frame_potential(frame)
    op = frame_operator(frame)
    tight = is_tight(frame, tightness)

    verdict = sca.decide(frame)
    w_elem, v_elem = _split_elements(frame, verdict)

    pair = duals_mod.canonical_dual(frame)
    dual_report = duals_mod.canonical_dual_scalable(frame)

    return {
        "tool": {"name": "framescale", "version": __version__},
        "tolerance": float(tightness),
        "frame": {
            "name": doc.name,
            "n": frame.n,
            "m": frame.m,
            "lower_bound": op.lower_bound,
            "upper_bound": op.upper_bound,
            "tight": tight.tight,
            "tight_bound": tight.bound,
            "frame_potential": potential,
        },
        "scalability": {
            "verdict": verdict.verdict,
            "method": verdict.method,
            "weights_c": _vec(verdict.weights_c),
            "scalars_a": _vec(verdict.scalars_a),
            "certificate_y": _vec(verdict.certificate_y),
            "reject_row": None,  # always null: no route reads a one-signed row
            "near_zero": list(verdict.near_zero),
        },
        "split": {
            "w_nonempty": w_elem.member,
            "w_element": _vec(w_elem.a),
            "v_nontrivial": v_elem.member,
            "v_element": _vec(v_elem.a),
            "intersection_verdict": sca.SCALABLE if verdict.scalable else sca.NOT_SCALABLE,
            "parseval_scalars": _vec(np.sqrt(w_elem.a)) if verdict.scalable else None,
        },
        "dual": {
            "canonical_dual": _mat(pair.dual.synthesis.T),
            "dual_scalable": dual_report.feasible,
            "dual_weights_c": _vec(dual_report.weights_c),
            "dual_scalars_a": _vec(dual_report.scalars_a),
            "residual": dual_report.residual,
            "certificate_y": _vec(dual_report.certificate_y),
        },
    }


def _print_report_text(rep):
    f = rep["frame"]
    name = f["name"] or "(unnamed)"
    print(f"frame {name}: n={f['n']} m={f['m']}")
    print(f"  bounds: A={f['lower_bound']:.12g} B={f['upper_bound']:.12g}")
    tight = f"tight (bound {f['tight_bound']:.12g})" if f["tight"] else "not tight"
    print(f"  {tight}; frame potential {f['frame_potential']:.12g}")
    s = rep["scalability"]
    print(f"  scalability: {s['verdict']} (method {s['method']})")
    if s["scalars_a"]:
        print("  scalars a: " + " ".join("%.12g" % v for v in s["scalars_a"]))
    if s["certificate_y"]:
        print("  certificate y: " + " ".join("%.12g" % v for v in s["certificate_y"]))
    sp = rep["split"]
    print(
        f"  split: W {'nonempty' if sp['w_nonempty'] else 'empty'}, "
        f"V {'nontrivial' if sp['v_nontrivial'] else 'trivial'}, "
        f"intersection {sp['intersection_verdict']}"
    )
    d = rep["dual"]
    print(f"  canonical dual scalable: {d['dual_scalable']}")
    print(f"  tolerance: {rep['tolerance']:.3g}")


def _read_document(path):
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}")
    return parse_frame_document(text, source=path)


def cmd_analyze(args) -> int:
    for path in args.paths:
        doc = _read_document(path)
        try:
            rep = build_report(doc, args.tol)
        except FramescaleError as exc:
            if len(args.paths) > 1:  # read and parse errors name their file already
                exc.args = (f"{path}: {exc}",)
            raise
        if args.json:
            print(_json_dumps(rep))
        else:
            _print_report_text(rep)
    return 0


def cmd_scale(args) -> int:
    doc = _read_document(args.path)
    frame = frame_from_document(doc)
    if args.method == "auto":
        result = sca.decide(frame)
    else:  # split
        result = split.intersection_scalability(frame)
    if not result.scalable:
        print("not scalable; certificate y: "
              + " ".join("%.12g" % v for v in result.certificate_y))
        return 1
    scaled = apply_scaling(frame, result.scalars_a)
    if not is_tight(scaled).tight:
        raise InternalNumericError("reported scaling does not make the frame tight")
    if args.strict and result.verdict != sca.STRICTLY_SCALABLE:
        print("scalable, but not strictly")
    print(" ".join("%.12g" % v for v in result.scalars_a))
    return 0


def cmd_dual(args) -> int:
    doc = _read_document(args.path)
    frame = frame_from_document(doc)
    pair = duals_mod.canonical_dual(frame)
    rep = duals_mod.canonical_dual_scalable(frame) if args.check_scalable else None
    if rep is not None and rep.feasible:
        # the scaled dual has frame operator S^-1 S^2 S^-1 = I
        scaled = apply_scaling(pair.dual, rep.scalars_a)
        if not is_tight(scaled).tight:
            raise InternalNumericError("reported dual scaling does not make the dual tight")
    name = (doc.name + "-canonical-dual") if doc.name else "canonical-dual"
    print(format_frame_document(document_from_frame(pair.dual, name=name)), end="")
    if rep is not None:
        if rep.feasible:
            print("dual scalable; weights c: "
                  + " ".join("%.12g" % v for v in rep.weights_c))
        else:
            print("dual not scalable")
    return 0


def _generate_document(kind, n, m, seed) -> FrameDocument:
    if kind == "mb":
        angles = [2.0 * np.pi * k / 3.0 for k in range(3)]
        vectors = [[np.cos(a), np.sin(a)] for a in angles]
        frame = make_frame(vectors)
    elif kind == "hadamard-doubled":
        H = duals_mod.sylvester_hadamard(n)
        H[-1] *= 2.0
        frame = make_frame(H.T)
    elif kind == "p1":
        frame = duals_mod.p1_counterexample(n)
    elif kind == "random-unit":
        if n < 1 or m < n or seed < 0:
            raise BadParamsError(
                f"random-unit needs m >= n >= 1 and seed >= 0, got n={n}, m={m}, seed={seed}")
        # Gaussian vectors, m >= n of them, span with probability 1;
        # make_frame rejects a draw that does not
        V = np.random.default_rng(seed).standard_normal((m, n))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        frame = make_frame(V)
    else:
        raise BadParamsError(f"unknown generator kind {kind!r}")
    return document_from_frame(frame, name=kind)


def cmd_generate(args) -> int:
    doc = _generate_document(args.kind, args.n, args.m, args.seed)
    print(format_frame_document(doc), end="")
    return 0


def _tolerance(text):
    """The value of ``analyze --tol``: a finite positive number."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return tol


@functools.cache
def _build_parser():
    """The argument parser and its command parsers by name, built once per
    process."""
    parser = argparse.ArgumentParser(
        prog="framescale",
        description="Scalability analysis of finite frames in R^n",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    p = commands["analyze"] = sub.add_parser("analyze", help="full report for a frame file")
    p.add_argument("paths", nargs="+", metavar="path", help="frame documents to analyze")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--tol", type=_tolerance, default=numerics.RESIDUAL_TOL,
                   help="tightness tolerance (default %(default)g)")
    p.set_defaults(func=cmd_analyze)

    p = commands["scale"] = sub.add_parser(
        "scale", help="compute scaling weights or a certificate")
    p.add_argument("path")
    p.add_argument("--strict", action="store_true", help="say if scalable, but not strictly")
    p.add_argument("--method", choices=["auto", "split"], default="auto")
    p.set_defaults(func=cmd_scale)

    p = commands["dual"] = sub.add_parser("dual", help="emit the canonical dual frame")
    p.add_argument("path")
    p.add_argument("--check-scalable", action="store_true",
                   help="also test scalability of the canonical dual")
    p.set_defaults(func=cmd_dual)

    p = commands["generate"] = sub.add_parser("generate", help="emit a named frame construction")
    p.add_argument("kind", choices=["mb", "hadamard-doubled", "p1", "random-unit"])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)
    return parser, commands


def _parse_args(argv):
    """The arguments of one command line, parsed once: a line that starts
    with a command goes to that command's parser, as the top-level parser
    would hand it on, and anything else to the top-level parser, which
    reports it.  A command line skips the top-level parser's own reading of
    its options, so an argument that it alone calls ambiguous (``--=x``) is
    judged by the command's parser instead; ``TestCommandLine`` holds the
    two paths to the same bytes on the lines it names."""
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout: send what is left there, and the flush
        # at exit, to os.devnull, and exit as a shell reports SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except InternalNumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except FramescaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
