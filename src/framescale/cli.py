"""Command-line interface: analyze, scale, dual, generate.

Exit codes: 0 analyzed, 1 not scalable (cmd_scale only), 2 input error,
3 internal numeric failure.  The tightness tolerance comes from --tol or the
FRAMESCALE_TOL environment variable, must be a finite positive number and is
echoed in every report; every other threshold is a constant of the
``numerics`` table.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__, numerics
from . import duals as duals_mod
from . import scalability as sca
from . import split_scaling as split
from .diagram import reduced_diagram_matrix, reduced_size
from .errors import (
    BadParamsError,
    FramescaleError,
    InternalNumericError,
    IterationLimitError,
    ParseError,
)
from .frame_core import apply_scaling, frame_operator, frame_potential, is_tight, make_frame
from .framedoc import (
    FrameDocument,
    document_from_frame,
    format_frame_document,
    format_number,
    frame_from_document,
    parse_frame_document,
)

DEFAULT_TOL = numerics.RESIDUAL_TOL  # the tightness tolerance; it steers no verdict


def _vec(a):
    return None if a is None else np.asarray(a, dtype=float).ravel().tolist()


def _mat(a):
    return None if a is None else np.asarray(a, dtype=float).tolist()


def _json_dumps(obj, indent=0):
    """Deterministic JSON with floats at 17 significant digits."""
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
        if all(type(v) is float for v in obj):
            return "[" + ", ".join(map("%.17g".__mod__, obj)) + "]"
        items = ", ".join(_json_dumps(v, indent) for v in obj)
        return "[" + items + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return format_number(obj)
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(str(obj), ensure_ascii=False)


def _verify_scaling_result(frame, result):
    """Re-check a reported weight vector before it is emitted: theta c must
    vanish relative to the largest row sum of its terms |theta_ji| c_i."""
    if result.weights_c is None:
        return
    theta = reduced_diagram_matrix(frame)  # no rows in R^1
    c = result.weights_c
    scale = float((np.abs(theta) @ c).max(initial=0.0))
    if float(np.abs(theta @ c).max(initial=0.0)) > numerics.RESIDUAL_TOL * scale:
        raise InternalNumericError("reported weights fail the kernel identity")


def _split_elements(frame, verdict):
    """Elements of W and V.  On a scalable frame they are read off the kernel
    weights c: sum_i c_i x_i x_i^T = lambda I with
    lambda = sum_i c_i ||x_i||^2 / n, so c lies in V, c / lambda lies in W and
    sqrt(c / lambda) are Parseval weights.  Both points are re-checked."""
    if not verdict.scalable:
        return split.find_W_element(frame), split.find_V_element(frame)
    c = verdict.weights_c
    lam = float(c @ (frame.synthesis ** 2).sum(axis=0)) / frame.n
    w_elem = split.is_in_W(frame, c / lam)
    v_elem = split.is_in_V(frame, c)
    if not (w_elem.member and v_elem.member):
        raise InternalNumericError("reported weights fail the W or V identities")
    return w_elem, v_elem


def build_report(doc: FrameDocument, tightness: float) -> dict:
    """The ``analyze`` report of one frame document; ``tightness`` is the
    ``is_tight`` tolerance, echoed as ``tolerance``."""
    frame = frame_from_document(doc)
    op = frame_operator(frame)
    tight = is_tight(frame, tightness)

    verdict = sca.decide_scalable(frame, strict=True)
    _verify_scaling_result(frame, verdict)
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
            "frame_potential": frame_potential(frame),
        },
        "scalability": {
            "verdict": verdict.verdict,
            "method": verdict.method,
            "weights_c": _vec(verdict.weights_c),
            "scalars_a": _vec(verdict.scalars_a),
            "certificate_y": _vec(verdict.certificate_y),
            "reject_row": verdict.reject_row,
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
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    return parse_frame_document(text, source=path)


def cmd_analyze(args) -> int:
    paths = []
    if args.batch:
        try:
            names = sorted(os.listdir(args.batch))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        paths = [os.path.join(args.batch, nm) for nm in names
                 if os.path.isfile(os.path.join(args.batch, nm))]
        if not paths:
            print(f"error: no files in {args.batch}", file=sys.stderr)
            return 2
    elif args.path:
        paths = [args.path]
    else:
        print("error: provide a path or --batch", file=sys.stderr)
        return 2
    for path in paths:
        doc = _read_document(path)
        rep = build_report(doc, args.tol)
        if args.json:
            print(_json_dumps(rep))
        else:
            _print_report_text(rep)
    return 0


def cmd_scale(args) -> int:
    doc = _read_document(args.path)
    frame = frame_from_document(doc)
    method = args.method
    if method == "auto":
        method = "lp"
        # the corank is at least m - d, so a frame with m > d + 2 needs no SVD
        if frame.m <= reduced_size(frame.n) + 2:
            corank = sca.theta_kernel(frame).shape[1]
            method = {1: "cofactor", 2: "codim2"}.get(corank, "lp")
    if method == "lp":
        result = sca.decide_scalable(frame, strict=args.strict)
    elif method == "cofactor":
        _, result = sca.cofactor_scaling(frame)
    elif method == "codim2":
        result = sca.codim2_scaling(frame)
    else:  # split
        result = split.intersection_scalability(frame, strict=args.strict)
    _verify_scaling_result(frame, result)
    if not result.scalable:
        if result.certificate_y is not None:
            print("not scalable; certificate y: "
                  + " ".join("%.12g" % v for v in result.certificate_y))
        else:
            print(f"not scalable; one-signed row {result.reject_row}")
        return 1
    scaled = apply_scaling(frame, result.scalars_a)
    if not is_tight(scaled, args.tol).tight:
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
        if not is_tight(scaled, args.tol).tight:
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


def _generate_document(kind, n, m, seed, name) -> FrameDocument:
    if kind == "mb":
        angles = [2.0 * np.pi * k / 3.0 for k in range(3)]
        vectors = [[np.cos(a), np.sin(a)] for a in angles]
        frame = make_frame(vectors)
    elif kind == "hadamard-doubled":
        H = duals_mod.sylvester_hadamard(n)
        H = H.copy()
        H[-1] *= 2.0
        frame = make_frame(H.T)
    elif kind == "p1":
        frame = duals_mod.p1_counterexample(n)
    elif kind == "random-unit":
        if m < n:
            raise BadParamsError(f"random-unit needs m >= n, got n={n}, m={m}")
        rng = np.random.default_rng(seed)
        for _ in range(100):
            V = rng.standard_normal((m, n))
            V /= np.linalg.norm(V, axis=1, keepdims=True)
            if numerics.rank(V.T) == n:
                break
        frame = make_frame(V)
    else:
        raise BadParamsError(f"unknown generator kind {kind!r}")
    return document_from_frame(frame, name=name or kind)


def cmd_generate(args) -> int:
    doc = _generate_document(args.kind, args.n, args.m, args.seed, args.name)
    print(format_frame_document(doc), end="")
    return 0


def _resolve_tol(arg):
    """The tolerance from --tol, else FRAMESCALE_TOL, else DEFAULT_TOL.
    Anything but a finite positive number is an input error."""
    text, source = arg, "--tol"
    if text is None:
        text, source = os.environ.get("FRAMESCALE_TOL"), "FRAMESCALE_TOL"
        if not text:
            return DEFAULT_TOL
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0.0):
        raise BadParamsError(f"{source} must be a finite positive number, got {text!r}")
    return tol


@functools.cache
def _build_parser():
    """The argument parser, built once per process.  ``--tol`` is kept as
    text, default None, so that ``main`` validates it and reads
    FRAMESCALE_TOL on every call."""
    parser = argparse.ArgumentParser(
        prog="framescale",
        description="Scalability analysis of finite frames in R^n",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for a frame file")
    p.add_argument("path", nargs="?", help="frame document to analyze")
    p.add_argument("--batch", help="analyze every file in a directory")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--tol")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("scale", help="compute scaling weights or a certificate")
    p.add_argument("path")
    p.add_argument("--strict", action="store_true", help="require strictly positive weights")
    p.add_argument("--method", choices=["auto", "lp", "cofactor", "codim2", "split"],
                   default="auto")
    p.add_argument("--tol")
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("dual", help="emit the canonical dual frame")
    p.add_argument("path")
    p.add_argument("--check-scalable", action="store_true",
                   help="also test scalability of the canonical dual")
    p.add_argument("--tol")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("generate", help="emit a named frame construction")
    p.add_argument("kind", choices=["mb", "hadamard-doubled", "p1", "random-unit"])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name")
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if hasattr(args, "tol"):
            args.tol = _resolve_tol(args.tol)
        return args.func(args)
    except (IterationLimitError, InternalNumericError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except FramescaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
