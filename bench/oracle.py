"""Independent oracle for framescale's answers.

Builds the reduced diagram matrix and the S^2 system from the frame vectors
with plain numpy, decides the linear feasibility questions with scipy's HiGHS,
and checks every witness and certificate a report carries.  Nothing here
imports framescale.

A scalable answer is accepted only when its scalars make the frame tight at
``TIGHT_RTOL``; a not-scalable answer only when its certificate y gives
theta^T y > 0 in every column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

TIGHT_RTOL = 1e-6      # relative residual allowed in a tightness / identity check
BOUND_RTOL = 1e-8      # relative error allowed in frame bounds and potential
STRICT_MARGIN = 1e-7   # max-min weight (unit columns, weights sum 1) below which
#                        a frame counts as scalable but not strictly
_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}

NOT_SCALABLE = "not_scalable"
SCALABLE = "scalable"
STRICTLY_SCALABLE = "strictly_scalable"


def parse_vectors(text):
    """The m x n vectors of a frame document."""
    rows = []
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0] in ("n", "m", "name") or parts[0].startswith("#"):
            continue
        rows.append([float(p) for p in parts])
    return np.array(rows)


def diagram_matrix(V):
    """Reduced diagram matrix, one column per vector: the (1, j) square
    differences then all pairwise products, each scaled by 1/sqrt(n-1), the
    products also by sqrt(2n)."""
    X = V.T
    n = X.shape[0]
    s = 1.0 / np.sqrt(n - 1)
    rows = [(X[0] ** 2 - X[j] ** 2) * s for j in range(1, n)]
    rows += [np.sqrt(2.0 * n) * s * X[i] * X[j]
             for i in range(n) for j in range(i + 1, n)]
    return np.array(rows)


def _max_min_weight(A, b):
    """max t s.t. A c = b, c >= t, c >= 0, after scaling each column of A to
    unit norm (which keeps feasibility and zero weights).  None when
    A c = b, c >= 0 is infeasible; otherwise the optimal t (t may be 0).
    Dual simplex with tight tolerances first; the defaults and then the
    interior-point method when a solve ends without a status."""
    norms = np.linalg.norm(A, axis=0)
    A = A / np.where(norms > 0, norms, 1.0)
    k, m = A.shape
    A_eq = np.hstack([A, np.zeros((k, 1))])
    A_ub = np.hstack([-np.eye(m), np.ones((m, 1))])
    cost = np.zeros(m + 1)
    cost[-1] = -1.0
    for method, options in (("highs-ds", _HIGHS), ("highs-ds", {}), ("highs-ipm", {})):
        res = linprog(cost, A_ub=A_ub, b_ub=np.zeros(m), A_eq=A_eq, b_eq=b,
                      bounds=[(0, None)] * m + [(None, 1.0)], method=method,
                      options=options)
        if res.status == 2:
            return None
        if res.status == 0:
            return float(res.x[-1])
    raise RuntimeError(f"HiGHS failed: {res.message}")


@dataclass(frozen=True)
class FrameFacts:
    """What the oracle decides about one frame."""

    V: np.ndarray
    theta: np.ndarray
    verdict: str          # NOT_SCALABLE | SCALABLE | STRICTLY_SCALABLE
    margin: float | None  # max-min weight on unit vectors, weights summing to 1
    dual_scalable: bool
    w_nonempty: bool
    v_nontrivial: bool


def _rows_squared(V):
    return (V * V).T


def _cross_rows(V):
    n = V.shape[1]
    return np.array([V[:, i] * V[:, j] for i in range(n) for j in range(i + 1, n)])


def _s2_system(V):
    """Upper triangle of sum_i c_i x_i x_i^T = S^2, scaled to unit size."""
    X = V.T
    S = X @ X.T
    S2 = S @ S
    n = X.shape[0]
    idx = [(i, j) for i in range(n) for j in range(i, n)]
    A = np.array([X[i] * X[j] for i, j in idx])
    b = np.array([S2[i, j] for i, j in idx])
    scale = float(np.abs(b).max())
    return A / scale, b / scale


def decide(text):
    """Decide scalability, canonical-dual scalability, W and V for a frame."""
    V = parse_vectors(text)
    m = V.shape[0]
    U = V / np.linalg.norm(V, axis=1, keepdims=True)
    theta_u = diagram_matrix(U)
    k = theta_u.shape[0]
    margin = _max_min_weight(np.vstack([theta_u, np.ones((1, m))]),
                             np.concatenate([np.zeros(k), [1.0]]))
    if margin is None:
        verdict = NOT_SCALABLE
    else:
        verdict = STRICTLY_SCALABLE if margin > STRICT_MARGIN else SCALABLE
    A, b = _s2_system(V)
    cross = _cross_rows(V)
    if cross.size == 0:
        cross = np.zeros((1, m))
    return FrameFacts(
        V=V,
        theta=diagram_matrix(V),
        verdict=verdict,
        margin=margin,
        dual_scalable=_max_min_weight(A, b) is not None,
        w_nonempty=_max_min_weight(_rows_squared(V), np.ones(V.shape[1])) is not None,
        v_nontrivial=_max_min_weight(np.vstack([cross, np.ones((1, m))]),
                                     np.concatenate([np.zeros(len(cross)), [1.0]]))
        is not None,
    )


# -- checks of single answers --------------------------------------------------

def tight_residual(V, a):
    """Relative distance of the frame operator of {a_i x_i} from lambda I."""
    a = np.asarray(a, dtype=float)
    Xa = V.T * a
    S = Xa @ Xa.T
    lam = float(np.trace(S)) / S.shape[0]
    if not lam > 0.0:
        return float("inf")
    return float(np.abs(S - lam * np.eye(S.shape[0])).max()) / lam


def certificate_holds(theta, y):
    """theta^T y > 0 in every column: no nonnegative kernel vector exists."""
    y = np.asarray(y, dtype=float)
    return y.shape == (theta.shape[0],) and float((theta.T @ y).min()) > 0.0


def check_scaling_answer(facts, verdict, scalars, certificate, reject_row=None):
    """Problems with one scalability answer (empty when it is accepted).

    ``verdict`` None stands for "scalable" without a claim about strictness,
    which is what ``scale`` prints.
    """
    problems = []
    if verdict == NOT_SCALABLE:
        if certificate is not None:
            if not certificate_holds(facts.theta, certificate):
                problems.append("certificate fails theta^T y > 0")
        elif reject_row is not None:
            row = facts.theta[reject_row]
            if not (np.all(row > 0) or np.all(row < 0)):
                problems.append(f"row {reject_row} is not strictly one-signed")
        else:
            problems.append("not-scalable answer without a certificate")
        if facts.verdict != NOT_SCALABLE:
            problems.append(f"verdict not_scalable, oracle {facts.verdict}")
        return problems
    if facts.verdict == NOT_SCALABLE:
        problems.append(f"verdict {verdict or SCALABLE}, oracle not_scalable")
    if scalars is None:
        return problems + ["scalable answer without scalars"]
    resid = tight_residual(facts.V, scalars)
    if not resid <= TIGHT_RTOL:
        problems.append(f"scalars leave the frame {resid:.2e} from tight")
    if verdict == STRICTLY_SCALABLE and float(np.min(scalars)) <= 0.0:
        problems.append("strictly scalable answer with a zero scalar")
    if verdict == SCALABLE and facts.verdict == STRICTLY_SCALABLE:
        problems.append(f"verdict scalable, oracle strictly (margin {facts.margin:.2e})")
    return problems


def check_report(facts, rep):
    """Problems with an ``analyze --json`` report."""
    V = facts.V
    X = V.T
    problems = []
    fr = rep["frame"]
    if (fr["n"], fr["m"]) != (X.shape[0], X.shape[1]):
        problems.append("frame size")
    eig = np.linalg.eigvalsh(X @ X.T)
    if abs(fr["lower_bound"] - eig[0]) > BOUND_RTOL * eig[-1] or \
            abs(fr["upper_bound"] - eig[-1]) > BOUND_RTOL * eig[-1]:
        problems.append("frame bounds")
    G = X.T @ X
    pot = float(np.sum(G * G))
    if abs(fr["frame_potential"] - pot) > BOUND_RTOL * pot:
        problems.append("frame potential")

    s = rep["scalability"]
    problems += check_scaling_answer(facts, s["verdict"], s["scalars_a"],
                                     s["certificate_y"], s["reject_row"])

    sp = rep["split"]
    if sp["w_nonempty"] != facts.w_nonempty:
        problems.append(f"w_nonempty {sp['w_nonempty']}, oracle {facts.w_nonempty}")
    if sp["w_element"] is not None:
        a = np.asarray(sp["w_element"])
        if a.min() < 0 or np.abs(_rows_squared(V) @ a - 1.0).max() > TIGHT_RTOL:
            problems.append("w_element is not in W")
    if sp["v_nontrivial"] != facts.v_nontrivial:
        problems.append(f"v_nontrivial {sp['v_nontrivial']}, oracle {facts.v_nontrivial}")
    if sp["v_element"] is not None and V.shape[1] > 1:
        a = np.asarray(sp["v_element"])
        cross = np.abs(_cross_rows(V) @ a).max()
        if a.min() < 0 or not a.sum() > 0 or cross > TIGHT_RTOL * np.abs(V).max() ** 2 * a.sum():
            problems.append("v_element is not in V")
    split_scalable = sp["intersection_verdict"] != NOT_SCALABLE
    if split_scalable != (facts.verdict != NOT_SCALABLE):
        problems.append(f"intersection {sp['intersection_verdict']}, oracle {facts.verdict}")
    if sp["parseval_scalars"] is not None:
        a = np.asarray(sp["parseval_scalars"])
        Xa = X * a
        if np.abs(Xa @ Xa.T - np.eye(X.shape[0])).max() > TIGHT_RTOL:
            problems.append("parseval_scalars do not give a Parseval frame")

    d = rep["dual"]
    if d["dual_scalable"] != facts.dual_scalable:
        problems.append(f"dual_scalable {d['dual_scalable']}, oracle {facts.dual_scalable}")
    if d["dual_weights_c"] is not None:
        c = np.asarray(d["dual_weights_c"])
        S = X @ X.T
        S2 = S @ S
        resid = np.abs((X * c) @ X.T - S2).max() / np.abs(S2).max()
        if c.min() < 0 or resid > TIGHT_RTOL:
            problems.append("dual weights fail sum c_i x_i x_i^T = S^2")
    Y = np.asarray(d["canonical_dual"]).T
    if Y.shape != X.shape or np.abs(X @ Y.T - np.eye(X.shape[0])).max() > TIGHT_RTOL:
        problems.append("canonical dual fails X Y^T = I")
    return problems


def check_scale_output(facts, exit_code, text):
    """Problems with the output of ``scale`` (exit 0: scalars, exit 1: a
    certificate or a one-signed row)."""
    lines = text.strip().splitlines()
    if not lines:
        return ["empty output"]
    last = lines[-1]
    if exit_code == 1:
        if "certificate y:" in last:
            y = [float(t) for t in last.split("certificate y:")[1].split()]
            return check_scaling_answer(facts, NOT_SCALABLE, None, y)
        if "one-signed row" in last:
            return check_scaling_answer(facts, NOT_SCALABLE, None, None,
                                        int(last.split()[-1]))
        return [f"unrecognised output {last[:60]!r}"]
    scalars = [float(t) for t in last.split()]
    verdict = SCALABLE if any(ln.startswith("scalable, but not") for ln in lines) else None
    return check_scaling_answer(facts, verdict, scalars, None)
