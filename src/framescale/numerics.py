"""Dense real linear-algebra kernel and the hull solver.

Singular values, the SVD and rank come from LAPACK through numpy.  Every
question that the package asks of a row block A of the reduced diagram
matrix is one hull question, asked of A's unit-norm columns P, which the
owner of A forms once (``column_norms``): is there a c >= 0, c != 0 with
P c = 0, or else a y with P^T y > 0 (Gordan's alternative)?
``solve_feasibility``, the entry point, takes P and asks it in one order
(``_hull``): ``split_of_one`` answers from regularized Gram solves, in
rounds that drop the columns its kernel part leaves near 0, when a part of
1 is strictly positive and its witness leaves no room for a certificate
that clears ``ZERO_TOL`` (``no_margin``), and ``nearest_point`` (Wolfe)
answers the rest, a certificate that clears ``ZERO_TOL`` first.  It checks
every answer, and with ``require_strict`` carries a witness to one of
largest support (``_support_rounds``).

Every threshold of the package is written once, in the table below, and
named by its role.  No threshold is absolute: each multiplies a scale named
beside it, and most of those scales are of unit size by construction (the
hull solver and the scalability routes read the reduced diagram matrix on
unit-norm columns, and weights sum to 1), so a verdict does not move when a
frame vector is rescaled.  The one tolerance a user can set is the
tightness tolerance of ``frame_core.is_tight``, through ``analyze --tol``
alone, never the environment; it steers no verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InternalNumericError, NonFiniteError

# The tolerance table.  Each threshold is named by its role, and its value
# multiplies the scale that its comment names.
ZERO_TOL = 1e-12       # zero and sign: an entry of unit-size data counts as 0
#                        (unit-norm theta columns, max |kernel basis| times
#                        s_1/s_r, a codim-2 normal angle, in radians, times
#                        max |kernel basis| times s_1/s_r over its row
#                        length, the angle of a codim-2 certificate's target
#                        to a kernel row, in radians, times s_1/s_r, min B^T y
#                        of a certificate of the split of 1 against max|y|,
#                        min P^T x against ||x|| and ||x|| of Wolfe's point,
#                        ||P w|| of a witness of unit columns against sum(w),
#                        its weights, max weight, sum of unit-column weights:
#                        zeroed ones); the regularization of the split's Gram
#                        solve, whose square root times max|y| its kernel
#                        part must exceed
RANK_TOL = 1e-10       # rank: the largest singular value (rank, kernel, a
#                        column's projection off the span of a support),
#                        the largest entry or 1 if larger (independent rows),
#                        the largest entry times s_1/s_r (cofactor sign
#                        classes)
RESIDUAL_TOL = 1e-8    # identity: the kernel identity against
#                        max_j sum_i |theta_ji| c_i; W rows, X Y^T and unit
#                        norms against 1; V cross terms against the largest
#                        diagonal entry of sum_i a_i x_i x_i^T; operator
#                        identities (S^2, the Parseval identity of the scaled
#                        canonical dual, the transform target) against their
#                        largest entry; a codim-2 weight against max |kernel
#                        basis|; the default tightness tolerance
STRICT_MARGIN = 1e-9   # strictness: the minimum unit-column weight (weights
#                        sum 1) of a strictly scalable answer exceeds this,
#                        and so does the minimum of a kernel part w of the
#                        split of 1 against the sum of w


@dataclass(frozen=True)
class FeasibilityProblem:
    """The hull question of A: some x >= 0, x != 0 with A x = b for b = 0,
    or a certificate that none exists.  ``b`` must be 0."""

    A: np.ndarray
    b: np.ndarray
    require_strict: bool = False


def _check_finite(a):
    if not np.isfinite(a).all():
        raise NonFiniteError("matrix entries must be finite")


def singular_values(M):
    """Singular values of M, descending, by LAPACK (``numpy.linalg.svd``)."""
    A = np.asarray(M, dtype=float)
    _check_finite(A)
    return np.linalg.svd(A, compute_uv=False)


def rank_of(s):
    """Number of the descending singular values ``s`` above ``RANK_TOL``
    times the largest one: the rank rule of ``rank``, for callers that
    already hold the singular values."""
    return int(np.sum(s > RANK_TOL * s[0])) if s.size else 0


def rank(M):
    """Number of singular values above ``RANK_TOL`` times the largest one."""
    return rank_of(singular_values(M))


def svd(M):
    """The full SVD (U, s, V^T) of M, s descending, by LAPACK
    (``numpy.linalg.svd``): the trailing rows of V^T past ``rank_of(s)``
    span the kernel of M, and the leading factors give its pseudoinverse."""
    A = np.asarray(M, dtype=float)
    _check_finite(A)
    return tuple(np.linalg.svd(A))


def column_norms(A):
    """The 2-norm of each column of A, with 1 for a zero column.  A column
    whose sum of squares leaves the normal float range (a norm beyond about
    1e+-154) is first divided by the power of two at its peak, which is
    exact, so its norm neither underflows nor overflows; every other column
    keeps the plain sum of squares.  Its readers: ``frame_core.column_norms``
    (the spanning test, the QR's order), ``diagram.unit_diagram_matrix``,
    ``split_scaling``'s W and V blocks and the kernel of ``cofactor_scaling``."""
    low = 2.0 ** -511  # the square root of the smallest normal float
    with np.errstate(over="ignore"):
        norms = np.sqrt((A * A).sum(axis=0))
    if norms.min(initial=np.inf) >= low and norms.max(initial=0.0) < np.inf:
        return norms
    far = ~((norms >= low) & (norms < np.inf))
    _, e = np.frexp(np.abs(A[:, far]).max(axis=0, initial=0.0))
    scaled = np.ldexp(A[:, far], -e)
    norms[far] = np.ldexp(np.sqrt((scaled * scaled).sum(axis=0)), e)
    norms[norms == 0.0] = 1.0
    return norms


# ---------------------------------------------------------------------------
# the hull solver


def _split(B):
    """One split of 1 on the block B: (y, None, None) for a certificate,
    else (None, w, floor) (see ``split_of_one``)."""
    k, m = B.shape
    wide = m >= k
    G = B @ B.T if wide else B.T @ B
    G.flat[::G.shape[0] + 1] += ZERO_TOL
    z = np.linalg.solve(G, B.sum(axis=1) if wide else np.ones(m))
    y = z if wide else B @ z
    projected = y @ B
    y_max = float(np.abs(y).max())
    if float(projected.min()) > ZERO_TOL * y_max:
        return y, None, None
    w = 1.0 - projected if wide else ZERO_TOL * z
    floor = max(STRICT_MARGIN * float(w.sum()), np.sqrt(ZERO_TOL) * y_max)
    if float(w.min()) > floor and not no_margin(B, w):
        # the same solve again takes B w = ZERO_TOL y off the well-conditioned directions
        w = w - B.T @ np.linalg.solve(G, B @ w) if wide else ZERO_TOL * np.linalg.solve(G, w)
    return None, w, floor


def split_of_one(B):
    """The orthogonal split 1 = B^T y + w of the all-ones vector for a k x m
    block B of unit columns into its parts on the row space and the kernel
    of B, as (y, w) with at most one set.  By Gordan's alternative a
    strictly positive part settles whether some c >= 0, c != 0 has B c = 0:
    y is the certificate when B^T y exceeds ``ZERO_TOL`` max|y|, and w the
    kernel vector when it exceeds its floor and passes ``no_margin``.

    y comes from one solve with the smaller Gram matrix G, regularized by
    ``ZERO_TOL`` so that a rank-deficient block has an answer too:
    (B B^T + ZERO_TOL I) y = B 1 when m >= k, else y = B z for
    z = (B^T B + ZERO_TOL I)^{-1} 1 and w = ZERO_TOL z = 1 - B^T y, with no
    difference of two terms of size 1 / ZERO_TOL.  That leaves
    B w = ZERO_TOL y: a row-space direction of singular value far below
    sqrt(ZERO_TOL), as near-duplicate vectors make, stays in w and makes y
    large, so the floor of w is the larger of ``STRICT_MARGIN`` sum(w) and
    sqrt(ZERO_TOL) max|y|.  A w above it that fails ``no_margin`` is solved
    once more with G, which takes the rest off the other directions, and
    ``no_margin`` judges what such a direction leaves.

    A w that is not strictly positive drops the columns at or below its
    floor and 1 is split again on the rest, in rounds, until a w is
    strictly positive (the kernel vector, 0 on the dropped columns), a
    certificate of the rest appears (which settles nothing for B) or no
    column is left.  Its one caller, ``_hull``, checks every answer."""
    if B.shape[0] == 0:
        return None, None
    y, w, floor = _split(B)
    cols = np.arange(B.shape[1])
    while y is None and float(w.min()) <= floor and (w > floor).any():
        cols = cols[w > floor]
        y, w, floor = _split(B[:, cols])
        if y is not None:
            return None, None
    if y is not None:
        return y, None
    kernel = np.zeros(B.shape[1])
    kernel[cols] = w
    if float(w.min()) <= floor or not no_margin(B, kernel):
        return None, None
    return None, kernel


def no_margin(P, w):
    """True when ||P w|| <= ``ZERO_TOL`` sum(w) for weights w >= 0 of the
    unit columns P: by Cauchy-Schwarz no unit y has P^T y > ``ZERO_TOL``."""
    v = P @ w
    return float(np.sqrt(v @ v)) <= ZERO_TOL * float(w.sum())


def kernel_identity(P, w):
    """True when P w vanishes relative to the largest row sum of its terms
    |P_ji| w_i to within ``RESIDUAL_TOL``, the same at every scale of w."""
    scale = float((np.abs(P) @ w).max(initial=0.0))
    return float(np.abs(P @ w).max(initial=0.0)) <= RESIDUAL_TOL * scale


def _affine_weights(P, corral, H=None):
    """The weights v, sum 1, of the nearest point P_S v of the affine hull
    of the corral S: v = u / sum(u) for the u that minimizes
    ||P_S u||^2 + (1 - sum(u))^2, so H_SS u = 1 with H = P^T P + 1 1^T.
    Without H, least squares on [P_S; 1^T] finds u without squaring the
    condition of the corral."""
    if H is not None:
        u = np.linalg.solve(H[np.ix_(corral, corral)], np.ones(corral.size))
    else:
        M = np.vstack([P[:, corral], np.ones(corral.size)])
        u = np.linalg.lstsq(M, np.eye(M.shape[0])[-1], rcond=None)[0]
    return u / u.sum()


def _minor_cycles(P, corral, w, H=None):
    """Wolfe's minor cycles: while the affine weights v of the corral have
    an entry at or below ``ZERO_TOL``, w moves toward v until the first such
    entry reaches 0 (at most all the way), and that column leaves the
    corral with any other left at or below ``ZERO_TOL``."""
    while True:
        v = _affine_weights(P, corral, H)
        out = np.flatnonzero(v <= ZERO_TOL)
        if not out.size:
            return corral, v
        gap = w[out] - v[out]
        ratios = np.divide(w[out], gap, out=np.zeros(out.size), where=gap > 0.0)
        first = int(ratios.argmin())
        w = w + min(float(ratios[first]), 1.0) * (v - w)
        keep = w > ZERO_TOL
        keep[out[first]] = False
        corral, w = corral[keep], w[keep]


def nearest_point(P):
    """Wolfe's minimum-norm point x of the convex hull of the columns of P
    (*Finding the nearest point in a polytope*, Math. Prog. 1976), as (x, w)
    with weights w >= 0, sum 1, P w = x.

    A corral of affinely independent columns, at most k + 1 in R^k, holds
    x, the nearest point of their affine hull.  At the nearest point of the
    hull P_j^T x >= ||x||^2 for every column j, so each major cycle adds
    the column of least P_j^T x, and the minor cycles (``_minor_cycles``)
    find the new corral.  A certificate needs only a separating x, so the
    loop stops once every P_j^T x exceeds ``ZERO_TOL`` ||x||; with no
    iteration cap, it also stops when ||x|| is at most ``ZERO_TOL``, when
    the column is in the corral or the corral is full, or when ||x||^2 no
    longer decreases.  A witness's weights are then found once more by
    least squares, so that a weight that is 0 does not stay as noise."""
    H = P.T @ P + 1.0
    corral = np.zeros(1, dtype=int)
    w = np.ones(1)
    x = P[:, 0]
    best = np.inf
    while True:
        xx = float(x @ x)
        if xx <= ZERO_TOL ** 2 or not xx < best:
            break
        best = xx
        px = x @ P
        j = int(px.argmin())
        if px[j] > ZERO_TOL * np.sqrt(xx) or j in corral or corral.size > P.shape[0]:
            break
        try:
            corral, w = _minor_cycles(P, np.append(corral, j), np.append(w, 0.0), H)
        except np.linalg.LinAlgError:
            break  # an affinely dependent corral: x is as near as it gets
        x = P[:, corral] @ w
    if w.size > 1 and kernel_identity(P[:, corral], w):
        corral, w = _minor_cycles(P, corral, w)
        x = P[:, corral] @ w
    weights = np.zeros(P.shape[1])
    weights[corral] = w
    return x, weights


def _facet_point(P, w):
    """The nearest point of the affine hull of the support S of Wolfe's
    weights w as the part of a column of S off the span of the differences
    P_s - P_s0.  P w carries the rounding of the weights in every entry,
    which turns the direction of a short point; this part is exact when S
    spans a facet, and a tiny exact entry of it can be what separates."""
    S = np.flatnonzero(w > 0.0)
    U, s, _ = np.linalg.svd(P[:, S[1:]] - P[:, S[:1]])
    Z = U[:, rank_of(s):]
    return Z @ (Z.T @ P[:, S[0]])


def _clears(P, y):
    """True when every P_j^T y exceeds ``ZERO_TOL`` ||y||."""
    return float((y @ P).min()) > ZERO_TOL * float(np.linalg.norm(y))


def _hull(P):
    """The answer to the hull question of the unit columns P, as
    (certificate, witness): that of the split of 1 with rounds
    (``split_of_one``) when it answers, else from Wolfe's point x = P w
    (``nearest_point``), when ||x|| exceeds ``ZERO_TOL``, the first of x,
    its ``_facet_point`` y and y with entries at most ``ZERO_TOL`` set to 0
    that ``_clears``, each computed only when the one before fails; then
    the witness w when it passes the kernel identity, the certificate x
    when P^T x > 0, or (None, None).  So a one-signed row of entries above
    ``ZERO_TOL`` answers "none" however small they are.  The exact y comes
    before the zeroed one, which clears where y's tiny entries are rounding
    noise instead: relative to max|y| the two kinds overlap, so no one
    threshold tells them apart."""
    y, w = split_of_one(P)
    if y is not None or w is not None:
        return y, w
    x, w = nearest_point(P)
    if float(np.linalg.norm(x)) > ZERO_TOL:
        if _clears(P, x):
            return x, None
        y = _facet_point(P, w)
        if not _clears(P, y):
            y[np.abs(y) <= ZERO_TOL] = 0.0
        if _clears(P, y):
            return y, None
    if kernel_identity(P, w):
        return None, w
    return (x, None) if float((x @ P).min()) > 0.0 else (None, None)


def _support_rounds(P, w):
    """A kernel vector of largest support from a kernel vector w >= 0 of
    the columns P (Goldman-Tucker, 1956).

    Any y with P^T y >= 0 is orthogonal to the columns of the support S of
    w.  So the other columns are written in an orthonormal basis Z of
    span(P_S)^perp, C = Z^T P_T, and their hull question is asked again
    (``_hull``, on C's unit columns).  A certificate y' there makes Z y' a
    y with P_S^T y = 0 and P_j^T y > 0 off S, which proves those entries 0
    in every kernel vector c >= 0.  A witness c' there extends S: with
    P_S u the part of P_T c' in the span, w + s (-u, c') is a kernel vector
    for the s that keeps its least entry on the new support largest.  A
    column of C at most ``RANK_TOL`` times the largest singular value of
    P_S lies in the span and extends S alone.  A question too near the
    boundary for either check, or an extension that fails the kernel
    identity, ends the rounds: the rest stays 0.  A witness of full support
    is returned as it is; any other is normalized to sum 1 first, and so is
    each widened one."""
    if (w > 0.0).all():
        return w
    w = w / w.sum()
    while not (S := w > 0.0).all():
        U, s, Vt = np.linalg.svd(P[:, S])
        r = rank_of(s)
        rest = P[:, ~S]
        C = U[:, r:].T @ rest
        norms = np.sqrt((C * C).sum(axis=0))
        inside = norms <= RANK_TOL * s.max(initial=0.0)
        if inside.any():
            c = inside / float(inside.sum())
        else:
            _, c = _hull(C / norms)
            if c is None:
                return w
            c = c / norms / float((c / norms).sum())
        u = Vt[:r].T @ ((U[:, :r].T @ (rest @ c)) / s[:r])
        a = float(c[c > 0.0].min())
        climb = a + u > 0.0
        step = float((w[S][climb] / (a + u[climb])).min(initial=1.0))
        wider = w.copy()
        wider[S] -= step * u
        wider[~S] = step * c
        if not kernel_identity(P, wider):
            return w
        w = wider / wider.sum()
    return w


def solve_feasibility(p: FeasibilityProblem):
    """Answer the hull question of A for b = 0: some x >= 0, x != 0 with
    A x = 0, or else a y with y.A_j > 0 for every column (Gordan), as
    (y, None) or (None, w).

    A must have unit columns (a zero column stays 0), and the question is
    asked of them as they are (``_hull``).  Its callers divide each column
    of their matrix by its ``column_norms`` once: a positive column scale
    keeps the sign of every y.A_j and the support of every kernel vector,
    and the kernel vector of the matrix is w_j over the norm of its column
    (``scalability._weights``).  With ``require_strict`` a witness is
    carried to one of largest support (``_support_rounds``).  The witness
    is weights w of A's columns, checked by the kernel identity: they sum
    to 1, except a strict witness of full support, which is ``_hull``'s own
    and whose sum is any positive number.  The certificate y has
    A^T y > 0.  A nonzero b is not supported."""
    P = np.asarray(p.A, dtype=float)
    b = np.asarray(p.b, dtype=float).ravel()
    _check_finite(P)
    if P.ndim != 2 or P.shape[0] != b.size:
        raise DimensionMismatchError(f"A has shape {P.shape}, b has length {b.size}")
    if b.any():
        raise ValueError("only the homogeneous problem A x = 0 is solved")
    y, w = _hull(P)
    if y is not None:
        return y, None
    if w is None:
        raise InternalNumericError("nearest point passes neither the kernel identity "
                                   "nor the hull sign test")
    w = _support_rounds(P, w) if p.require_strict else w / w.sum()
    if not kernel_identity(P, w):
        raise InternalNumericError("hull witness fails the kernel identity")
    return None, w
