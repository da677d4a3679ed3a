"""Formulations of the paper and of linear programming that only the tests
use: reference formulas that the library's routes are held to, and a direct
handle on the simplex kernel."""

import numpy as np

from framescale import numerics
from framescale.scalability import cofactor_vector


def linear_program(A, b, c=None, maximize=False):
    """Solve min (or max) c.x subject to A x = b, x >= 0 with the kernel of
    ``numerics.solve_feasibility``.

    With ``c=None`` only feasibility is decided (phase 1).  On infeasibility
    the returned ``dual`` y satisfies y.A <= 0 and y.b > 0 (Farkas).  The
    kernel solves bounded LPs only: an unbounded one raises
    ``InternalNumericError``.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if c is not None:
        c = np.asarray(c, dtype=float)
        if maximize:
            c = -c
    return numerics._linear_program(A, b, c)


def cofactor_pencil(R, w1, w2):
    """Cofactor vectors xi_1, xi_2 of the matrices (E; w_k; R) so that the
    parametric cofactors are A(t) = cos(t) xi_1 + sin(t) xi_2."""
    R = np.asarray(R, dtype=float)
    xi1 = cofactor_vector(np.vstack([np.asarray(w1, dtype=float), R]))
    xi2 = cofactor_vector(np.vstack([np.asarray(w2, dtype=float), R]))
    return xi1, xi2
