"""Formulations of the paper and of linear programming that only the tests
use: reference formulas that the library's routes are held to, and a direct
handle on the simplex kernel."""

import numpy as np

from framescale import numerics
from framescale.scalability import cofactor_vector


def linear_program(A, b, strict=False):
    """Decide A x = b, x >= 0 with the kernel of
    ``numerics.solve_feasibility``, and with ``strict`` maximize the minimum
    entry of x in its phase 2.  On infeasibility the returned ``dual`` y
    satisfies y.A <= 0 and y.b > 0 (Farkas)."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    return numerics._linear_program(A, b, strict)


def cofactor_pencil(R, w1, w2):
    """Cofactor vectors xi_1, xi_2 of the matrices (E; w_k; R) so that the
    parametric cofactors are A(t) = cos(t) xi_1 + sin(t) xi_2."""
    R = np.asarray(R, dtype=float)
    xi1 = cofactor_vector(np.vstack([np.asarray(w1, dtype=float), R]))
    xi2 = cofactor_vector(np.vstack([np.asarray(w2, dtype=float), R]))
    return xi1, xi2
