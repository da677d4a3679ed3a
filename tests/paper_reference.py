"""Formulations of the paper that only the tests use: reference formulas
that the library's routes are held to."""

import numpy as np

from framescale.scalability import cofactor_vector


def cofactor_pencil(R, w1, w2):
    """Cofactor vectors xi_1, xi_2 of the matrices (E; w_k; R) so that the
    parametric cofactors are A(t) = cos(t) xi_1 + sin(t) xi_2."""
    R = np.asarray(R, dtype=float)
    xi1 = cofactor_vector(np.vstack([np.asarray(w1, dtype=float), R]))
    xi2 = cofactor_vector(np.vstack([np.asarray(w2, dtype=float), R]))
    return xi1, xi2
