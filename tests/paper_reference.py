"""Formulations of the paper that only the tests use: reference formulas
that the library's routes are held to."""

import numpy as np

from framescale import numerics
from framescale.scalability import cofactor_vector


def cofactor_pencil(R, w1, w2):
    """Cofactor vectors xi_1, xi_2 of the matrices (E; w_k; R) so that the
    parametric cofactors are A(t) = cos(t) xi_1 + sin(t) xi_2."""
    R = np.asarray(R, dtype=float)
    xi1 = cofactor_vector(np.vstack([np.asarray(w1, dtype=float), R]))
    xi2 = cofactor_vector(np.vstack([np.asarray(w2, dtype=float), R]))
    return xi1, xi2


def spans_by_peak(X):
    """The spanning rule on X / ||x_i|| with the norm taken in two steps:
    each column divided by its largest |entry| (1 for a zero column), then
    by the norm of the quotient, which lies in [1, sqrt(n)] and so neither
    overflows nor underflows.  X spans R^n when ``numerics.rank`` of the
    unit columns is n."""
    peak = np.abs(X).max(axis=0)
    peak[peak == 0.0] = 1.0
    X = X / peak
    norms = np.sqrt((X * X).sum(axis=0))
    return numerics.rank(X / np.maximum(norms, 1.0)) == X.shape[0]
