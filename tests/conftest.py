import numpy as np
import pytest

from framescale import make_frame


def random_unit_frame(rng, n, m):
    """Random unit-norm spanning frame of m vectors in R^n."""
    while True:
        V = rng.standard_normal((m, n))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        if np.linalg.matrix_rank(V) == n:
            return make_frame(V)


def random_scalable_frame(rng, n, m):
    """Frame with a known positive scaling: start from a random Parseval
    frame (orthonormal columns of a random orthogonal matrix, projected) and
    divide each vector by a random positive d_i, so scaling by d recovers
    the Parseval frame."""
    while True:
        Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        P = Q[:, :n].T  # n x m with orthonormal rows: Parseval synthesis
        if np.linalg.matrix_rank(P) == n and np.abs(P).min() > 1e-6:
            break
    d = rng.uniform(0.5, 2.0, size=m)
    X = P / d
    return make_frame(X.T), d


def random_orthogonal(rng, n):
    """Haar-random orthogonal n x n matrix."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def rescaled_harmonic_frame(rng, n, m):
    """Strictly scalable frame: the real harmonic tight frame of m vectors in
    R^n, rotated by a random orthogonal map, with each vector multiplied by a
    random signed factor d_i of size in [0.5, 2].  Weights 1/d_i^2 make it
    tight again."""
    j = np.arange(m)
    rows = []
    for k in range(1, n // 2 + 1):
        rows += [np.cos(2 * np.pi * k * j / m), np.sin(2 * np.pi * k * j / m)]
    if n % 2:
        rows.append(np.full(m, np.sqrt(0.5)))
    d = rng.uniform(0.5, 2.0, size=m) * rng.choice([-1.0, 1.0], size=m)
    X = random_orthogonal(rng, n) @ np.array(rows) * d
    return make_frame(X.T)


def two_block_frame(rng, n, m):
    """Scalable but not strictly scalable: scalable frames on two
    complementary coordinate blocks plus one unit vector touching every
    coordinate.  Its cross terms between the blocks cannot be cancelled, so
    every scaling gives it weight 0."""
    n1 = (n + 1) // 2
    m1 = n1 + (m - 1 - n) // 2
    V = np.zeros((m, n))
    V[:m1, :n1] = random_scalable_frame(rng, n1, m1)[0].synthesis.T
    V[m1:m - 1, n1:] = random_scalable_frame(rng, n - n1, m - 1 - m1)[0].synthesis.T
    extra = rng.standard_normal(n)
    while np.abs(extra).min() < 0.1:
        extra = rng.standard_normal(n)
    V[-1] = extra / np.linalg.norm(extra)
    return make_frame(V @ random_orthogonal(rng, n).T)


def angles_frame(*angles):
    """Unit-norm frame in R^2 from a list of angles."""
    return make_frame([[np.cos(t), np.sin(t)] for t in angles])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
