"""Seeded frame corpus for the benchmark (numpy only).

Every frame is built from ``numpy.random.default_rng(seed)`` and written in
framescale's plain-text document format with 17 significant digits, so the
same seed gives byte-identical files.  The families follow the constructions
of ``tests/conftest.py`` and ``framescale generate``; each carries the label
that holds by construction (``None`` where only the oracle can tell).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# labels that hold by construction
NOT_SCALABLE = "not_scalable"
SCALABLE = "scalable"
STRICTLY_SCALABLE = "strictly_scalable"

RANDOM_FAMILIES = ("not-strict", "strict", "random-unit", "not-scalable", "scalable")


@dataclass(frozen=True)
class FrameSpec:
    """One corpus entry: the document text plus what is known about it."""

    fid: str
    family: str
    n: int
    m: int
    text: str
    label: str | None = None       # primal verdict known by construction
    dual_label: bool | None = None  # canonical-dual scalability, if known


def reduced_size(n):
    """Rows of the reduced diagram matrix, (n-1)(n+2)/2."""
    return (n - 1) * (n + 2) // 2


def format_document(vectors, name):
    """Frame document with one vector per line at 17 significant digits."""
    m, n = vectors.shape
    lines = [f"n {n}", f"m {m}", f"name {name}"]
    lines += [" ".join("%.17g" % float(v) for v in row) for row in vectors]
    return "\n".join(lines) + "\n"


def _spanning(V):
    return np.linalg.matrix_rank(V) == V.shape[1]


def random_unit(rng, n, m):
    """``framescale generate random-unit``: normalised Gaussian vectors."""
    while True:
        V = rng.standard_normal((m, n))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        if _spanning(V):
            return V


def _parseval_over_d(rng, n, m):
    """``tests/conftest.py``: rows of a Parseval frame divided by d_i in
    [0.5, 2], so the weights c_i = d_i^2 make it tight again."""
    while True:
        Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        P = Q[:, :n].T
        if np.linalg.matrix_rank(P) == n and np.abs(P).min() > 1e-6:
            break
    return (P / rng.uniform(0.5, 2.0, size=m)).T


def _orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def strict(rng, n, m):
    """Real harmonic frame (tight for every m > n), turned by a random
    orthogonal map, each vector rescaled by a random signed factor in
    [0.5, 2]: strictly scalable with weights 1/factor^2."""
    j = np.arange(m)
    rows = []
    for k in range(1, n // 2 + 1):
        rows += [np.cos(2 * np.pi * k * j / m), np.sin(2 * np.pi * k * j / m)]
    if n % 2:
        rows.append(np.full(m, np.sqrt(0.5)))
    X = _orthogonal(rng, n) @ np.array(rows)
    scale = rng.uniform(0.5, 2.0, size=m) * rng.choice([-1.0, 1.0], size=m)
    return (X * scale).T


def not_strict(rng, n, m):
    """Scalable but not strictly: scalable frames of two complementary
    coordinate blocks plus one vector with weight in both blocks.  Its
    off-block term cannot be cancelled, so every scaling gives it weight 0."""
    n1 = (n + 1) // 2
    n2 = n - n1
    m1 = n1 + (m - 1 - n) // 2
    m2 = m - 1 - m1
    V = np.zeros((m, n))
    V[:m1, :n1] = _parseval_over_d(rng, n1, m1)
    V[m1:m - 1, n1:] = _parseval_over_d(rng, n2, m2)
    extra = rng.standard_normal(n)
    while np.abs(extra).min() < 0.1:
        extra = rng.standard_normal(n)
    V[-1] = extra / np.linalg.norm(extra)
    return V @ _orthogonal(rng, n).T


def not_scalable(rng, n, m):
    """Planted certificate: a random traceless symmetric Y and vectors with
    x^T Y x >= 0.05 ||Y|| ||x||^2.  The diagram vectors then all lie on the
    positive side of the functional Y, so no nonnegative scaling exists."""
    while True:
        lam = rng.standard_normal(n)
        lam -= lam.mean()
        U = _orthogonal(rng, n)
        Y = (U * lam) @ U.T
        margin = 0.05 * float(np.abs(lam).max())
        rows = []
        while len(rows) < m:
            x = rng.standard_normal(n)
            x /= np.linalg.norm(x)
            if x @ Y @ x >= margin:
                rows.append(x * rng.uniform(0.5, 2.0))
        V = np.array(rows)
        if _spanning(V):
            return V


def sylvester_hadamard(n):
    H = np.array([[1.0]])
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H


def hadamard_doubled(n):
    """``framescale generate hadamard-doubled``: the columns of a Sylvester
    Hadamard matrix with the last row doubled (W is empty)."""
    H = sylvester_hadamard(n)
    H[-1] *= 2.0
    return H.T.copy()


def p1(n):
    """``framescale generate p1``: a scalable frame whose canonical dual is
    not scalable (unitary Hadamard rows plus copies with the last two
    coordinates multiplied by 2 and 3)."""
    U = sylvester_hadamard(n) / np.sqrt(n)
    w = np.ones(n)
    w[-2:] = (2.0, 3.0)
    return np.vstack([U, U * w])


_BUILDERS = {
    "random-unit": (random_unit, None),
    "scalable": (_parseval_over_d, STRICTLY_SCALABLE),
    "strict": (strict, STRICTLY_SCALABLE),
    "not-strict": (not_strict, SCALABLE),
    "not-scalable": (not_scalable, NOT_SCALABLE),
}


def make_spec(rng, family, n, m, index):
    fid = f"{index:03d}-{family}-n{n}-m{m}"
    if family == "hadamard-doubled":
        V, label, dual = hadamard_doubled(n), NOT_SCALABLE, None
    elif family == "p1":
        V, label, dual = p1(n), None, False
    else:
        build, label = _BUILDERS[family]
        V, dual = build(rng, n, m), None
    return FrameSpec(fid=fid, family=family, n=n, m=V.shape[0],
                     text=format_document(V, fid), label=label, dual_label=dual)


# -- workloads ---------------------------------------------------------------

# n -> m of the analyze grid: m = n+1 and 2n, a few sizes around the corank-1
# and corank-2 sizes d+1 and d+2, and m = 80 where a frame costs about a
# second (n = 2, and n = 8, whose m = 80 frames end in numeric errors).
# n = 10 stops at its corank sizes: beyond them each frame takes seconds.
# The frame times cluster by n; n = 6 has the most sizes so that the median
# frame falls inside its cluster, not in the gap next to it.
GRID = {
    2: (3, 4, 8, 80),
    3: (4, 6, 7),
    4: (5, 8, 10, 11, 16),
    6: (7, 9, 12, 16, 21, 22, 24),
    8: (9, 16, 32, 36, 37, 80),
    10: (11, 20, 55, 56),
}


def grid_cells():
    """(n, m, family) cells of the analyze grid, two draws of each.  The
    random families take turns over the sizes, so each meets most n and both
    ends of m.  P1 and hadamard-doubled, which have no randomness, exist only
    for Sylvester orders n = 2, 4, 8."""
    cells = []
    turn = 0
    for n, sizes in GRID.items():
        for m in sizes:
            cells += [(n, m, RANDOM_FAMILIES[turn % len(RANDOM_FAMILIES)])] * 2
            turn += 1
    for n in (2, 4, 8):
        cells += [(n, n, "hadamard-doubled"), (n, 2 * n, "p1")]
    return cells


def corank_cells():
    """Corank 1 and 2 sizes m = d+1, d+2 for n = 2..10, two draws of each
    pick (one of the 4 s codim-2 frame at n = 10), 17 scalable and 16 not.
    Fourteen frames are faster than the six at n = 6 and thirteen slower, so
    the median lies inside the n = 6 cluster and the tail inside the n = 7
    one, not in the gaps between sizes."""
    sc, ns = "scalable", "not-scalable"
    picks = [(2, 1, ns), (2, 2, sc), (3, 1, sc), (3, 2, ns), (4, 1, ns), (4, 2, sc),
             (5, 1, sc), (6, 1, sc), (6, 1, ns), (6, 2, sc), (7, 1, sc), (7, 1, ns),
             (7, 2, ns), (8, 1, ns), (8, 2, sc), (9, 1, ns), (10, 2, sc)]
    return [(n, reduced_size(n) + k, fam) for n, k, fam in picks
            for _ in range(1 if n == 10 else 2)]


def large_cells():
    """The ROADMAP target envelope n in {4, 6, 8, 10}, m in 100..200.  The
    not-scalable frames are answered; the scalable one reaches the strict LP,
    whose tableau has k+m+2 rows, and hits its iteration cap at the seed.
    Each cell kept the same outcome on every seed tried, so the median (the
    n = 8 and n = 10 frames) does not jump between outcomes."""
    return [(4, 100, "not-scalable"), (6, 100, "not-scalable"), (8, 100, "not-scalable"),
            (10, 100, "not-scalable"), (6, 200, "not-scalable"), (6, 120, "scalable")]


WORKLOAD_CELLS = {
    "analyze-grid": grid_cells,
    "scale-corank": corank_cells,
    "analyze-large": large_cells,
}


def build_corpus(workload, seed):
    """The workload's frames for ``seed``, in a fixed order."""
    rng = np.random.default_rng([seed, sorted(WORKLOAD_CELLS).index(workload)])
    return [make_spec(rng, fam, n, m, i)
            for i, (n, m, fam) in enumerate(WORKLOAD_CELLS[workload]())]
