"""Shared pieces of the benchmark: paths, pinned threads, the workloads'
commands, corpus files, host-speed scaling and one in-process CLI call.

Import this module before numpy and call ``pin_threads()`` first, so BLAS
starts with one thread.
"""

from __future__ import annotations

import hashlib
import io
import os
import platform
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / "_work"
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}

COMMANDS = {
    "analyze-grid": ["analyze", "--json"],
    "scale-corank": ["scale", "--method", "auto"],
    "analyze-large": ["analyze", "--json"],
}


def pin_threads():
    os.environ.update(PINNED_THREADS)


def import_framescale():
    """Import framescale from this checkout's ``src`` and nowhere else."""
    if not (SRC / "framescale" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'framescale'} not found; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from framescale import cli
    return cli


def corpus_dir(workload, seed):
    return WORK / "corpus" / f"{workload}-seed{seed}"


def write_corpus(specs, directory):
    """Write each frame document; returns {fid: path}."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for spec in specs:
        path = directory / f"{spec.fid}.frame"
        path.write_text(spec.text)
        paths[spec.fid] = str(path)
    return paths


def smallest(specs):
    return min(specs, key=lambda s: (s.n * s.m, s.fid))


def set_up(workload, seed, specs=None):
    """Import framescale, generate and write the corpus, answer its smallest
    frame once.  Returns (cli, specs, paths, outcome of that first call)."""
    cli = import_framescale()
    import corpus

    if specs is None:
        specs = corpus.build_corpus(workload, seed)
    paths = write_corpus(specs, corpus_dir(workload, seed))
    warm = call_cli(cli, COMMANDS[workload] + [paths[smallest(specs).fid]])
    return cli, specs, paths, warm


class HostSpeed:
    """A fixed reference task timed around each measurement, to scale wall
    times to one host speed.

    On a shared 2-vCPU Xeon virtual machine the CPU alternated between two
    speeds about 40% apart, each lasting 5 to 35 s, longer than a pass; no
    statistic over one run's raw times removes that.  The task mixes what
    framescale's hot paths do at the seed (Python loops of rotations on small
    numpy arrays, rank-1 tableau updates, plain interpreter work), so it
    slows with them.  A scaled time is t * REFERENCE_MS / (task time): the
    wall time the call would take on a host where the task takes
    REFERENCE_MS, its time on that machine at the faster speed.
    """

    REFERENCE_MS = 0.9

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._rot = rng.standard_normal((48, 48))
        self._tab = rng.standard_normal((60, 160))

    def _task(self):
        np = self._np
        t0 = time.perf_counter()
        M = self._rot.copy()
        for p in range(4 * 24):
            j, k = p % 47, p % 47 + 1
            x, y = M[:, j].copy(), M[:, k].copy()
            M[:, j] = 0.8 * x - 0.6 * y
            M[:, k] = 0.6 * x + 0.8 * y
        T = self._tab.copy()
        for r in range(16):
            T -= 1e-3 * np.outer(T[:, r], T[r])
        s = 0
        for i in range(8000):
            s += i
        return time.perf_counter() - t0

    def probe(self):
        """Seconds of the reference task, the fastest of three runs."""
        return min(self._task() for _ in range(3))

    def around(self, fn):
        """(fn(), factor): the factor scales wall times measured inside
        ``fn`` to the reference speed, from the task timed before and after."""
        before = self.probe()
        result = fn()
        return result, 2e-3 * self.REFERENCE_MS / (before + self.probe())


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Outcome:
    """One frame through the CLI: exit code (None when an exception escaped),
    stdout, stderr and wall seconds."""

    __slots__ = ("code", "out", "err", "seconds")

    def __init__(self, code, out, err, seconds):
        self.code, self.out, self.err, self.seconds = code, out, err, seconds

    @property
    def answered(self):
        return self.code in (0, 1)


def call_cli(cli, argv):
    """Run ``framescale <argv>`` in process, as ``python -m framescale`` would."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # an escaping exception fails this frame only
        code = None
        err.write(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    return Outcome(code, out.getvalue(), err.getvalue(), seconds)


def host_record():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {k: os.environ.get(k) for k in PINNED_THREADS},
    }
