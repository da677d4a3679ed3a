"""Fast self-test of the benchmark on a tiny corpus.

Checks that the oracle labels the by-construction families correctly, and
that both kinds of run emit every metric of BENCHMARK.json with its unit.

Usage: python3 bench/selftest.py   (exit 0 when every check passes)
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402

harness.pin_threads()

import io  # noqa: E402
import json  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import corpus  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

TINY = {
    "analyze-grid": [(2, 3, "not-strict"), (3, 6, "scalable"), (2, 4, "p1")],
    "scale-corank": [(2, 3, "scalable"), (3, 7, "not-scalable")],
    "analyze-large": [(3, 8, "not-scalable"), (2, 2, "hadamard-doubled")],
}


def check_labels():
    """The oracle agrees with every label that holds by construction."""
    cells = [(n, m, fam) for fam in corpus.RANDOM_FAMILIES if fam != "random-unit"
             for n, m in ((2, 3), (3, 7), (4, 12), (6, 22))]
    cells += [(n, n, "hadamard-doubled") for n in (2, 4, 8)]
    cells += [(n, 2 * n, "p1") for n in (2, 4, 8)]
    bad = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for i, (n, m, fam) in enumerate(cells):
            spec = corpus.make_spec(rng, fam, n, m, i)
            facts = oracle.decide(spec.text)
            if spec.label is not None and facts.verdict != spec.label:
                bad.append(f"{spec.fid}: oracle {facts.verdict}, built {spec.label}")
            if spec.dual_label is not None and facts.dual_scalable != spec.dual_label:
                bad.append(f"{spec.fid}: oracle dual {facts.dual_scalable}")
            if fam == "p1" and facts.verdict == oracle.NOT_SCALABLE:
                bad.append(f"{spec.fid}: P1 is scalable")
    return bad


def check_metrics(spec_file):
    """Both kinds of run emit exactly the declared metrics and units."""
    with open(spec_file) as fh:
        declared = json.load(fh)
    bad = []
    for trace, key, kind in ((0, "end_to_end", run.end_to_end), (1, "per_layer", run.traced)):
        want = {m["name"]: m["unit"] for m in declared[key]}
        for workload, cells in TINY.items():
            rng = np.random.default_rng(0)
            specs = [corpus.make_spec(rng, fam, n, m, i) for i, (n, m, fam) in enumerate(cells)]
            extra = {"setup_repeats": 1, "cold_runs": 1} if trace == 0 else {}
            result = kind(workload, 0, 0, specs=specs, **extra)
            out = io.StringIO()
            run.report(SimpleNamespace(workload=workload, seed=0, trace=trace), *result, out=out)
            last = json.loads(out.getvalue().strip().splitlines()[-1])
            if set(last) != {"correct", "attempted", "failed", "metrics"}:
                bad.append(f"{workload} trace {trace}: result keys {sorted(last)}")
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            if got != want:
                bad.append(f"{workload} trace {trace}: metrics differ from {key}: "
                           f"{sorted(set(got) ^ set(want))}")
            if not last["correct"] or last["failed"]:
                bad.append(f"{workload} trace {trace}: tiny corpus not answered correctly")
    return bad


def main():
    bad = check_labels() + check_metrics(harness.ROOT / "BENCHMARK.json")
    for line in bad:
        print("FAIL", line)
    print("selftest ok" if not bad else f"selftest: {len(bad)} failures")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
