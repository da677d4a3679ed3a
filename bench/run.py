"""framescale benchmark: one workload, one seed, one run.

A single-process closed loop with one client: each frame of the workload's
seeded corpus goes through ``framescale <command>`` in process (``cli.main``),
the next one only after the previous answer, in whole passes over the corpus
until about ``--seconds`` have been measured.  Every answer is checked by the
independent oracle in ``oracle.py``.  Times are scaled to one host speed
(``harness.HostSpeed``).

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
each pass runs once untraced and once with spans at the module boundaries
(``tracing.py``) and reports the per-layer metrics.  The last line of standard
output is the JSON result; the lines before it name every metric with its
unit and sample count.  Details go to ``bench/_work/``.

Usage: python3 bench/run.py --workload analyze-grid --seed 1 --seconds 15 --trace 0
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402

harness.pin_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

SETUP_REPEATS = 5
COLD_RUNS = 10
TAIL_BEYOND = 10      # frames the tail percentile must leave above it
SUBPROCESS_TIMEOUT = 120

# name: unit, in the order of BENCHMARK.json
END_TO_END = {"setup_s": "s", "frame_p50_ms": "ms", "frame_tail_ms": "ms",
              "frames_per_s": "1/s", "ok_rate": "ratio", "cold_cli_ms": "ms",
              "peak_rss_mb": "MB"}


def per_layer_units():
    import tracing

    units = {}
    for name in tracing.span_names():
        units.update({f"{name}.busy_ms": "ms", f"{name}.self_ms": "ms",
                      f"{name}.calls": "count", f"{name}.errors": "count"})
    units.update({f"layer.{layer}.self_ms": "ms" for layer in tracing.LAYERS})
    units.update({"scalability.sign_reject_ratio": "ratio",
                  "numerics.strict_lp_rows": "count",
                  "numerics.strict_lp_cols": "count",
                  "trace_overhead": "ratio"})
    return units


# -- answers ----------------------------------------------------------------

class Checker:
    """Oracle verdicts per frame, and the problems of each distinct answer of
    ``analyze --json`` or ``scale``."""

    def __init__(self, specs):
        import oracle

        self.oracle = oracle
        self.facts = {s.fid: oracle.decide(s.text) for s in specs}
        self._seen = {}

    def problems(self, fid, command, outcome, digest):
        """[] when the answer is accepted; the cache keyed by the output's
        digest is sound because the same bytes get the same verdict."""
        if not outcome.answered:
            return [f"exit {outcome.code}: {outcome.err.strip()[-160:]}"]
        key = (fid, command, outcome.code, digest)
        if key not in self._seen:
            facts = self.facts[fid]
            if command == "analyze":
                try:
                    rep = json.loads(outcome.out)
                except ValueError:
                    self._seen[key] = ["report is not JSON"]
                    return self._seen[key]
                self._seen[key] = self.oracle.check_report(facts, rep)
            else:
                self._seen[key] = self.oracle.check_scale_output(facts, outcome.code, outcome.out)
        return self._seen[key]

    @staticmethod
    def verdict(command, outcome):
        """(verdict, method) as the answer states them."""
        if not outcome.answered:
            return None, None
        if command == "analyze":
            try:
                s = json.loads(outcome.out)["scalability"]
            except (ValueError, KeyError):
                return None, None
            return s["verdict"], s["method"]
        return ("scalable" if outcome.code == 0 else "not_scalable"), None


class Tally:
    """Samples and failures of one kind of call over whole passes."""

    def __init__(self):
        self.seconds = defaultdict(list)   # fid -> one wall time per pass
        self.scaled = defaultdict(list)    # the same at the reference host speed
        self.digests = defaultdict(set)
        self.records = {}
        self.attempted = 0
        self.errors = 0      # no answer: bad exit code or escaped exception
        self.wrong = 0       # an answer the oracle rejects, or changing bytes

    def add(self, spec, argv, outcome, checker, factor=1.0):
        """One answer of ``framescale <argv>`` for ``spec``."""
        command = argv[0]
        key = (spec.fid, command)
        self.attempted += 1
        self.seconds[key].append(outcome.seconds)
        self.scaled[key].append(outcome.seconds * factor)
        d = harness.digest(outcome.out)
        problems = list(checker.problems(spec.fid, command, outcome, d))
        self.digests[key].add(d)
        if len(self.digests[key]) > 1:
            problems.append("output bytes differ between passes")
        if problems:
            if outcome.answered:
                self.wrong += 1
            else:
                self.errors += 1
        verdict, method = checker.verdict(command, outcome)
        self.records[key] = {
            "fid": spec.fid, "command": command, "family": spec.family, "n": spec.n, "m": spec.m,
            "exit": outcome.code, "verdict": verdict, "method": method,
            "digest": d, "problems": problems,
        }

    @property
    def failed(self):
        return self.errors + self.wrong

    def frame_times(self, scaled=False):
        """Per frame, the median of its passes, in seconds."""
        samples = self.scaled if scaled else self.seconds
        return {fid: statistics.median(v) for fid, v in samples.items()}


def run_pass(cli, workload, specs, paths, checker, tally, host):
    argv = harness.COMMANDS[workload]
    for spec in specs:
        outcome, factor = host.around(lambda: harness.call_cli(cli, argv + [paths[spec.fid]]))
        tally.add(spec, argv, outcome, checker, factor)


def corpus_digest(tally, workload):
    """Digest over the digests of the workload command's answers, in corpus
    order: equal between runs whose outputs are byte-identical."""
    command = harness.COMMANDS[workload][0]
    return harness.digest("".join(f"{fid}:{rec['digest']}\n"
                                  for (fid, cmd), rec in tally.records.items()
                                  if cmd == command))


def tail(values):
    """(value, label): the highest nearest-rank percentile with at least
    TAIL_BEYOND values above it; the maximum when no percentile above the
    median has that many."""
    v = sorted(values)
    if len(v) < 2 * TAIL_BEYOND:
        return v[-1], f"max of {len(v)}"
    rank = len(v) - TAIL_BEYOND
    return v[rank - 1], f"p{100.0 * rank / len(v):.0f} ({TAIL_BEYOND} of {len(v)} above)"


# -- set-up and cold start ------------------------------------------------------

def timed_setup(workload, seed):
    """Seconds of one set-up in a fresh interpreter."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    proc = subprocess.run([sys.executable, script, workload, str(seed)],
                          capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
    if proc.returncode != 0:
        raise SystemExit(f"set-up failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.split()[-1])


def cold_cli(workload, path):
    """(wall seconds, stdout) of ``python -m framescale`` as a subprocess."""
    env = dict(os.environ, PYTHONPATH=str(harness.SRC))
    argv = [sys.executable, "-m", "framescale", *harness.COMMANDS[workload], path]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=SUBPROCESS_TIMEOUT)
    return time.perf_counter() - t0, proc.stdout


# -- the two kinds of run -------------------------------------------------------

def end_to_end(workload, seed, seconds, specs=None, setup_repeats=SETUP_REPEATS,
               cold_runs=COLD_RUNS):
    host = harness.HostSpeed()
    setup = []
    for _ in range(setup_repeats):
        wall, factor = host.around(lambda: timed_setup(workload, seed))
        setup.append(wall * factor)
    cli, specs, paths, warm = harness.set_up(workload, seed, specs)
    checker = Checker(specs)
    first = harness.smallest(specs)
    cold, cold_same = [], True
    for _ in range(cold_runs):
        (wall, out), factor = host.around(lambda: cold_cli(workload, paths[first.fid]))
        cold.append(wall * factor)
        cold_same = cold_same and out == warm.out

    tally = Tally()
    passes, measured = 0, 0.0
    while True:
        t_pass = time.perf_counter()
        run_pass(cli, workload, specs, paths, checker, tally, host)
        last = time.perf_counter() - t_pass
        passes += 1
        measured += last
        if measured + last / 2 >= seconds:
            break

    per_frame = tally.frame_times(scaled=True)
    times = list(per_frame.values())
    good = [key for key, rec in tally.records.items() if not rec["problems"]]
    ok = tally.attempted - tally.failed
    tail_s, tail_label = tail(times)
    samples = (f"{len(times)} frames, each the median of {passes} passes, "
               f"at the reference host speed")
    values = {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} set-ups"),
        "frame_p50_ms": (1e3 * statistics.median(times), f"median of {samples}"),
        "frame_tail_ms": (1e3 * tail_s, f"{tail_label} of {samples}"),
        "frames_per_s": (len(good) / sum(times),
                         f"{len(good)} correctly answered frames in a pass of {sum(times):.3f} s"),
        "ok_rate": (ok / tally.attempted, f"{ok} of {tally.attempted} answers"),
        "cold_cli_ms": (1e3 * statistics.median(cold),
                        f"median of {len(cold)} runs on {first.fid}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "ru_maxrss of the benchmark process"),
    }
    raw = tally.frame_times()
    extra = {
        "fail_rate": f"{tally.failed / tally.attempted:.6g} ({tally.errors} errors, "
                     f"{tally.wrong} rejected answers, of {tally.attempted})",
        "corpus_digest": corpus_digest(tally, workload),
        "wall_frame_p50_ms": 1e3 * statistics.median(raw.values()),
        "host_speed": f"reference task {1e3 * host.probe():.3f} ms now, "
                      f"{host.REFERENCE_MS} ms at the reference speed",
        "measured_seconds": measured,
    }
    correct = tally.wrong == 0 and cold_same
    if not cold_same:
        extra["cold_cli"] = "subprocess output differs from the in-process output"
    metrics = {k: (v, END_TO_END[k], note) for k, (v, note) in values.items()}
    return correct, tally, metrics, extra, None


def traced(workload, seed, seconds, specs=None):
    """The workload's frames through both pipelines, ``analyze --json`` and
    ``scale --method auto``, traced, so every traced function meets every
    workload.  Calls of the workload's own command also run untraced just
    before, so both meet the host in the same state, for the overhead and the
    byte comparison; whole passes until about ``seconds``."""
    import tracing

    cli, specs, paths, _ = harness.set_up(workload, seed, specs)
    checker = Checker(specs)
    pipelines = (harness.COMMANDS["analyze-grid"], harness.COMMANDS["scale-corank"])
    plain, traced_tally = Tally(), Tally()
    tracer = tracing.Tracer()
    passes, measured = 0, 0.0
    while True:
        t_pass = time.perf_counter()
        for spec in specs:
            for argv in pipelines:
                call = argv + [paths[spec.fid]]
                if argv == harness.COMMANDS[workload]:
                    plain.add(spec, argv, harness.call_cli(cli, call), checker)
                tracer.frame = (spec.fid, spec.n, spec.m)
                tracer.install()
                try:
                    outcome = harness.call_cli(cli, call)
                finally:
                    tracer.uninstall()
                traced_tally.add(spec, argv, outcome, checker)
        last = time.perf_counter() - t_pass
        passes += 1
        measured += last
        if measured + last / 2 >= seconds:
            break

    mismatched = [key for key, rec in plain.records.items()
                  if rec["digest"] != traced_tally.records[key]["digest"]]
    for key in mismatched:
        traced_tally.records[key]["problems"].append("traced output differs from untraced")
    traced_tally.wrong += len(mismatched)

    units = per_layer_units()
    values = {}
    layer_self = defaultdict(float)
    for name, (busy, self_s, calls, errors) in tracer.aggregate().items():
        values[f"{name}.busy_ms"] = 1e3 * busy / passes
        values[f"{name}.self_ms"] = 1e3 * self_s / passes
        values[f"{name}.calls"] = calls / passes
        values[f"{name}.errors"] = errors / passes
        layer_self[name.split(".")[0]] += 1e3 * self_s / passes
    for layer in tracing.LAYERS:
        values[f"layer.{layer}.self_ms"] = layer_self[layer]
    tried = values["scalability.quick_sign_reject.calls"] * passes
    values["scalability.sign_reject_ratio"] = tracer.sign_rejects / tried if tried else 0.0
    sizes = tracer.strict_sizes
    values["numerics.strict_lp_rows"] = statistics.mean(r for r, _ in sizes) if sizes else 0.0
    values["numerics.strict_lp_cols"] = statistics.mean(c for _, c in sizes) if sizes else 0.0
    t_plain = sum(plain.frame_times().values())
    t_traced = sum(v for k, v in traced_tally.frame_times().items() if k in plain.records)
    values["trace_overhead"] = t_traced / t_plain

    note = f"per pass, {passes} passes of {len(specs)} frames through both pipelines"
    metrics = {k: (values[k], units[k], note) for k in units}
    extra = {
        "fail_rate": f"{traced_tally.failed / traced_tally.attempted:.6g} "
                     f"({traced_tally.errors} errors, {traced_tally.wrong} rejected answers)",
        "corpus_digest": corpus_digest(traced_tally, workload),
        "untraced_corpus_digest": corpus_digest(plain, workload),
        "traced_seconds": t_traced, "untraced_seconds": t_plain,
        "measured_seconds": measured,
    }
    return traced_tally.wrong == 0, traced_tally, metrics, extra, tracer


# -- output ---------------------------------------------------------------

def report(args, correct, tally, metrics, extra, tracer, out=sys.stdout):
    harness.WORK.mkdir(parents=True, exist_ok=True)
    stem = harness.WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    host = harness.host_record()
    with open(f"{stem}.frames.jsonl", "w") as fh:
        wall, scaled = tally.frame_times(), tally.frame_times(scaled=True)
        for key, rec in tally.records.items():
            fh.write(json.dumps(dict(rec, ms=1e3 * wall[key], scaled_ms=1e3 * scaled[key])) + "\n")
    if tracer is not None:
        tracer.write(f"{stem}.spans.jsonl")
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "host": host, "correct": correct, "attempted": tally.attempted,
              "failed": tally.failed, "extra": extra,
              "metrics": {k: {"value": v, "unit": u, "samples": note}
                          for k, (v, u, note) in metrics.items()}}
    with open(f"{stem}.json", "w") as fh:
        json.dump(detail, fh, indent=1)

    print(f"host {json.dumps(host)}", file=out)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}", file=out)
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit:<6} {note}", file=out)
    for key, value in extra.items():
        print(f"  {key:<48} {value}", file=out)
    for rec in tally.records.values():
        if rec["problems"]:
            print(f"  failed {rec['fid']}: {'; '.join(rec['problems'])[:200]}", file=out)
    print(f"  details {stem}.json", file=out)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }), file=out)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(harness.COMMANDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    harness.import_framescale()  # fail before any work in an incomplete checkout
    run = traced if args.trace else end_to_end
    report(args, *run(args.workload, args.seed, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
