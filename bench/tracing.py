"""Spans at the boundaries of framescale's modules.

While a ``Tracer`` is installed, each traced public function is replaced, in
every framescale module that binds it, by a wrapper that records one span:
name, start, end, parent span and frame id.  Spans stay in memory until
``write``.  Nothing under ``src/`` changes; ``uninstall`` restores the
original bindings.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# the layers are framescale's modules; these are their traced entry points
TRACED = {
    "cli": ("main", "build_report"),
    "framedoc": ("parse_frame_document",),
    "frame_core": ("make_frame", "frame_operator", "is_tight", "apply_scaling"),
    "diagram": ("reduced_diagram_matrix",),
    "scalability": ("quick_sign_reject", "decide_scalable", "cofactor_scaling",
                    "codim2_scaling", "independent_rows", "cofactor_vector"),
    "split_scaling": ("find_W_element", "find_V_element", "intersection_scalability"),
    "duals": ("canonical_dual", "canonical_dual_scalable"),
    "numerics": ("rank", "solve_feasibility"),
}
# numerics.nullspace_basis is not traced: no pipeline calls it, so its times
# would read 0 on every run.
LAYERS = tuple(TRACED)

# spans whose operand is the synthesis matrix X (of the frame or its dual)
_X_PARENTS = {"frame_core.make_frame", "frame_core.apply_scaling", "duals.canonical_dual"}


def span_names():
    """Every span name the tracer can emit, in report order."""
    names = []
    for module, funcs in TRACED.items():
        for func in funcs:
            base = f"{module}.{func}"
            if func == "rank":
                names += [f"{base}.X", f"{base}.theta", f"{base}.other"]
            elif func == "solve_feasibility":
                names += [f"{base}.plain", f"{base}.strict"]
            else:
                names.append(base)
    return names


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, frame, error]
        self._stack = []
        self._patches = []
        self.frame = None        # (fid, n, m) of the frame being traced
        self.sign_rejects = 0    # quick_sign_reject calls that found a row
        self.strict_sizes = []   # (rows, cols) of each strict LP tableau

    # -- naming ------------------------------------------------------------
    def _operand(self, M):
        """X, theta or other, for the matrix handed to rank."""
        parent = self.spans[self._stack[-1]][0] if self._stack else None
        if parent in _X_PARENTS:
            return "X"
        _, n, m = self.frame
        shape = getattr(M, "shape", None)
        return "theta" if shape == ((n - 1) * (n + 2) // 2, m) else "other"

    def _name(self, base, args, kwargs):
        if base == "numerics.rank":
            return f"{base}.{self._operand(args[0] if args else kwargs['M'])}"
        if base == "numerics.solve_feasibility":
            p = args[0] if args else kwargs["p"]
            if not p.require_strict:
                return f"{base}.plain"
            k, m = p.A.shape
            hom = not p.b.any()
            self.strict_sizes.append((k + hom + m + 1, 2 * m + 2))
            return f"{base}.strict"
        return base

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, base, fn):
        tracer = self

        def traced(*args, **kwargs):
            name = tracer._name(base, args, kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), None, parent, tracer.frame[0], False]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if base == "scalability.quick_sign_reject" and result.row_index is not None:
                tracer.sign_rejects += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        """Rebind every traced function in every loaded framescale module."""
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "framescale" or name.startswith("framescale.")]
        for module, funcs in TRACED.items():
            home = sys.modules[f"framescale.{module}"]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(f"{module}.{func}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------
    def aggregate(self):
        """{name: [busy_s, self_s, calls, errors]} over all spans."""
        child_time = defaultdict(float)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        agg = {name: [0.0, 0.0, 0, 0] for name in span_names()}
        for i, (name, t0, t1, _, _, err) in enumerate(self.spans):
            row = agg[name]
            row[0] += t1 - t0
            row[1] += t1 - t0 - child_time[i]
            row[2] += 1
            row[3] += err
        return agg

    def write(self, path):
        with open(path, "w") as fh:
            for name, t0, t1, parent, frame, err in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "frame": frame,
                                     "error": err}) + "\n")
