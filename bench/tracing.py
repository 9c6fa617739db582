"""Spans recorded from outside the program.

``Tracer.install`` replaces public functions in the ``zenoslh`` module
namespaces with wrappers that record a span per call (name, start, end,
parent span, job id) and ``uninstall`` puts the originals back.  Spans
are kept in memory and written out when the run ends.  Nothing under
``src/`` is changed: the wrappers sit in the namespaces the CLI and the
library look names up in.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
from time import perf_counter

# (module whose namespace holds the name, attribute, span name).  A layer
# is the part of the span name before the first dot.
WRAPPED = (
    ("zenoslh.cli", "load_model", "modelfile.load_model"),
    ("zenoslh.modelfile", "find_zeno_subspace", "elimination.find_zeno_subspace"),
    ("zenoslh.elimination", "kernel_basis", "operators.kernel_basis"),
    ("zenoslh.elimination", "expand_k", "elimination.expand_k"),
    ("zenoslh.elimination", "hat_operators", "elimination.hat_operators"),
    ("zenoslh.cli", "zeno_eliminate", "elimination.zeno_eliminate"),
    ("zenoslh.master", "zeno_eliminate", "elimination.zeno_eliminate"),
    ("zenoslh.cli", "instantiate", "elimination.instantiate"),
    ("zenoslh.master", "instantiate", "elimination.instantiate"),
    ("zenoslh.cli", "evolve", "master.evolve"),
    ("zenoslh.master", "evolve", "master.evolve"),
    ("zenoslh.master", "liouvillian_matrix", "master.liouvillian_matrix"),
    ("zenoslh.cli", "convergence_harness", "master.convergence_harness"),
    ("zenoslh.cli", "simulate_ensemble", "trajectories.simulate_ensemble"),
    ("zenoslh.trajectories", "simulate", "trajectories.simulate"),
    ("zenoslh.cli", "stability_threshold", "linear.stability_threshold"),
    ("zenoslh.cli", "write_evolution_csv", "outputs.write_evolution_csv"),
    ("zenoslh.cli", "write_trajectory_csv", "outputs.write_trajectory_csv"),
    ("zenoslh.cli", "write_convergence_csv", "outputs.write_convergence_csv"),
    ("zenoslh.cli", "write_stability_csv", "outputs.write_stability_csv"),
    ("zenoslh.cli", "write_triple_json", "outputs.write_triple_json"),
    ("zenoslh.cli", "write_json", "outputs.write_json"),
)


class Tracer:
    def __init__(self):
        self.spans = []          # [id, name, start, end, parent, job]
        self._stack = []
        self._saved = []
        self.job = None

    @contextlib.contextmanager
    def span(self, name):
        """Record one span under the current parent."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, perf_counter(), None, parent, self.job])
        self._stack.append(sid)
        try:
            yield
        finally:
            self.spans[sid][3] = perf_counter()
            self._stack.pop()

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self):
        for mod_name, attr, name in WRAPPED:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(fn, name))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    # -- summaries ---------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for sid, _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        return [s[3] - s[2] - child[s[0]] for s in self.spans]

    def summary(self) -> dict:
        selfs = self.self_times()
        by_name = {}
        for s, st in zip(self.spans, selfs):
            e = by_name.setdefault(s[1], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            e["calls"] += 1
            e["total_s"] += s[3] - s[2]
            e["self_s"] += st
            e["durations"].append(s[3] - s[2])
        layers = {}
        for name, e in by_name.items():
            e["median_s"] = statistics.median(e.pop("durations"))
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + e["self_s"]
        jobs = {s[5] for s in self.spans if s[5] is not None}
        return {"jobs": len(jobs), "spans": by_name, "layer_self_s": layers}

    def job_self_s(self, layer: str) -> list:
        """Self time of one layer summed per job."""
        out = {}
        for s, st in zip(self.spans, self.self_times()):
            if s[1].split(".")[0] == layer and s[5] is not None:
                out[s[5]] = out.get(s[5], 0.0) + st
        return [out[j] for j in sorted(out)]

    def write(self, path):
        keys = ("id", "name", "start", "end", "parent", "job")
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(dict(zip(keys, s))) + "\n")

