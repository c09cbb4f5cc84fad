"""Per-layer timing of one ``homlab`` CLI job, from outside the program.

Run as a script, it executes one CLI job in this fresh process with timing
wrappers installed, then writes the trace as JSON:

    python tracer.py TRACE.json -- dist --a fock:1 --b coherent:beta=3 -o out.json

Wrappers replace public functions in the namespaces that call them, so the
program's own files are untouched.  Coarse calls become spans (name, start,
end, parent), kept in memory and written at exit.  Hot functions, called up to
millions of times, are only counted and timed per parent span.  ``numerics``
primitives are not wrapped: their time is self time of bs_core and nodal.

Imported, it turns the traces of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time

clock = time.perf_counter

# (module, attribute, record name); record names start with the layer name
SPANS = [
    *[("homlab.cli", f"cmd_{cmd}", f"cli.cmd_{cmd}")
      for cmd in ("dist", "lossy", "zeros", "parametric", "herald", "dicke", "verify")],
    ("homlab.cli", "parse_state", "states.parse_state"),
    *[("homlab.cli", f"joint_{path}", f"joint_dist.{path}")
      for path in ("fs_fs", "fs_pure", "fs_mixed", "pure_pure", "pure_mixed", "general")],
    ("homlab.cli", "lossy_distribution", "detector.lossy_distribution"),
    ("homlab.detector", "bernoulli_matrix", "detector.bernoulli_matrix"),
    ("homlab.cli", "herald_posterior", "detector.herald"),
    ("homlab.cli", "spdc_detection_prob", "detector.herald"),
    ("homlab.cli", "bfs_zeros", "nodal.bfs_zeros"),
    ("homlab.cli", "search_parametric", "nodal.search_parametric"),
    ("homlab.cli", "cnl_scan", "nodal.cnl_scan"),
    ("homlab.cli", "central_probability", "dicke.central_probability"),
]
HOT = [
    ("homlab.joint_dist", "measured_amplitude", "bs_core.measured_amplitude"),
    ("homlab.bs_core", "bs_coefficient", "bs_core.bs_coefficient"),
    ("homlab.bs_core", "g_poly", "bs_core.g_poly"),
    ("homlab.nodal", "canonical_form", "nodal.canonical_form"),
    ("homlab.nodal", "verify_parametric", "nodal.verify_parametric"),
    ("homlab.cli", "verify_parametric", "nodal.verify_parametric"),
]
LAYERS = ("cli", "states", "joint_dist", "bs_core", "detector", "nodal", "dicke")


def _size_info(name, args, result):
    if name.startswith("joint_dist."):
        return {"cells": int(result.grid.size)}
    if name == "detector.bernoulli_matrix":
        return {"cells": int(args[1]) ** 2}
    if name == "nodal.search_parametric":
        return {"families": len(result)}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, info]
        self.hot = {}     # (parent, name) -> [calls, seconds, outermost seconds]
        self._stack = []
        self._hot_depth = 0

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, self._stack[-1] if self._stack else -1, {}]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                self._stack.pop()
            record[4] = _size_info(name, args, result)
            return result
        return wrapper

    def hot_call(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = self._hot_depth == 0
            self._hot_depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._hot_depth -= 1
                key = (self._stack[-1] if self._stack else -1, name)
                entry = self.hot.setdefault(key, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                if outermost:
                    entry[2] += elapsed
        return wrapper

    def install(self) -> list[str]:
        """Wrap every listed function that exists; return those that do not."""
        missing = []
        for table, wrap in ((SPANS, self.span), (HOT, self.hot_call)):
            for module, attr, name in table:
                namespace = sys.modules.get(module)
                if hasattr(namespace, attr):
                    setattr(namespace, attr, wrap(name, getattr(namespace, attr)))
                else:
                    missing.append(f"{module}.{attr}")
        return missing

    def document(self, missing) -> dict:
        return {"spans": self.spans,
                "hot": [[parent, name, *entry] for (parent, name), entry in self.hot.items()],
                "missing": missing}


def main(argv: list[str]) -> int:
    trace_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py TRACE.json -- <homlab cli arguments>")
    import homlab.cli  # imports every module the tracer patches

    tracer = Tracer()
    missing = tracer.install()
    try:
        return homlab.cli.main(cli_args)
    finally:
        with open(trace_path, "w") as fh:
            json.dump(tracer.document(missing), fh)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass (used by run.py)
# ---------------------------------------------------------------------------

#: (metric, unit); every traced run reports all of them
METRICS = [
    ("bs_core.amp_calls", "count"), ("bs_core.amp_s", "s"),
    ("bs_core.coeff_computed", "count"), ("bs_core.cache_hit_ratio", "ratio"),
    ("bs_core.g_poly_calls", "count"), ("bs_core.g_poly_s", "s"),
    ("joint_dist.self_s", "s"), ("joint_dist.cells", "count"),
    *[(f"joint_dist.path.{p}", "count")
      for p in ("fs_fs", "fs_pure", "fs_mixed", "pure_pure", "pure_mixed", "general")],
    ("detector.lossy_s", "s"), ("detector.bernoulli_s", "s"),
    ("detector.bernoulli_cells", "count"), ("detector.herald_s", "s"),
    ("cli.self_s", "s"), ("cli.bytes_out", "bytes"),
    ("states.parse_s", "s"), ("states.calls", "count"),
    ("nodal.search_self_s", "s"), ("nodal.canonical_calls", "count"),
    ("nodal.canonical_s", "s"), ("nodal.verify_calls", "count"), ("nodal.verify_s", "s"),
    ("nodal.families_found", "count"), ("nodal.family_yield", "ratio"),
    ("nodal.bfs_s", "s"), ("nodal.cnl_scan_s", "s"), ("dicke.central_s", "s"),
    ("trace.inprocess_s", "s"), ("trace.target_share", "ratio"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
]


def summarize(traces: list[dict], targets: tuple[str, ...]) -> tuple[dict, dict]:
    """Per-layer metrics and per-layer self time over the traces of a pass.

    A span's self time is its duration minus its child spans and the
    outermost hot calls made under it; hot time belongs to the hot
    function's layer.  Self times of all layers add up to the in-process
    time, the sum of the ``cli.cmd_*`` spans.
    """
    m = {name: 0.0 for name, _ in METRICS}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    search_verifies = 0
    for trace in traces:
        spans = trace["spans"]
        self_s = [end - start for _, start, end, _, _ in spans]
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                self_s[parent] -= end - start
        for parent, name, calls, seconds, outer in trace["hot"]:
            if parent >= 0:
                self_s[parent] -= outer
            layer_self[name.split(".")[0]] += outer
            if name == "bs_core.measured_amplitude":
                m["bs_core.amp_calls"] += calls
                m["bs_core.amp_s"] += seconds
            elif name == "bs_core.bs_coefficient":
                m["bs_core.coeff_computed"] += calls
            elif name == "bs_core.g_poly":
                m["bs_core.g_poly_calls"] += calls
                m["bs_core.g_poly_s"] += seconds
            elif name == "nodal.canonical_form":
                m["nodal.canonical_calls"] += calls
                m["nodal.canonical_s"] += seconds
            elif name == "nodal.verify_parametric":
                m["nodal.verify_calls"] += calls
                m["nodal.verify_s"] += seconds
                if parent >= 0 and spans[parent][0] == "nodal.search_parametric":
                    search_verifies += calls
        for (name, start, end, parent, info), own in zip(spans, self_s):
            layer, _, fn = name.partition(".")
            layer_self[layer] += own
            duration = end - start
            if layer == "cli":
                m["cli.self_s"] += own
                m["trace.inprocess_s"] += duration
            elif layer == "joint_dist":
                m["joint_dist.self_s"] += own
                m["joint_dist.cells"] += info["cells"]
                m[f"joint_dist.path.{fn}"] += 1
            elif name == "states.parse_state":
                m["states.parse_s"] += duration
                m["states.calls"] += 1
            elif name == "detector.lossy_distribution":
                m["detector.lossy_s"] += duration
            elif name == "detector.bernoulli_matrix":
                m["detector.bernoulli_s"] += duration
                m["detector.bernoulli_cells"] += info["cells"]
            elif name == "detector.herald":
                m["detector.herald_s"] += duration
            elif name == "nodal.search_parametric":
                m["nodal.search_self_s"] += own
                m["nodal.families_found"] += info["families"]
            elif name == "nodal.bfs_zeros":
                m["nodal.bfs_s"] += duration
            elif name == "nodal.cnl_scan":
                m["nodal.cnl_scan_s"] += duration
            elif layer == "dicke":
                m["dicke.central_s"] += duration
    if m["bs_core.amp_calls"]:
        m["bs_core.cache_hit_ratio"] = 1.0 - m["bs_core.coeff_computed"] / m["bs_core.amp_calls"]
    if search_verifies:
        m["nodal.family_yield"] = m["nodal.families_found"] / search_verifies
    if m["trace.inprocess_s"]:
        m["trace.target_share"] = (sum(layer_self[t] for t in targets)
                                   / m["trace.inprocess_s"])
    return m, layer_self


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
