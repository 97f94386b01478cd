"""Per-layer tracing of sidonlab from outside its source tree.

``Tracer.install()`` wraps the public functions of each module: methods are
replaced on their class, and a function is replaced in every loaded
``sidonlab`` module that binds it by name (``pair_enclosure`` lives in
``correlation`` but is also bound in ``poisson``, ``cli`` and the package).
``uninstall()`` restores the originals, so traced and untraced passes can
alternate in one process.

Each wrapper records calls and self time, which is a span's duration minus
the time spent in wrapped callees.  Query-level calls and CLI jobs are also
kept as full spans (id, parent, name, start, end) for the trace file.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# (module, class or None, attribute, metric key, keep full spans)
TARGETS = [
    ("construction", "LevelSet", "intersect", "construction.levelset", False),
    ("construction", "LevelSet", "clip", "construction.levelset", False),
    ("construction", "LevelSet", "shift", "construction.levelset", False),
    ("construction", "LevelSet", "from_ranges", "construction.levelset", False),
    ("construction", "LevelSet", "union", "construction.levelset", False),
    ("construction", "LevelSet", "difference", "construction.levelset", False),
    ("construction", "Tower", "lift", "construction.lift", False),
    ("construction", "Tower", "point_to_stage", "construction.point", False),
    ("construction", "Tower", "normalize_point", "construction.point", False),
    ("construction", "Tower", "step", "construction.point", False),
    ("construction", "Tower", "iterate", "construction.point", False),
    ("construction", "Tower", "membership", "construction.point", False),
    ("construction", "Tower", "sample_uniform", "construction.point", False),
    ("construction", None, "build_stages", "construction.tower_build", False),
    ("correlation", None, "pair_enclosure", "correlation.pair", True),
    ("correlation", None, "triple_enclosure", "correlation.triple", True),
    ("correlation", None, "mc_correlation", "correlation.mc", True),
    ("correlation", None, "decay_report", "correlation.report", True),
    ("correlation", None, "sidon_bound_report", "correlation.report", True),
    ("correlation", None, "support_decay_report", "correlation.report", True),
    ("sidon", None, "singer_set", "sidon.singer_set", True),
    ("sidon", None, "mian_chowla", "sidon.mian_chowla", True),
    ("sidon", None, "build_from_psi", "sidon.build_from_psi", True),
    ("sidon", None, "sidon_property_check", "sidon.property_check", True),
    ("poisson", None, "joint_prob", "poisson.joint", True),
    ("poisson", None, "mc_joint", "poisson.mc_joint", True),
    ("poisson", None, "mixing_report", "poisson.report", True),
    ("poisson", None, "triple_mixing_report", "poisson.report", True),
    ("homoclinic", None, "lemma61_defect", "homoclinic.defect", True),
    ("homoclinic", None, "flow_defect", "homoclinic.flow", True),
    ("homoclinic", "DissipativeMap", "__init__", "homoclinic.dmap_init", False),
    ("homoclinic", "DissipativeMap", "step_pieces", "homoclinic.pieces", False),
    ("homoclinic", None, "homoclinic_sweep", "homoclinic.report", True),
    ("homoclinic", None, "wandering_check", "homoclinic.report", True),
    ("homoclinic", None, "retention_audit", "homoclinic.report", True),
    ("config", None, "load_config", "config.parse", False),
    ("config", None, "parse_construction", "config.parse", False),
    ("config", None, "parse_level_set", "config.parse", False),
    ("config", None, "parse_event", "config.parse", False),
    ("config", None, "parse_epsilon", "config.parse", False),
    ("config", None, "parse_psi", "config.parse", False),
    ("config", None, "write_csv", "config.write_csv", False),
    ("cli", None, "main", "cli.job", True),
]

LAYERS = ("construction", "correlation", "sidon", "poisson", "homoclinic",
          "config", "cli")
GENERATORS = ("sidon.singer_set", "sidon.mian_chowla", "sidon.build_from_psi")
QUERIES = ("correlation.pair", "correlation.triple")


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [child seconds, nearest kept span id]
        self._queries_open = 0
        self._saved: list[tuple] = []

    # -- bookkeeping -----------------------------------------------------

    def _observe(self, key, args, result):
        if key == "construction.lift":
            self.counts["lift.ranges_out"] += len(result.ranges)
            if self._queries_open:
                self.counts["lift.in_query"] += 1
        elif key in QUERIES:
            self.counts["query.exact"] += result.lo == result.hi
        elif key == "poisson.joint":
            self.counts["joint.clamped"] += bool(result.clamped)
        elif key == "homoclinic.flow":
            self.counts["flow.samples"] += args[3]
        elif key == "config.write_csv":
            self.counts["write_csv.bytes"] += os.path.getsize(args[0])

    def _wrap(self, fn, key: str, keep_span: bool):
        tracer = self
        stack = self._stack
        is_query = key in QUERIES
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span_id = len(tracer.spans) if keep_span else None
            if keep_span:
                tracer.spans.append(None)
            stack.append([0.0, span_id if keep_span else parent])
            tracer._queries_open += is_query
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._queries_open -= is_query
                child, _ = stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                tracer.calls[key] += 1
                tracer.self_s[key] += dur - child
                tracer.total_s[key] += dur
                if keep_span:
                    tracer.durations[key].append(dur)
                    tracer.spans[span_id] = (span_id, parent, key, t0, t1)
            tracer._observe(key, args, result)
            return result

        return functools.wraps(fn)(traced)

    # -- patching ----------------------------------------------------------

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "sidonlab" or name.startswith("sidonlab.")}
        for modname, clsname, attr, key, keep in TARGETS:
            home = mods[f"sidonlab.{modname}"]
            if clsname is not None:
                cls = getattr(home, clsname)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, key, keep))
                else:
                    new = self._wrap(raw, key, keep)
                self._saved.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            orig = getattr(home, attr)
            new = self._wrap(orig, key, keep)
            for mod in mods.values():
                if mod.__dict__.get(attr) is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- per-pass snapshot -------------------------------------------------

    def snapshot(self) -> dict:
        """Cumulative counters; subtract two snapshots for one pass."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "n_durations": {k: len(v) for k, v in self.durations.items()},
        }
