"""Spans around the calls into each layer of hybridlens, for the traced run.

Each public function is wrapped where its caller looks it up (``cli``
binds ``admissibility``, ``curl_condition`` and ``from_design`` by
name, ``raytrace`` binds ``intersect_ray`` and ``refract_*`` by name),
so the program itself is unchanged.  A span is (name, start, end,
parent, count); spans stay in flat arrays in memory and are written
out once, when the run ends.
"""

import functools
import importlib
import os
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _grid_nodes(args, kwargs, result):
    grid = _arg(args, kwargs, 1, "grid")
    return grid.x1.size * grid.x2.size


def _rays(args, kwargs, result):
    return len(result)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


#: (span name, module of hybridlens, attribute where the caller looks
#: the function up, extra count and its metric suffix)
LAYERS = [
    ("config.from_file", "config", "DesignConfig.from_file", None),
    ("maps.admissibility", "cli", "admissibility", ("nodes", _grid_nodes)),
    ("imaging.thickness_check", "imaging", "thickness_check", None),
    ("imaging.solve_rho", "imaging", "solve_rho", None),
    ("imaging.existence_verdict", "imaging", "existence_verdict", None),
    ("fields.curl_condition", "cli", "curl_condition", ("nodes", _grid_nodes)),
    ("farfield.midfield_general", "farfield", "midfield_general", None),
    ("farfield.midfield_vertical", "farfield", "midfield_vertical", None),
    ("farfield.sufficient_det_vertical", "farfield", "sufficient_det_vertical", None),
    ("farfield.sufficient_det_general", "farfield", "sufficient_det_general", None),
    ("farfield.build_phase", "farfield", "build_phase", None),
    ("farfield.intersect_ray", "farfield", "intersect_ray", None),
    ("farfield.intersect_ray", "raytrace", "intersect_ray", None),
    ("surfaces.from_design", "cli", "from_design", None),
    ("surfaces.from_design", "raytrace", "from_design", None),
    ("surfaces.height", "surfaces", "Surface.height", None),
    ("surfaces.normal", "surfaces", "Surface.normal", None),
    ("snell.refract_standard", "farfield", "refract_standard", None),
    ("snell.refract_standard", "raytrace", "refract_standard", None),
    ("snell.refract_metasurface", "raytrace", "refract_metasurface", None),
    ("raytrace.trace_through", "raytrace", "trace_through", ("rays", _rays)),
    ("io.write", "io", "write_csv", ("bytes", _file_bytes)),
    ("io.write", "io", "write_json", ("bytes", _file_bytes)),
    ("io.read", "io", "read_csv", ("bytes", _file_bytes)),
    ("io.read", "io", "read_json", ("bytes", _file_bytes)),
]

#: Spans the benchmark opens itself around each CLI command.
CLI_COMMANDS = ("design-imaging", "trace", "design-farfield")


def span_names():
    names = []
    for name in [layer[0] for layer in LAYERS] + [f"cli.{c}" for c in CLI_COMMANDS]:
        if name not in names:
            names.append(name)
    return names


def span_metrics():
    """Per-layer metrics derived from spans: (metric, unit, span name, total),
    where ``total`` names the entry of ``Tracer.totals`` it reads."""
    extra = {layer[0]: layer[3][0] for layer in LAYERS if layer[3]}
    out = []
    for name in span_names():
        out += [(f"{name}.s", "s", name, "s"),
                (f"{name}.self_s", "s", name, "self_s"),
                (f"{name}.calls", "count", name, "calls")]
        if name in extra:
            unit = "bytes" if extra[name] == "bytes" else "count"
            out.append((f"{name}.{extra[name]}", unit, name, "count"))
    return out


class Tracer:
    """Flat, append-only span store with a stack of open spans."""

    def __init__(self):
        self.names = span_names()
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self._stack = [-1]

    def __len__(self):
        return len(self.start)

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.count.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    @contextmanager
    def span(self, name):
        idx = self._open(self._ids[name])
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, perf_counter())

    def wrap(self, name, fn, count=None):
        nid = self._ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, perf_counter())
            if count is not None:
                self.count[idx] = count(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every function of ``LAYERS``; restore the originals on exit."""
        restore = []
        try:
            for name, module, path, extra in LAYERS:
                owner = importlib.import_module(f"hybridlens.{module}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(name, raw.__func__,
                                                 extra and extra[1]))
                else:
                    new = self.wrap(name, raw, extra and extra[1])
                setattr(owner, attr, new)
                restore.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "count": np.frombuffer(self.count, dtype=np.int64),
        }

    def totals(self, lo, hi):
        """Per span name: busy time, self time, calls and summed counts of
        the spans with index in [lo, hi).

        Self time is a span's duration minus the durations of its direct
        children; the program runs on one thread, so children of one span
        never overlap.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        n = len(self.names)
        ids = a["name_id"][lo:hi]
        return {
            "s": np.bincount(ids, weights=dur[lo:hi], minlength=n),
            "self_s": np.bincount(ids, weights=own[lo:hi], minlength=n),
            "calls": np.bincount(ids, minlength=n).astype(float),
            "count": np.bincount(ids, weights=a["count"][lo:hi], minlength=n),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
