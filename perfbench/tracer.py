"""Span tracing around monomap's public functions, from outside the library.

`Tracer.install` replaces module attributes with timing wrappers.  Python
looks globals up at call time, so calls inside a module (for example
`geometry.linear_image` -> `convex_hull`, `exact.minor` -> `det`) go through
the wrappers too.  `restore` puts the originals back.  Spans (name, start,
end, parent) live in flat arrays until `write` saves them; `stats` derives
calls, total and self time per function from them.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter

import numpy as np

from monomap import dynamics, exact, geometry, recurrence, spectral
from monomap.errors import SearchExhausted

LAYERS = {
    "exact": (exact, ("det", "exterior_power", "char_poly", "mat_pow", "inverse",
                      "change_of_basis")),
    "geometry": (geometry, ("convex_hull", "linear_image", "volume", "mixed_volume",
                            "mixed_volume_subdivision")),
    "dynamics": (dynamics, ("degree", "degree_sequence", "pullback_matrix",
                            "check_k_stable", "find_power_l0",
                            "stabilize_basis_search", "build_skew_model")),
    "spectral": (spectral, ("spectral_profile", "gap_report", "root_of_unity_test")),
    "recurrence": (recurrence, ("minimal_recurrence", "hankel_ranks",
                                "cayley_hamilton_check")),
}
JOB_SPAN = "bench.job"
COUNTERS = (
    "geometry.mixed_volume_subdivision.lift_attempts",
    "dynamics.find_power_l0.powers_scanned",
    "dynamics.stabilize_basis_search.attempts",
    "dynamics.stabilize_basis_search.searches",
    "dynamics.stabilize_basis_search.certified",
)


def metric_units():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer, (_, fns) in [("bench", (None, ("job",)))] + list(LAYERS.items()):
        for fn in fns:
            out += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.total_s", "s"),
                    (f"{layer}.{fn}.self_s", "s")]
    out += [(name, "count") for name in COUNTERS[:3]]
    out += [("dynamics.stabilize_basis_search.certified_ratio", "ratio"),
            ("spectral.spectral_profile.precision_bits", "bits"),
            ("bench.jobs_per_s", "jobs/s")]
    return out


class Tracer:
    def __init__(self):
        self.names = [JOB_SPAN]
        self.fid = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.precision_bits = 0  # highest precision any profile needed
        self.pass_marks = []  # (first span index, counters, precision so far) per pass
        self._saved = []

    # -- spans ---------------------------------------------------------------
    def open(self, fid):
        idx = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def job(self, fn, *args):
        """Run fn(*args) in a job span; library spans under it are its children."""
        idx = self.open(0)
        try:
            return fn(*args)
        finally:
            self.close(idx)

    def mark_pass(self):
        self.pass_marks.append((len(self.fid), dict(self.counters), self.precision_bits))

    # -- wrappers ------------------------------------------------------------
    def install(self):
        observers = {
            "geometry.mixed_volume_subdivision": self._on_subdivision,
            "dynamics.find_power_l0": self._on_power_search,
            "dynamics.stabilize_basis_search": self._on_basis_search,
            "spectral.spectral_profile": self._on_profile,
        }
        for layer, (module, fns) in LAYERS.items():
            for fn in fns:
                name = f"{layer}.{fn}"
                original = getattr(module, fn)
                self._saved.append((module, fn, original))
                setattr(module, fn, self._wrap(name, original, observers.get(name)))

    def restore(self):
        while self._saved:
            module, fn, original = self._saved.pop()
            setattr(module, fn, original)

    def _wrap(self, name, fn, observer):
        fid = len(self.names)
        self.names.append(name)
        open_span, close_span = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_span(fid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if observer is not None:
                    observer(None, exc)
                raise
            finally:
                close_span(idx)
            if observer is not None:
                observer(result, None)
            return result

        return wrapper

    def _on_subdivision(self, result, exc):
        if result is not None:
            self.counters["geometry.mixed_volume_subdivision.lift_attempts"] += (
                result.lift_attempts)

    def _on_power_search(self, result, exc):
        log = result.log if result is not None else getattr(exc, "log", ())
        self.counters["dynamics.find_power_l0.powers_scanned"] += len(log)

    def _on_basis_search(self, result, exc):
        if result is None and not isinstance(exc, SearchExhausted):
            return  # precondition failed before any search
        log = result.log if result is not None else exc.log
        self.counters["dynamics.stabilize_basis_search.searches"] += 1
        self.counters["dynamics.stabilize_basis_search.attempts"] += len(log)
        self.counters["dynamics.stabilize_basis_search.certified"] += result is not None

    def _on_profile(self, result, exc):
        if result is not None:
            self.precision_bits = max(self.precision_bits, result.precision)

    # -- results -------------------------------------------------------------
    def arrays(self):
        return tuple(np.frombuffer(a, dtype=t).copy() for a, t in (
            (self.fid, np.int64), (self.parent, np.int64),
            (self.start, np.float64), (self.end, np.float64)))

    def write(self, path):
        fid, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), fid=fid, parent=parent,
                            start=start, end=end,
                            pass_starts=np.array([m[0] for m in self.pass_marks]))

    def stats(self):
        """Calls, total and self time per function, and the counters, over the
        first pass: a fresh process doing the same jobs repeats them exactly."""
        fid, parent, start, end = self.arrays()
        hi, done, precision = (self.pass_marks[1] if len(self.pass_marks) > 1
                               else (len(fid), self.counters, self.precision_bits))
        fid, parent, dur = fid[:hi], parent[:hi], (end - start)[:hi]
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=hi)
        n = len(self.names)
        calls = np.bincount(fid, minlength=n)
        total = np.bincount(fid, weights=dur, minlength=n)
        own = np.bincount(fid, weights=dur - child, minlength=n)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.total_s"] = float(total[i])
            out[f"{name}.self_s"] = float(own[i])
        for k in COUNTERS[:3]:
            out[k] = done[k]
        searches = done["dynamics.stabilize_basis_search.searches"]
        out["dynamics.stabilize_basis_search.certified_ratio"] = (
            done["dynamics.stabilize_basis_search.certified"] / searches if searches else 0.0)
        out["spectral.spectral_profile.precision_bits"] = precision
        return out
