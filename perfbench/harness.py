"""Timing, tracing and environment helpers shared by the workloads.

Everything here is benchmark-side: spans are recorded around calls into
``vwsim``'s public functions, never inside the package.
"""

from __future__ import annotations

import ctypes
import gzip
import json
import os
import platform
import resource
import statistics
import struct
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

perf = time.perf_counter

# The seven modules the per-layer numbers are attributed to. A span named
# ``<layer>.<function>`` belongs to ``<layer>``; spans of other prefixes
# (the operation root, benchmark-side counting) belong to none.
LAYERS = ("core", "psmi", "temp_index", "matching", "io", "synth", "bench")


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class HostSpeed:
    """Host-speed reference that end-to-end times are scaled by.

    On a shared machine the same code runs up to twice as slow while
    neighbours are busy, and the share of slow time drifts over seconds to
    minutes, which no statistic over one run can remove. So the benchmark times a fixed kernel (stdlib and numpy
    only, no vwsim code) in short bursts between operations, and scales each
    operation's wall time by ``NOMINAL_S`` over the kernel's typical time
    within ``WINDOW_S`` of that operation: times read as on a host where the
    kernel takes ``NOMINAL_S``. The raw wall times stay in the report.

    The host alternates between a fast and a roughly twice as slow state in
    segments of about 1 to 30 ms. An operation shorter than ``LONG_OP_S``
    runs in one state, so, like the kernel's own runs, its times are
    bimodal: it is compared with the kernel's median, which switches state
    together with the operations' median. A longer operation averages over
    both states in proportion to the time spent in each, so it is compared
    with the kernel's mean, which does the same.
    """

    NOMINAL_S = 400e-6
    WINDOW_S = 1.0
    MIN_SAMPLES = 9
    LONG_OP_S = 0.02

    def __init__(self):
        rng = np.random.RandomState(0)
        self._values = rng.standard_normal(200)
        self._keys = rng.randint(0, 1000, size=200)
        self._text = json.dumps([{"k": i, "v": [float(x) for x in self._values[:16]]}
                                 for i in range(20)])
        self._mids: list[float] = []
        self._durations: list[float] = []

    def _kernel(self) -> float:
        # Small numpy calls, dict and sort work, JSON parsing and struct
        # packing: the mix the query paths spend their time in.
        total = 0.0
        for _ in range(20):
            order = np.argsort(self._keys)
            total += float(self._values[order[:50]].sum())
            total += self._keys[self._keys > 500].size
        counts: dict[int, int] = {}
        for i in range(300):
            counts[i % 37] = counts.get(i % 37, 0) + i
        total += sum(sorted(counts.values()))
        total += len(json.loads(self._text))
        total += len(b"".join(struct.pack("<Id", i, float(i)) for i in range(100)))
        return total

    def burst(self, runs: int = 10) -> None:
        for _ in range(runs):
            start = perf()
            self._kernel()
            end = perf()
            self._mids.append((start + end) / 2)
            self._durations.append(end - start)

    def median_s(self) -> float:
        return median(self._durations)

    def scale(self, spans) -> np.ndarray:
        """Scaled durations of ``(start, end)`` spans."""
        spans = np.asarray(spans, dtype=np.float64).reshape(-1, 2)
        mids = np.asarray(self._mids)
        durations = np.asarray(self._durations)
        lo = np.searchsorted(mids, spans[:, 0] - self.WINDOW_S)
        hi = np.searchsorted(mids, spans[:, 1] + self.WINDOW_S, side="right")
        local: dict[tuple[int, int, bool], float] = {}
        out = np.empty(len(spans))
        for i, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
            if b - a < self.MIN_SAMPLES:
                pad = (self.MIN_SAMPLES - (b - a) + 1) // 2
                a, b = max(0, a - pad), min(len(durations), b + pad)
            wall = spans[i, 1] - spans[i, 0]
            key = (a, b, wall >= self.LONG_OP_S)
            if key not in local:
                window = durations[a:b]
                local[key] = float(window.mean() if key[2] else np.median(window))
            out[i] = wall * self.NOMINAL_S / local[key]
        return out


class Tracer:
    """In-memory spans: name, start, end, parent span and operation id.

    ``op`` opens the root span of one workload operation; ``call`` records
    one child span around a function call. A *probe* span re-runs a step
    the operation already did (to time a sub-step from outside); probes are
    reported as layer numbers but excluded from self time and from the
    traced operation time.
    """

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent, op_id, probe)
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, list[float]] = defaultdict(list)

    def _open(self) -> int:
        self.spans.append(None)
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float, probe: bool) -> None:
        end = perf()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (name, start, end, parent, self.op_id, probe)

    def call(self, name: str, fn, *args, probe: bool = False, **kwargs):
        sid = self._open()
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, name, start, probe)

    @contextmanager
    def op(self, name: str):
        self.op_id += 1
        sid = self._open()
        start = perf()
        try:
            yield
        finally:
            self._close(sid, name, start, False)

    def count(self, name: str, value: float) -> None:
        self.counts[name].append(float(value))

    def intervals(self, name: str) -> list[tuple[float, float]]:
        return [(s[1], s[2]) for s in self.spans if s is not None and s[0] == name]

    def op_times(self, root: str) -> list[float]:
        """Traced duration of each ``root`` operation, probe time removed."""
        probe_time: dict[int, float] = defaultdict(float)
        totals = {}
        for name, start, end, parent, op_id, probe in self.spans:
            if probe and parent >= 0 and self.spans[parent][0] == root:
                probe_time[op_id] += end - start
            elif name == root:
                totals[op_id] = end - start
        return [t - probe_time[op] for op, t in totals.items()]

    def self_shares(self, skip_root: str = "op.setup") -> dict[str, float]:
        """Share of traced operation time each layer spends in its own code.

        A span's self time is its duration minus the time its non-probe
        child spans cover. Probes and the operations rooted at ``skip_root``
        are left out; the denominator is the probe-free time of the rest.
        """
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, op_id, probe in self.spans:
            if parent >= 0 and not probe:
                child_time[parent] += end - start
        roots = {op_id: name for name, _, _, parent, op_id, _ in self.spans if parent < 0}
        busy = {layer: 0.0 for layer in LAYERS}
        total = 0.0
        for sid, (name, start, end, parent, op_id, probe) in enumerate(self.spans):
            if roots[op_id] == skip_root:
                continue
            if parent < 0:
                total += end - start
            elif probe:
                total -= end - start
            elif name.split(".", 1)[0] in busy:
                busy[name.split(".", 1)[0]] += (end - start) - child_time[sid]
        return {layer: t / total for layer, t in busy.items()}

    def write(self, path: Path) -> None:
        """Spans as gzipped CSV, times in ns from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("span,name,start_ns,end_ns,parent,op,probe\n")
            for sid, (name, start, end, parent, op_id, probe) in enumerate(self.spans):
                out.write(f"{sid},{name},{round((start - t0) * 1e9)},{round((end - t0) * 1e9)},"
                          f"{parent},{op_id},{int(probe)}\n")


def _blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, read through its own API."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(loadavg_start: tuple[float, float, float]) -> dict:
    try:
        blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(loadavg_start),
        "platform": platform.platform(),
    }
