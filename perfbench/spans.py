"""In-memory span tracing around the library's layer boundaries.

Every wrapped name is patched where its caller looks it up (for example
`heteroembed.train.forward_batch`, not `heteroembed.net.forward_batch`),
so the library itself is never edited. A span records (name, start, end,
parent, run id); run id 0 is the traced set-up, 1..N are the timed
operations and -1 is everything else (checks and probes).
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name). A name missing from the library fails the
# traced run: a per-layer figure that silently reads 0 would look like a gain.
LAYER_PATCHES = [
    ("heteroembed.train", "build_index", "sampler.index"),
    ("heteroembed.train", "init_net", "net.init"),
    ("heteroembed.train", "forward_batch", "net.forward"),
    ("heteroembed.train", "backward", "net.backward"),
    ("heteroembed.train", "adam_step", "net.adam"),
    ("heteroembed.train", "hetero_loss_grad", "loss"),
    ("heteroembed.train", "triplet_loss_grad", "loss"),
    ("heteroembed.loss", "mean_embedding", "loss.mean_embedding"),
    ("heteroembed.cli", "run_compare", "cli.compare"),
    ("heteroembed.cli", "split_by_identity", "data.split"),
    ("heteroembed.data", "split_by_identity", "data.split"),
    ("heteroembed.cli", "split_enroll_probe", "data.split"),
    ("heteroembed.cli", "embed_dataset", "metrics.embed"),
    ("heteroembed.cli", "distance_matrix", "metrics.distance"),
    ("heteroembed.cli", "identify", "metrics.identify"),
    ("heteroembed.cli", "verification_scores", "metrics.scores"),
    ("heteroembed.cli", "verification_report", "metrics.report"),
    ("heteroembed.metrics", "roc", "metrics.roc"),
    ("heteroembed.metrics", "eer", "metrics.eer"),
    ("heteroembed.metrics", "gar_at_far", "metrics.gar_at_far"),
    ("heteroembed.data", "generate_synthetic", "data.synth"),
    ("heteroembed.data", "save_manifest", "data.manifest_write"),
    ("heteroembed.data", "load_manifest", "data.manifest_read"),
    ("heteroembed.net", "save_checkpoint", "net.checkpoint_write"),
    ("heteroembed.net", "load_checkpoint", "net.checkpoint_read"),
]

# Calls the benchmark times in every run, traced or not: the training and
# evaluation calls made inside `run_compare`, the training calls the
# benchmark makes itself, and each epoch's start (for per-epoch throughput).
# The flag says whether the call's arguments and result are kept for checks.
PROBE_PATCHES = [
    ("heteroembed.cli", "train", "train", True),
    ("heteroembed.train", "train", "train", True),
    ("heteroembed.train", "epoch_tuples", "sampler", False),
    ("heteroembed.cli", "evaluate_enroll_probe", "cli.evaluate.enroll", True),
    ("heteroembed.cli", "evaluate_cross_domain", "cli.evaluate.cross", True),
]


def _rows(args, pos):
    x = args[pos] if len(args) > pos else None
    return float(x.shape[0]) if hasattr(x, "shape") and len(x.shape) >= 1 else 0.0


def tuple_keys(tuples):
    """(anchor identity, negative identity, p, q) of each sampled tuple."""
    return [(t.identity_a, t.identity_b, t.domain_p, t.domain_q) for t in tuples]


def _sampler_counts(n, tuples):
    keys = tuple_keys(tuples)
    counts = {"sampler.tuples": float(n), "sampler.distinct": float(len(set(keys)))}
    for _, _, p, q in keys:
        counts[f"sampler.pair.{p}>{q}"] = counts.get(f"sampler.pair.{p}>{q}", 0.0) + 1.0
    return counts


def _counts(span, args, kwargs, result):
    """Work counts recorded at a layer boundary, keyed by counter name."""
    if span == "sampler":
        n = args[3] if len(args) > 3 else kwargs.get("n_tuples", len(result))
        return _sampler_counts(n, result)
    if span in ("net.forward", "net.backward"):
        return {f"{span}_rows": _rows(args, 1)}
    if span == "metrics.distance":
        p, g = np.shape(args[0]), np.shape(args[1])
        return {"metrics.pairs": float(p[0] * g[0]),
                "metrics.distance_bytes": float(p[0] * g[0] * p[-1] * 8)}
    if span == "metrics.roc":
        return {"metrics.roc_points": float(len(getattr(result, "far", ())))}
    return None


class Recorder:
    """Holds spans and counters for one benchmark run, plus the timed calls.

    `calls` lists every probed call as (span, start, end, args, result),
    whether or not spans are being recorded; args and result are None for
    probes that do not keep them.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.counters: dict[tuple[str, int], float] = {}
        self.calls: list[tuple] = []
        self.tracing = False
        self.run_id = -1
        self.traced_calls: dict[str, int] = {}  # "module.attr" -> calls while tracing
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # --- spans ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int, t: float):
        self.end[sid] = t
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.tracing:
            yield
            return
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid, time.perf_counter())

    def count(self, counts: dict | None):
        for key, val in (counts or {}).items():
            k = (key, self.run_id)
            self.counters[k] = self.counters.get(k, 0.0) + val

    # --- patching ------------------------------------------------------

    def _wrap(self, fn, label: str, span: str, probe: bool, keep: bool):
        rec = self
        rec.traced_calls[label] = 0

        def wrapper(*args, **kwargs):
            tracing = rec.tracing
            if not tracing and not probe:
                return fn(*args, **kwargs)
            if tracing:
                rec.traced_calls[label] += 1
            sid = rec._open(span) if tracing else -1
            t0 = rec.start[sid] if tracing else time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if tracing:
                    rec._close(sid, t1)
            if probe:
                rec.calls.append((span, t0, t1) + ((args, result) if keep else (None, None)))
            if tracing:
                rec.count(_counts(span, args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, with_layers: bool):
        patches = [(m, a, s, True, keep) for m, a, s, keep in PROBE_PATCHES]
        if with_layers:
            patches += [(m, a, s, False, False) for m, a, s in LAYER_PATCHES]
        for module_name, attr, span, probe, keep in patches:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)  # AttributeError: the library no longer has it
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, f"{module_name}.{attr}", span, probe, keep))

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # --- analysis ------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
        }

    def save(self, path):
        """Write every span to an .npz file (name table in `names`)."""
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **self.arrays())


class SpanStats:
    """Per-name totals of a finished trace, split by run id."""

    def __init__(self, rec: Recorder):
        a = rec.arrays()
        self.rec = rec
        self.names = rec.names
        self.name, self.run, self.parent = a["name"], a["run"], a["parent"]
        self.dur = a["end"] - a["start"]
        child = np.zeros(len(self.dur))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        self.n_ops = len(np.unique(self.run[self.run >= 1]))

    def mask(self, names):
        ids = [i for i, n in enumerate(self.names) if n in names]
        return np.isin(self.name, ids)

    def per_unit(self, values: np.ndarray, mask: np.ndarray) -> float:
        """Total in the traced set-up plus the mean over traced operations."""
        setup = float(values[mask & (self.run == 0)].sum())
        ops = float(values[mask & (self.run >= 1)].sum())
        return setup + (ops / self.n_ops if self.n_ops else 0.0)

    def seconds(self, *names) -> float:
        return self.per_unit(self.dur, self.mask(names))

    def self_seconds(self, *names) -> float:
        return self.per_unit(self.self_time, self.mask(names))

    def calls(self, *names) -> float:
        return self.per_unit(np.ones(len(self.dur)), self.mask(names))

    def counter(self, key: str) -> float:
        setup = self.rec.counters.get((key, 0), 0.0)
        ops = sum(v for (k, r), v in self.rec.counters.items() if k == key and r >= 1)
        return setup + (ops / self.n_ops if self.n_ops else 0.0)
