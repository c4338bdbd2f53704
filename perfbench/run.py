#!/usr/bin/env python3
"""heteroembed benchmark: one workload per invocation, one closed-loop caller.

    python3 perfbench/run.py --workload hard_compare --seed 1 --seconds 45 --trace 0

Builds the workload's inputs (fixed; --seed picks the first input and drives
the check subsamples) and runs the workload's operation back to back for
--seconds (at least `min_ops` times), setting the inputs up again between
operations so that the workload's `setup_reps` set-ups spread evenly over the
run (their median is `setup_s`); then checks the outputs. Timings are medians
of their samples. With --trace 0 it reports the end-to-end metrics (the gated
ones in the JSON line, the REPORTED ones printed and recorded); with --trace 1
it wraps every layer call in spans and reports the per-layer metrics instead. Human-readable lines go
first; the last stdout line is the JSON result. A full record (environment,
timing percentiles, checks, notes) is written to perfbench/out/.
Exit codes: 0 ok, 1 an operation or check failed, 2 no library to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Printed and recorded but not gated.
# - The timings: the 2-vCPU host this benchmark was built on switches between
#   a fast and a ~1.5x slower state for minutes at a time, longer than a run,
#   so ten consecutive runs that straddle a switch spread by 0.25-0.43
#   (IQR / median) on these timings, above the largest bound allowed. setup_s
#   stays gated, with the largest bound, so that work moved into set-up shows.
# - The deltas and baseline figures: a delta can be 0 or change sign, so a
#   bound relative to its median is meaningless; cross_rank1_gain and
#   cross_eer_ratio carry the same comparison in a gateable form.
# - error_rate: the result line carries it as failed / attempted.
REPORTED = [
    ("wall_s", "s", "lower"),
    ("hetero_tuples_per_s", "1/s", "higher"),
    ("baseline_tuples_per_s", "1/s", "higher"),
    ("eval_s", "s", "lower"),
    ("eval_pairs_per_s", "1/s", "higher"),
    ("delta_cross_rank1", "ratio", "higher"),
    ("delta_cross_eer", "ratio", "lower"),
    ("baseline_cross_rank1", "ratio", "higher"),
    ("baseline_cross_eer", "ratio", "lower"),
    ("error_rate", "ratio", "lower"),
]


def _git_commit():
    # The ceiling keeps git from reporting an enclosing repository's HEAD.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def host_probe_ms():
    """Median time of a fixed pure-Python loop, to tell a slow host from slow code."""
    samples = []
    for _ in range(15):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        samples.append(time.perf_counter() - t0)
    return round(1000 * statistics.median(samples), 4)


def environment(np):
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # show_config's layout varies across numpy versions
        pass
    return {
        "git_commit": _git_commit(),
        "src_sha256_16": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "caller": "closed loop, one caller, one process",
    }


def timing(samples, rate=False):
    """Summary of one timing series: n, fastest, median and the slow-side tail.

    The tail is the most extreme slow-side percentile with >= 10 samples
    beyond it: p90/p99/p99.9 of a duration, p10/p1/p0.1 of a rate.
    """
    import numpy as np

    out = {"n": len(samples), "fastest": None, "median": None, "tail": None}
    if samples:
        out["fastest"] = max(samples) if rate else min(samples)
        out["median"] = statistics.median(samples)
    for p in (99.9, 99.0, 90.0):
        if len(samples) * (1 - p / 100) >= 10:
            q = round(100 - p, 1) if rate else p
            out["tail"] = {"p": q, "value": float(np.percentile(samples, q))}
            break
    return out


class Run:
    """One benchmark invocation: the samples, captured outputs, checks and notes."""

    def __init__(self, rec, workload, seed):
        import numpy as np

        self.rec, self.wl, self.seed = rec, workload, seed
        self.rng = np.random.default_rng([seed, 2])
        self.attempted = self.failed = 0
        self.checks: list[dict] = []
        self.setup_s: list[float] = []
        self.wall_s: list[float] = []
        self.tuples_per_s = {"hetero": [], "triplet_baseline": []}
        self.eval_s: list[float] = []
        self.eval_pairs_per_s: list[float] = []
        self.logs: list[tuple] = []  # (log, config, run id)
        self.idents: list = []
        self.evals: dict = {}  # protocol -> first (args, result)
        self.nets: dict = {}  # loss mode -> first (net, training set)
        self.first: dict = {}  # input key -> first quality dict

    def check(self, result):
        name, ok, detail = result
        self.attempted += 1
        self.failed += not ok
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def absorb(self):
        """Turn the probed calls since the last absorb into samples.

        Training throughput is sampled per epoch: from one epoch's start to
        the next (or to the end of the train call), so a run yields many
        samples even when it makes a single train call.
        """
        per_net: dict[int, list] = {}
        epoch_starts = [t0 for span, t0, _, _, _ in self.rec.calls if span == "sampler"]
        for span, t0, t1, args, result in self.rec.calls:
            if span == "sampler":
                continue
            self.attempted += 1
            if span == "train":
                config = args[1]
                bounds = [t for t in epoch_starts if t0 <= t <= t1] + [t1]
                self.tuples_per_s[config.loss_mode] += [
                    config.tuples_per_epoch / (b - a) for a, b in zip(bounds, bounds[1:])]
                self.logs.append((result[1], config, self.rec.run_id))
                self.nets.setdefault(config.loss_mode, (result[0], args[0]))
                continue
            kind = span.rsplit(".", 1)[1]
            per_net.setdefault(id(args[0]), []).append((t1 - t0, result[2].size))
            self.idents.append(result[0])
            self.evals.setdefault(kind, (args, result))
        for parts in per_net.values():
            seconds = sum(s for s, _ in parts)
            self.eval_s.append(seconds)
            self.eval_pairs_per_s.append(sum(n for _, n in parts) / seconds)
        self.rec.calls.clear()

    def setup(self, traced):
        self.rec.tracing, self.rec.run_id = traced, 0
        t0 = time.perf_counter()
        with self.rec.span("setup"):
            state = self.wl.setup()
        self.setup_s.append(time.perf_counter() - t0)
        self.rec.tracing = False
        self.absorb()
        self.rec.run_id = -1
        return state

    def op(self, state, i):
        """One operation on input i; returns its wall time."""
        self.rec.run_id = i + 1 if self.rec.tracing else -1
        t0 = time.perf_counter()
        with self.rec.span("op"):
            key, quality = self.wl.op(state, i)
        wall = time.perf_counter() - t0
        self.absorb()
        self.rec.run_id = -1
        self.attempted += 1
        if key in self.first:
            same = self.first[key] == quality
            self.check(("repeat_reproduces", same, "" if same else f"input {key} gave another result"))
        else:
            self.first[key] = quality
        return wall

    def loop(self, state, seconds, more_setups):
        """Operations back to back for `seconds`. With `more_setups`, set-ups
        run between operations, keeping pace with the elapsed share of the
        run, until the workload's `setup_reps` are done: set-up samples (and
        set-up training) spread over the run like the operations."""
        start = time.perf_counter()
        reps = self.wl.setup_reps if more_setups else 1
        i = 0
        while i < self.wl.min_ops or time.perf_counter() - start < seconds or len(self.setup_s) < reps:
            due = min(reps, 1 + int(reps * (time.perf_counter() - start) / seconds))
            while i and len(self.setup_s) < due:
                state = self.setup(traced=False)
            self.wall_s.append(self.op(state, i))
            i += 1

    def run_checks(self, workdir):
        import numpy as np

        import checks

        for log, config, _ in self.logs:
            self.check(checks.training_log(log, config.epochs))
        for ident in self.idents:
            self.check(checks.cmc_shape(ident))
        for kind, (args, result) in sorted(self.evals.items()):
            self.check(checks.eval_bruteforce(kind, args, result, self.rng))
        for mode, (net, dataset) in sorted(self.nets.items()):
            feats = np.stack([s.features for s in dataset.samples])
            self.check(checks.checkpoint_reload(net, feats, workdir / f"reload_{mode}.ckpt"))
        self.check(checks.determinism(workdir, self.seed))
        self.rec.calls.clear()

    def quality(self):
        merged: dict[str, list] = {}
        for q in self.first.values():
            for k, v in q.items():
                merged.setdefault(k, []).append(v)
        q = {k: statistics.fmean(v) for k, v in merged.items()}
        h1, he = q["hetero.cross_rank1"], q["hetero.cross_eer"]
        b1, be = q["baseline.cross_rank1"], q["baseline.cross_eer"]
        return {
            "hetero_cross_rank1": h1, "hetero_cross_eer": he,
            "cross_rank1_gain": h1 / b1, "cross_eer_ratio": he / be,
            "baseline_cross_rank1": b1, "baseline_cross_eer": be,
            "delta_cross_rank1": h1 - b1, "delta_cross_eer": he - be,
        }

    def active_fraction(self):
        """Active hinges / hinges over the traced training logs (hetero: 2 hinges a tuple)."""
        active = hinges = 0.0
        for log, config, run_id in self.logs:
            if run_id < 0:
                continue
            per_epoch = config.tuples_per_epoch * (2 if config.loss_mode == "hetero" else 1)
            for r in log.records:
                active += r.active_fraction * per_epoch
                hinges += per_epoch
        return active / hinges if hinges else 0.0


def sparse_probe(seed):
    """The sampler on 200 identities of which only 3 have domain B (recorded, not gated).

    Returns (distinct (a, b, p, q) / draws, share of the most frequent tuple).
    """
    import numpy as np

    import heteroembed.data as hdata
    import heteroembed.sampler as hsampler
    from spans import tuple_keys

    full = hdata.generate_synthetic(
        hdata.SynthConfig(n_identities=200, samples_per_identity_per_domain=5, seed=seed))
    with_b = set(full.identities()[:3])
    kept = [s for s in full.samples if s.domain == "A" or s.identity in with_b]
    index = hsampler.build_index(hdata.Dataset(samples=kept, feature_dim=full.feature_dim))
    draws = 2000
    keys = tuple_keys(hsampler.epoch_tuples(index, np.random.default_rng(seed), hsampler.TupleSpec(), draws))
    counts: dict = {}
    for k in keys:
        counts[k] = counts.get(k, 0) + 1
    return len(counts) / draws, max(counts.values()) / draws


# Spans whose time some per-layer metric reports. The self time of every other
# span in an operation (the `op` loop, `cli.*` bodies, `verification_report`,
# `init_net`) is trace.unaccounted_frac.
ACCOUNTED = {"sampler", "sampler.index", "loss", "loss.mean_embedding", "net.forward",
             "net.backward", "net.adam", "net.checkpoint_write", "net.checkpoint_read", "train",
             "data.synth", "data.manifest_write", "data.manifest_read", "data.split",
             "metrics.embed", "metrics.distance", "metrics.identify", "metrics.scores",
             "metrics.roc", "metrics.eer", "metrics.gar_at_far"}


def per_layer_metrics(run, stats, overhead, sparse):
    """Per-layer metrics: set-up total plus the mean per traced operation."""
    s = stats
    tuples = s.counter("sampler.tuples")
    pairs = [k for k in {k for k, _ in run.rec.counters} if k.startswith("sampler.pair.")]
    sampler_s = s.seconds("sampler", "sampler.index")
    in_ops = s.run >= 1
    op_s = s.dur[s.mask(["op"]) & in_ops].sum()
    unaccounted_s = s.self_time[~s.mask(ACCOUNTED) & in_ops].sum()
    return {
        "sampler.s": sampler_s,
        "sampler.tuples": tuples,
        "sampler.us_per_tuple": 1e6 * sampler_s / tuples,
        "sampler.distinct_frac": s.counter("sampler.distinct") / tuples,
        "sampler.pair_share_max": max(s.counter(k) for k in pairs) / tuples,
        "sampler.sparse_distinct_frac": sparse[0],
        "sampler.sparse_top_share": sparse[1],
        "loss.s": s.seconds("loss"),
        "loss.calls": s.calls("loss"),
        "loss.us_per_tuple": 1e6 * s.seconds("loss") / tuples,
        "loss.mean_embedding_s": s.seconds("loss.mean_embedding"),
        "loss.mean_embedding_calls": s.calls("loss.mean_embedding"),
        "loss.active_frac": run.active_fraction(),
        "net.forward_s": s.seconds("net.forward"),
        "net.forward_rows": s.counter("net.forward_rows"),
        "net.backward_s": s.seconds("net.backward"),
        "net.backward_rows": s.counter("net.backward_rows"),
        "net.adam_s": s.seconds("net.adam"),
        "net.adam_steps": s.calls("net.adam"),
        "net.checkpoint_write_s": s.seconds("net.checkpoint_write"),
        "net.checkpoint_read_s": s.seconds("net.checkpoint_read"),
        "train.s": s.seconds("train"),
        "train.steps": s.calls("net.adam"),
        "train.self_s": s.self_seconds("train"),
        "data.synth_s": s.seconds("data.synth"),
        "data.manifest_write_s": s.seconds("data.manifest_write"),
        "data.manifest_read_s": s.seconds("data.manifest_read"),
        "data.split_s": s.seconds("data.split"),
        "metrics.embed_s": s.seconds("metrics.embed"),
        "metrics.distance_s": s.seconds("metrics.distance"),
        "metrics.identify_s": s.seconds("metrics.identify"),
        "metrics.scores_s": s.seconds("metrics.scores"),
        "metrics.roc_s": s.seconds("metrics.roc"),
        "metrics.eer_s": s.seconds("metrics.eer"),
        "metrics.gar_at_far_s": s.seconds("metrics.gar_at_far"),
        "metrics.pairs": s.counter("metrics.pairs"),
        "metrics.roc_points": s.counter("metrics.roc_points"),
        "metrics.distance_bytes": s.counter("metrics.distance_bytes"),
        "cli.compare_s": s.seconds("cli.compare"),
        "cli.evaluate_s": s.seconds("cli.evaluate.enroll", "cli.evaluate.cross"),
        "trace.overhead_frac": overhead,
        "trace.unaccounted_frac": float(unaccounted_s / op_s),
    }


def fmt_metric(name, value, unit, better, note=""):
    return f"metric {name} = {value:.6g} {unit} ({better} is better){note}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    src = ROOT / "src"
    if not (src / "heteroembed" / "__init__.py").is_file():
        print(f"error: no heteroembed package under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(whys)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import heteroembed

    if not Path(heteroembed.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: heteroembed imported from {heteroembed.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        return bench(args, spec, whys[args.workload], WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(args, spec, why, wl_cls, workdir) -> int:
    import numpy as np

    from spans import Recorder, SpanStats

    trace = bool(args.trace)
    probe_start = host_probe_ms()
    rec = Recorder()
    wl = wl_cls(args.seed, workdir)
    run = Run(rec, wl, args.seed)
    errors: list[str] = []
    untraced_wall = sparse = None
    try:
        rec.install(with_layers=trace)
        state = run.setup(traced=trace)
        if trace:
            untraced_wall = run.op(state, 0)  # reference for the tracing overhead
            rec.tracing = True
        run.loop(state, args.seconds, more_setups=not trace)
    except Exception as exc:  # a library failure is a failed operation, not a crash
        traceback.print_exc()
        run.attempted += 1
        run.failed += 1
        errors.append(f"{type(exc).__name__}: {exc}")
    finally:
        rec.tracing = False
        rec.uninstall()
    if not errors:
        try:
            run.run_checks(workdir)
            if trace:
                sparse = sparse_probe(args.seed)
        except Exception as exc:
            traceback.print_exc()
            run.attempted += 1
            run.failed += 1
            errors.append(f"check raised {type(exc).__name__}: {exc}")

    notes = [f"{wl.name}: {why}"] + [f"error: {e}" for e in errors]
    failed_checks = [c for c in run.checks if not c["ok"]]
    notes += [f"check failed: {c['name']}: {c['detail']}" for c in failed_checks]
    correct = not errors and not failed_checks
    timings = {
        "setup_s": timing(run.setup_s),
        "wall_s": timing(run.wall_s),
        "hetero_tuples_per_s": timing(run.tuples_per_s["hetero"], rate=True),
        "baseline_tuples_per_s": timing(run.tuples_per_s["triplet_baseline"], rate=True),
        "eval_s": timing(run.eval_s),
        "eval_pairs_per_s": timing(run.eval_pairs_per_s, rate=True),
    }
    declared = spec["per_layer" if trace else "end_to_end"]
    values: dict[str, float] = {}
    lines = []
    if not errors and trace:
        stats = SpanStats(rec)
        overhead = run.wall_s[0] / untraced_wall - 1.0  # same input, traced vs not
        # A patched name the library stopped calling would report 0 s and 0
        # calls, which reads as a 100% gain; it fails the run as unmeasured.
        silent = sorted(n for n, c in rec.traced_calls.items() if not c and n not in wl.not_called)
        if silent:
            notes.append("patched names that recorded no traced call: " + ", ".join(silent))
            run.failed += 1
            correct = False
        else:
            values = per_layer_metrics(run, stats, overhead, sparse)
            evaluate_s = values["cli.evaluate_s"]
            notes.append("traced share of evaluation: " + ", ".join(
                f"{k} {values[k] / evaluate_s:.0%}" for k in
                ("metrics.gar_at_far_s", "metrics.distance_s", "metrics.identify_s", "metrics.roc_s")))
        notes.append(f"trace: {len(rec.start)} spans over {stats.n_ops} traced operations; a per-layer "
                     "value is the traced set-up plus the mean per operation; metrics.distance_bytes is "
                     "computed as P*G*D*8, not measured")
        rec.save(OUT / f"{wl.name}-seed{args.seed}.spans.npz")
    elif not errors:
        values = {k: t["median"] for k, t in timings.items()}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values.update(run.quality())
        values["error_rate"] = run.failed / run.attempted
        d1, d2 = values["delta_cross_rank1"], values["delta_cross_eer"]
        notes.append(f"hetero vs triplet baseline on these inputs: delta_cross_rank1 {d1:+.4f}, "
                     f"delta_cross_eer {d2:+.4f}: the paper's claim "
                     f"{'holds' if d1 > 0 and d2 < 0 else 'is not shown'}")
    unmeasured = [m["name"] for m in declared if values and values.get(m["name"]) is None]
    if unmeasured:
        notes.append("no samples for: " + ", ".join(unmeasured))
        run.failed += 1
        correct, values = False, {}
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared if values}
    reported = {}
    if values and not trace:
        reported = {name: {"value": float(values[name]), "unit": unit, "better": better}
                    for name, unit, better in REPORTED}
    shown = [(m["name"], m["unit"], m["better"], []) for m in declared if values]
    shown += [(name, r["unit"], r["better"], ["reported, not gated"]) for name, r in reported.items()]
    for name, unit, better, note in shown:
        t = timings.get(name) if not trace else None
        if t:
            note.append(f"median of n={t['n']}; fastest={t['fastest']:.6g}")
            note.append(f"p{t['tail']['p']:g}={t['tail']['value']:.6g}" if t["tail"]
                        else "no tail percentile (<100 samples)")
        lines.append(fmt_metric(name, values[name], unit, better, f" [{'; '.join(note)}]" if note else ""))

    env = environment(np)
    env["host_probe_ms"] = {"start": probe_start, "end": host_probe_ms()}
    record = {
        "workload": wl.name, "why": why, "seed": args.seed, "seconds": args.seconds,
        "trace": int(trace), "sizes": wl.sizes, "environment": env,
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": metrics, "reported": reported, "timings": timings,
        "samples": {"setup_s": run.setup_s, "wall_s": run.wall_s, "tuples_per_s": run.tuples_per_s,
                    "eval_s": run.eval_s, "eval_pairs_per_s": run.eval_pairs_per_s},
        "quality_by_input": {str(k): v for k, v in run.first.items()},
        "checks": run.checks, "notes": notes,
    }
    (OUT / f"{wl.name}-seed{args.seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    for line in lines:
        print(line)
    for note in notes:
        print(f"note {note}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"checks {len(run.checks) - len(failed_checks)} passed, {len(failed_checks)} failed; "
          f"operations {run.attempted} attempted, {run.failed} failed")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
