"""The repository benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest-churn --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``ingest-churn``,
``pagerank-static``, ``live-serving``.

``--trace 0`` measures the end-to-end metrics: set-up runs three times
(``setup_s`` is the median), then operations run until ``--seconds``
have passed and at least the workload's minimum count is done.
``--trace 1`` makes two passes of a fixed operation count over a fresh
set-up each, first untraced and then with every layer's public calls
wrapped in spans (``tracing.py``).  It reports the per-layer metrics of
the operations alone (set-up excluded), the set-up self times of the
generator and the bulk-load layers under ``setup.*`` and ``gen.*``, and
``trace.overhead_frac``.  It is correct only if both passes' checksums
are bit-identical and every trace site resolved.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``
with the metric names and units listed in ``BENCHMARK.json``.  The
lines before it describe the environment and print every metric, plus
the workload's own named quantities, with units.  Full results (and the
traced run's spans) are written under ``.perfbench-out/``.

The program under test is imported from ``src/`` next to this
directory, with BLAS pinned to one thread and the numpy reference
kernels; the run refuses to start (exit 2, no result line) when ``src/``
is missing or ``REPRO_KERNELS`` is set.  Exit 1 means a correctness
oracle failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 3
#: str/enum hashing changes dict and set layouts in the program, which
#: moves host times by several percent from one process to the next;
#: every run uses the same hash seed so runs differ only by their input.
HASH_SEED = "0"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class Refused(RuntimeError):
    """The environment is not the one the benchmark measures."""


def prepare() -> None:
    """Pin threads and point imports at ``src/``, before numpy loads."""
    if "REPRO_KERNELS" in os.environ:
        raise Refused(
            "REPRO_KERNELS is set; the benchmark measures the package's default "
            "kernel backend only"
        )
    if not (SRC / "repro" / "__init__.py").is_file():
        raise Refused(f"no program to measure: {SRC / 'repro'} is missing")
    if not SPEC.is_file():
        raise Refused(f"{SPEC.name} is missing")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise Refused(f"imported repro from {repro.__file__}, not from {SRC}")


def git_commit():
    """HEAD of the checkout's git repository, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """SHA-256 over every file of the program (path and bytes), so a
    result names the exact source it measured even without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def describe(args) -> dict:
    import numpy
    import scipy

    from repro import kernels

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "kernels_backend": kernels.backend(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed numpy-plus-interpreter loop, with the
    collector off: how fast this host ran while the run was measured.
    Host speed drifts on a shared machine; this is reported next to the
    metrics, never folded into them."""
    import numpy as np

    keys = np.random.default_rng(0).integers(0, 1 << 40, size=100_000)
    table = {i: i for i in range(50_000)}
    times = []
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            np.sort(keys)
            sum(table[i] for i in range(50_000))
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    times.sort()
    return times[len(times) // 2] * 1e3


def run_ops(wl, n_max: int, n_min: int, seconds: float) -> float:
    """Run operations until ``seconds`` passed and ``n_min`` are done
    (or inputs run out, or one raises); returns the window's length."""
    clock = time.perf_counter
    start = clock()
    i = 0
    while i < n_max and (i < n_min or clock() - start < seconds):
        try:
            wl.step(i, clock)
        except Exception:
            wl.errors.append(traceback.format_exc())
            print(wl.errors[-1], file=sys.stderr)
            break
        i += 1
    return clock() - start


def measure(cls, seed: int, seconds: float):
    """The untraced run: inputs, median-of-three set-up, then the timed
    window.  ``peak_rss_mb`` is read before the oracles run."""
    inputs = cls.make_inputs(seed, cls.max_ops)
    setups = []
    for _ in range(SETUP_REPEATS):
        wl = None
        gc.collect()
        wl = cls(seed, inputs)
        start = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - start)
    wl.start()
    gc.collect()
    probe_before = host_probe_ms()
    window = run_ops(wl, cls.max_ops, cls.min_ops, seconds)
    rss = peak_rss_mb()
    probe_after = host_probe_ms()
    res = wl.finish(window)
    res.errors = wl.errors
    res.named["host_probe_ms"] = ([probe_before, probe_after], "ms")
    res.named["window_s"] = (window, "s")
    setups.sort()
    res.metrics["setup_s"] = setups[len(setups) // 2]
    res.metrics["peak_rss_mb"] = rss
    res.named["setup_runs_s"] = (setups, "s")
    res.named["failed_frac"] = (res.failed / res.attempted, "ratio")
    return res


#: Set-up-phase self times reported next to the operations' figures:
#: the generator and the bulk-load path, which move ``setup_s``.
SETUP_LAYERS = (
    "gen.rmat",
    "cluster.edgestore.apply",
    "sketch.add",
    "partition.owner_of_edges",
    "hashing.wang64",
)


def snapshot(tracer, engine) -> dict:
    """Every cumulative per-layer quantity of a traced pass so far: span
    self times and counts, plus counters the program already keeps
    (placement cache, fabric, simulator, serving plane)."""
    values = {f"{name}.self_s": s for name, s in tracer.self_s.items()}
    values.update(tracer.counts)
    placement = engine.placement_counters().counts
    serving = engine.serving_stats()
    values.update(
        {
            "placement_hits": placement.get("placement_cache_hits", 0),
            "placement_misses": placement.get("placement_cache_misses", 0),
            "serving_hits": serving.get("serving_cache_hits", 0),
            "serving_misses": serving.get("serving_cache_misses", 0),
            "cluster.client.coalesced": serving.get("client_queries_coalesced", 0),
            "net.bytes": engine.cluster.network.stats.bytes_sent,
            "sim.events": engine.cluster.kernel.events_processed,
        }
    )
    return values


def one_pass(cls, seed: int, inputs, tracer=None):
    """Set-up plus ``trace_ops`` operations, traced or not.  Returns the
    workload, its result, the operations' wall time and, when traced,
    the patched sites and the per-layer snapshots after set-up and after
    the operations."""
    import tracing

    installed = tracing.install(tracer) if tracer is not None else None
    try:
        wl = cls(seed, inputs)
        wl.setup()
        wl.start()
        before = snapshot(tracer, wl.engine) if tracer is not None else None
        wall = run_ops(wl, cls.trace_ops, cls.trace_ops, 0.0)
        after = snapshot(tracer, wl.engine) if tracer is not None else None
    finally:
        if installed is not None:
            tracing.uninstall(installed)
    res = wl.finish(wall)
    res.errors = wl.errors
    return wl, res, wall, installed, (before, after)


def layer_metrics(before: dict, after: dict, res, overhead: float) -> dict:
    """The operations' share of every per-layer quantity (after set-up
    to the end of the pass), plus the set-up share of ``SETUP_LAYERS``."""
    ops = {name: value - before.get(name, 0) for name, value in after.items()}
    values = {name: value for name, value in ops.items() if not name.startswith("gen.")}
    values["gen.rmat.self_s"] = before.get("gen.rmat.self_s", 0.0)
    for layer in SETUP_LAYERS[1:]:
        values[f"setup.{layer}.self_s"] = before.get(f"{layer}.self_s", 0.0)
    hits, misses = ops["placement_hits"], ops["placement_misses"]
    s_hits, s_misses = ops["serving_hits"], ops["serving_misses"]
    values.update(
        {
            "partition.cache_hit_ratio": hits / max(hits + misses, 1),
            "core.delta_share": ops.get("core.run.strategy_delta", 0)
            / max(ops.get("core.run.incremental", 0), 1),
            "serving.cache.hit_ratio": s_hits / max(s_hits + s_misses, 1),
            "serving.query_p50_us": res.named.get("query_p50_us", (0.0,))[0],
            "serving.query_p99_us": res.named.get("query_p99_us", (0.0,))[0],
            "trace.overhead_frac": overhead,
        }
    )
    return values


def trace_run(cls, seed: int, args):
    import tracing

    inputs = cls.make_inputs(seed, cls.trace_ops)
    _, plain, plain_wall, _, _ = one_pass(cls, seed, inputs)
    gc.collect()
    tracer = tracing.Tracer()
    wl, res, wall, installed, (before, after) = one_pass(cls, seed, inputs, tracer)
    res.checks["traced_checksum_matches_untraced"] = res.checksum == plain.checksum
    res.checks["untraced_pass_correct"] = plain.correct
    # A site that no longer resolves would read as a layer doing no work.
    res.checks["trace_sites_resolved"] = not installed.missing
    if not (res.checks["traced_checksum_matches_untraced"] and res.checks["trace_sites_resolved"]):
        res.failed = max(res.failed, 1)
    res.metrics = layer_metrics(before, after, res, wall / plain_wall - 1.0)
    res.named["untraced_ops_wall_s"] = (plain_wall, "s")
    res.named["traced_ops_wall_s"] = (wall, "s")
    res.named["spans"] = (tracer.n_spans, "count")
    res.named["failed_frac"] = (res.failed / res.attempted, "ratio")
    res.missing_sites = installed.missing
    tracer.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
    return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        prepare()
    except Refused as exc:
        print(f"perfbench: refusing to run: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    spec = json.loads(SPEC.read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = describe(args)
    print(json.dumps({"env": env}))
    cls = WORKLOADS[args.workload]
    res = trace_run(cls, args.seed, args) if args.trace else measure(cls, args.seed, args.seconds)

    def value(name: str) -> float:
        # A layer the workload's operations never call reads zero; every
        # end-to-end metric must have been measured.
        return float(res.metrics.get(name, 0.0) if args.trace else res.metrics[name])

    metrics = {m["name"]: {"value": value(m["name"]), "unit": m["unit"]} for m in listed}
    for name, item in metrics.items():
        print(f"{name:44s} {item['value']:>18.6g} {item['unit']}")
    for name, (value, unit) in res.named.items():
        print(f"  {args.workload}.{name:40s} {value} {unit}")
    for check, ok in res.checks.items():
        print(f"  check {check}: {'ok' if ok else 'FAILED'}")
    if res.missing_sites:
        print(f"  unresolved trace sites: {res.missing_sites}")
    record = {
        "env": env,
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "checks": res.checks,
        "checksum": res.checksum,
        "metrics": metrics,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in res.named.items()},
        "missing_trace_sites": res.missing_sites,
        "errors": res.errors,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(
        json.dumps(
            {
                "correct": res.correct,
                "attempted": int(res.attempted),
                "failed": int(res.failed),
                "metrics": metrics,
            }
        )
    )
    return 0 if res.correct else 1


def pin_hash_seed() -> None:
    """Re-execute this interpreter (same process) under ``HASH_SEED``."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
