"""The benchmark's own tests.

Run from the repository root::

    python -m pytest perfbench -q

The coverage test makes one traced run per workload (about a minute
and a half in all) and checks that every per-layer metric is nonzero on
the workload that exercises that layer, which catches a wrapper left on
a dead import site.  The traced figures cover the operations only, so a
layer counts as exercised only when the operations call it; the
``setup.*`` and ``gen.*`` figures are the set-up's.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

#: Per-layer metrics that must be nonzero on each workload's traced run.
EXERCISED = {
    "ingest-churn": [
        "cluster.edgestore.apply.calls",
        "cluster.edgestore.apply.rows",
        "cluster.edgestore.apply.shard_rows",
        "cluster.edgestore.apply.self_s",
        "sketch.add.keys",
        "sketch.add.self_s",
        "sketch.query.calls",
        "sketch.query.keys",
        "sketch.query.self_s",
        "partition.owner_of_edges.calls",
        "partition.owner_of_edges.rows",
        "partition.owner_of_edges.self_s",
        "partition.replication_factor.calls",
        "partition.replication_factor.self_s",
        "partition.cache_hit_ratio",
        "hashing.wang64.keys",
        "hashing.wang64.self_s",
        "hashing.ring.self_s",
        "cluster.recovery.wal_append.rows",
        "cluster.recovery.wal_append.self_s",
        "cluster.recovery.snapshot_agent.calls",
        "cluster.recovery.snapshot_agent.self_s",
        "cluster.streamer.stream_batch.self_s",
        "cluster.directory.handle_message.self_s",
        "net.send.calls",
        "net.send.self_s",
        "net.bytes",
        "sim.events",
        "sim.run.self_s",
        "cluster.agent.handle_message.calls",
        "cluster.agent.handle_message.self_s",
        "core.apply_batch.self_s",
        "gen.rmat.self_s",
    ],
    "pagerank-static": [
        "cluster.dataplane.combine_pairs.pairs_in",
        "cluster.dataplane.combine_pairs.pairs_out",
        "cluster.dataplane.combine_pairs.self_s",
        "kernels.combine_pairs.rows",
        "kernels.combine_pairs.self_s",
        "kernels.fold_pairs.rows",
        "kernels.fold_pairs.self_s",
        "kernels.pagerank_apply.self_s",
        "partition.owner_of_edges.rows",
        "net.send.calls",
        "net.bytes",
        "sim.events",
        "sim.run.self_s",
        "cluster.agent.handle_message.calls",
        "cluster.agent.handle_message.self_s",
        "core.run.calls",
        "core.run.steps",
        "core.run.self_s",
        "gen.rmat.self_s",
        "setup.cluster.edgestore.apply.self_s",
        "setup.sketch.add.self_s",
        "setup.partition.owner_of_edges.self_s",
        "setup.hashing.wang64.self_s",
    ],
    "live-serving": [
        "cluster.edgestore.apply.rows",
        "cluster.edgestore.apply.self_s",
        "sketch.add.keys",
        "sketch.query.keys",
        "partition.owner_of_edges.rows",
        "hashing.wang64.keys",
        "cluster.dataplane.combine_pairs.pairs_in",
        "kernels.fold_pairs.rows",
        "core.apply_batch.self_s",
        "core.quiesce.self_s",
        "core.run.calls",
        "core.run.steps",
        "core.run.self_s",
        "core.delta_share",
        "cluster.client.query.calls",
        "cluster.client.query.self_s",
        "cluster.client.coalesced",
        "serving.cache.hit_ratio",
        "serving.query_p50_us",
        "serving.query_p99_us",
        "gen.rmat.self_s",
    ],
}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_per_layer_metric_is_covered_somewhere():
    per_layer = {m["name"] for m in _spec()["per_layer"]}
    covered = {name for names in EXERCISED.values() for name in names}
    assert covered <= per_layer
    assert per_layer - covered == {"trace.overhead_frac"}


def test_every_trace_site_resolves():
    tracer = tracing.Tracer()
    done = tracing.install(tracer)
    try:
        assert done.missing == []
    finally:
        tracing.uninstall(done)


def test_uninstall_restores_originals():
    from repro.cluster import agent, dataplane
    from repro.cluster.edgestore import EdgeStore
    from repro.hashing import hashes

    before = (EdgeStore.apply, agent.combine_pairs, dataplane.combine_pairs, hashes.HASH_FUNCTIONS["wang"])
    done = tracing.install(tracing.Tracer())
    assert EdgeStore.apply is not before[0]
    assert hashes.HASH_FUNCTIONS["wang"] is not before[3]
    tracing.uninstall(done)
    after = (EdgeStore.apply, agent.combine_pairs, dataplane.combine_pairs, hashes.HASH_FUNCTIONS["wang"])
    assert all(a is b for a, b in zip(before, after))


def test_self_time_excludes_children_and_counts_outermost_only():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return None

    def inner_same_name(depth):
        return recurse(depth - 1) if depth else leaf_traced()

    leaf_traced = tracing.wrap(tracer, leaf, "leaf")
    recurse = tracing.wrap(tracer, inner_same_name, "outer", pre=lambda a, k: [("rows", 5)])
    recurse(2)  # outer > outer > outer > leaf
    # Clock reads: outer enters 0,1,2; leaf 3..4; outers exit 5,6,7.
    assert tracer.self_s["leaf"] == 1.0
    assert tracer.self_s["outer"] == 7.0 - 1.0
    assert tracer.counts["outer.calls"] == 1
    assert tracer.counts["outer.rows"] == 5
    assert tracer.n_spans == 4
    assert list(tracer.span_parent) == [-1, 0, 1, 2]


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_traced_run_covers_its_layers(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in _spec()["per_layer"]}
    dead = [name for name in EXERCISED[workload] if not metrics[name]["value"] > 0]
    assert dead == [], f"per-layer metrics read zero on {workload}: {dead}"
    assert "unresolved trace sites" not in proc.stdout
