"""Data-plane benchmark — the synchronous data plane against a frozen
baseline of the pre-coalescing plane.

Runs PageRank and WCC on a hub-heavy power-law graph at several split
fractions (controlled via the replication threshold):

* **on**  — the data plane (sender-side canonical combining,
  per-(dst, ptype) round coalescing, cumulative batched acks), rerun
  every time,
* **off** — the pre-coalescing plane: one packet per emission, one ack
  per packet, raw batches buffered whole.  That code path is gone; its
  deterministic counters are a recorded baseline, kept in each cell's
  ``"off"`` entry of ``BENCH_dataplane.json`` (see the file's
  ``off_baseline`` note for the commit they were last reproduced at).

Reported per cell:

* logical (dst, val) pairs emitted per wall-clock second,
* data-plane packets and bytes on the wire (VERTEX_MSG + REPLICA_SYNC +
  REPLICA_VALUE + VERTEX_MSG_ACK), and their reduction against the
  frozen baseline,
* the measured split fraction, pairs combined away, acks batched away.

A full run rewrites the ``"on"`` entries of ``BENCH_dataplane.json``
and keeps the frozen ``"off"`` entries.  ``--smoke`` reruns only the
10%-split PageRank cell, asserts that its deterministic counters equal
the committed ``"on"`` values exactly, and gates the >= 2x wire message
reduction against the frozen baseline.
"""

from __future__ import annotations

import gc
import json
import math
import sys
import time
from pathlib import Path

from repro.bench import Table, print_experiment_header
from repro.core import ElGA, PageRank, WCC
from repro.gen import powerlaw_graph
from repro.net.message import PacketType

N_VERTICES = 600
N_EDGES = 4000
ALPHA = 1.8  # heavy hubs: lots of split-vertex choreography
PR_ITERS = 10
SEED = 9
# Thresholds chosen so the measured split fraction lands near the
# labelled mix on this graph (hubs in a Zipf(1.8) degree sequence).
SPLIT_MIXES = {"0%": 10_000, "1%": 120, "10%": 28}
DATA_PTYPES = (
    PacketType.VERTEX_MSG,
    PacketType.REPLICA_SYNC,
    PacketType.REPLICA_VALUE,
    PacketType.VERTEX_MSG_ACK,
)
# Counters that are a pure function of the seed: a rerun must
# reproduce them exactly (wall-clock columns are not among them).
DETERMINISTIC = (
    "pairs_emitted",
    "data_packets",
    "data_bytes",
    "sim_seconds",
    "split_vertices",
    "split_fraction",
    "pairs_combined",
    "acks_batched",
    "checksum",
)
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_dataplane.json"


def _graph():
    us, vs, n = powerlaw_graph(N_VERTICES, N_EDGES, alpha=ALPHA, seed=SEED)
    return us, vs, n


def _program(name: str):
    if name == "pagerank":
        return PageRank(max_iters=PR_ITERS, tol=1e-15)
    return WCC()


def _run_cell(program_name: str, threshold: int, repeats: int = 2) -> dict:
    us, vs, n = _graph()
    # The sim is deterministic, so every repeat produces identical
    # counters and values; repeating only de-noises the wall clock
    # (best-of, GC paused while timed) on a shared/contended host.
    wall = float("inf")
    for _ in range(max(1, repeats)):
        engine = ElGA(
            nodes=2,
            agents_per_node=4,
            seed=SEED,
            replication_threshold=threshold,
            keep_reference=False,
        )
        engine.ingest_edges(us, vs)
        before = engine.cluster.network.stats.snapshot()
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        result = engine.run(_program(program_name))
        wall = min(wall, time.perf_counter() - start)
        gc.enable()

    stats = engine.cluster.network.stats
    agents = list(engine.cluster.agents.values())
    pairs = sum(a.perf.counts.get("dataplane_pairs_emitted", 0) for a in agents)
    packets = sum(
        stats.by_type_count[p] - before.by_type_count[p] for p in DATA_PTYPES
    )
    nbytes = sum(
        stats.by_type_bytes[p] - before.by_type_bytes[p] for p in DATA_PTYPES
    )
    return {
        "wall_seconds": wall,
        "pairs_emitted": int(pairs),
        "pairs_per_sec": pairs / wall,
        "data_packets": int(packets),
        "data_bytes": int(nbytes),
        "sim_seconds": result.sim_seconds,
        "split_vertices": len(engine.cluster.lead.state.split_vertices),
        "split_fraction": len(engine.cluster.lead.state.split_vertices) / n,
        "pairs_combined": sum(a.metrics.pairs_combined for a in agents),
        "acks_batched": sum(a.metrics.acks_batched for a in agents),
        "checksum": float(sum(result.values.values())),
    }


def _cell(program_name: str, mix: str, off: dict) -> dict:
    threshold = SPLIT_MIXES[mix]
    on = _run_cell(program_name, threshold)
    # The baseline reduced each round in one flat fold; the data plane
    # reduces in two canonical levels (per-sender partials, then a
    # cross-sender fold).  For min/max the grouping is irrelevant; for
    # float sums it regroups the additions, so the cells agree to ~1 ulp
    # rather than bitwise.
    assert math.isclose(on["checksum"], off["checksum"], rel_tol=1e-12), (
        f"data plane changed the answer: {on['checksum']} != {off['checksum']}"
    )
    return {
        "replication_threshold": threshold,
        "split_fraction": on["split_fraction"],
        "off": off,
        "on": on,
        "packet_reduction": off["data_packets"] / max(1, on["data_packets"]),
        "byte_reduction": off["data_bytes"] / max(1, on["data_bytes"]),
    }


def run_experiment(smoke: bool = False) -> dict:
    committed = json.loads(RESULT_PATH.read_text())
    cells = (
        [("pagerank", "10%")]
        if smoke
        else [(p, m) for p in ("pagerank", "wcc") for m in SPLIT_MIXES]
    )
    results: dict = {}
    for program_name, mix in cells:
        off = committed["programs"][program_name][mix]["off"]
        results.setdefault(program_name, {})[mix] = _cell(program_name, mix, off)
    payload = {
        "n_vertices": N_VERTICES,
        "n_edges": N_EDGES,
        "alpha": ALPHA,
        "pr_iters": PR_ITERS,
        "split_mixes": {k: v for k, v in SPLIT_MIXES.items()},
        "off_baseline": committed["off_baseline"],
        "programs": results,
    }
    if smoke:
        _assert_reproduces(results, committed)
    else:
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _assert_reproduces(results: dict, committed: dict) -> None:
    for program_name, mixes in results.items():
        for mix, cell in mixes.items():
            want = committed["programs"][program_name][mix]["on"]
            got = cell["on"]
            diff = {k: (got[k], want[k]) for k in DETERMINISTIC if got[k] != want[k]}
            assert not diff, f"{program_name} {mix}: (rerun, committed) {diff}"


def show(payload: dict) -> None:
    print_experiment_header(
        "Data-plane packet and byte reduction",
        "combining + coalescing + batched acks, vs the frozen pre-coalescing baseline",
    )
    table = Table(["program", "mix", "split%", "pairs/s", "pkt ÷", "bytes ÷"])
    for program_name, mixes in payload["programs"].items():
        for mix, cell in mixes.items():
            table.add_row(
                program_name,
                mix,
                100.0 * cell["split_fraction"],
                cell["on"]["pairs_per_sec"],
                cell["packet_reduction"],
                cell["byte_reduction"],
            )
    table.show()
    print(f"[baseline] {payload['off_baseline']['note']}")


def _assert_smoke_bar(cell: dict) -> None:
    # CI gate: combining + coalescing must at least halve the number of
    # data-plane messages on the 10%-split PageRank mix.
    assert cell["packet_reduction"] >= 2.0, cell
    assert cell["byte_reduction"] > 1.0, cell


def test_dataplane_fast_path():
    payload = run_experiment()
    show(payload)
    _assert_smoke_bar(payload["programs"]["pagerank"]["10%"])


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:]
    payload = run_experiment(smoke=smoke)
    show(payload)
    if smoke:
        _assert_smoke_bar(payload["programs"]["pagerank"]["10%"])
        print("[smoke] ok: counters reproduce; >=2x data-plane message reduction")
