"""The benchmark's three workloads, their input generators and oracles.

Every workload follows one shape, driven by ``run.py``:

* ``make_inputs(seed, n)`` — generate the first ``n`` operations'
  inputs (churn batches, query stream seeds) from the workload seed,
  before any engine exists.  Untimed: the program only ever sees
  generated inputs, and the generator's transient memory does not
  stack on the engine's.
* ``Workload(seed, inputs).setup()`` — generate the base graph from the
  seed, build the engine and preload it (plus a warm-up or fixpoint
  run).  Timed as ``setup_s``.
* ``start()`` — bind the inputs to the engine (query streams need its
  proxies) and reset the accumulators.  Untimed.
* ``step(i)`` — operation ``i``, timed on both clocks.
* ``finish()`` — correctness oracles, a checksum of everything the
  program returned, and the metrics.

End-to-end metrics use one name per quantity across workloads; what an
"op" and a unit of "work" are differs per workload (README.md has the
table).
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core import ElGA, PageRank
from repro.gen import rmat
from repro.graph.stream import EdgeBatch
from repro.serving import OpenLoopWorkload

#: Fixed engine shape and engine seed; only the workload seed varies.
ENGINE = dict(nodes=2, agents_per_node=2, seed=7)
EDGE_FACTOR = 8
DAMPING = 0.85
#: Edges changed per batch as a fraction of |E|: k deletes plus k
#: inserts with k = BATCH_FRAC * |E|, the ``BATCH_FRAC`` and
#: ``churn_batch`` shape of benchmarks/bench_incremental.py.
BATCH_FRAC = 0.001

_MASK32 = (1 << 32) - 1


def pack(us, vs) -> np.ndarray:
    """Edge (u, v) as one int64 key ``u << 32 | v``."""
    return (np.asarray(us, dtype=np.int64) << 32) | np.asarray(vs, dtype=np.int64)


def base_graph(scale: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """RMAT edges for the workload seed (deduplicated, no self-loops)."""
    us, vs, _ = rmat.rmat_graph(scale, edge_factor=EDGE_FACTOR, seed=seed)
    return us, vs


def percentile(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def pagerank_oracle(
    keys: np.ndarray, iters: int, tol: float = 0.0
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Scipy power iteration with the engine's semantics.

    Vertices are those with an incident edge, ranks start at 1/n, each
    vertex scatters rank/out-degree and dangling mass is not
    redistributed.  Runs ``iters`` iterations, or stops earlier once
    the L1 change drops below ``tol``.  Returns (vertex ids, ranks,
    iterations run).
    """
    us, vs = keys >> 32, keys & _MASK32
    ids = np.unique(np.concatenate([us, vs]))
    n = len(ids)
    src = np.searchsorted(ids, us)
    dst = np.searchsorted(ids, vs)
    out_deg = np.bincount(src, minlength=n).astype(np.float64)
    matrix = sp.csr_matrix((1.0 / out_deg[src], (dst, src)), shape=(n, n))
    ranks = np.full(n, 1.0 / n)
    base = (1.0 - DAMPING) / n
    done = 0
    for done in range(1, iters + 1):
        new = base + DAMPING * (matrix @ ranks)
        change = float(np.abs(new - ranks).sum())
        ranks = new
        if change < tol:
            break
    return ids, ranks, done


def value_array(values: Dict[int, float]) -> Tuple[np.ndarray, np.ndarray]:
    """A run's vertex -> value dict as (sorted ids, values)."""
    ids = np.fromiter(values.keys(), dtype=np.int64, count=len(values))
    vals = np.fromiter(values.values(), dtype=np.float64, count=len(values))
    order = np.argsort(ids)
    return ids[order], vals[order]


def resident_keys(engine: ElGA) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted packed keys of every resident out-copy and in-copy."""
    out_parts, in_parts = [], []
    for agent in engine.cluster.agents.values():
        keys, others = agent.out_store.arrays()
        out_parts.append(pack(keys, others))
        keys, others = agent.in_store.arrays()
        in_parts.append(pack(others, keys))
    return np.sort(np.concatenate(out_parts)), np.sort(np.concatenate(in_parts))


class LiveEdges:
    """The generator's own edge set: O(1) insert, delete and uniform pick."""

    def __init__(self, keys: np.ndarray) -> None:
        self.keys: List[int] = keys.tolist()
        self.pos: Dict[int, int] = {k: i for i, k in enumerate(self.keys)}

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, key: int) -> bool:
        return key in self.pos

    def add(self, key: int) -> None:
        self.pos[key] = len(self.keys)
        self.keys.append(key)

    def remove(self, key: int) -> None:
        i = self.pos.pop(key)
        last = self.keys.pop()
        if i < len(self.keys):
            self.keys[i] = last
            self.pos[last] = i


def to_batch(deletes: List[int], inserts: List[int], rng) -> EdgeBatch:
    keys = np.array(deletes + inserts, dtype=np.int64)
    actions = np.concatenate([np.full(len(deletes), -1), np.ones(len(inserts))])
    order = rng.permutation(len(keys))
    keys = keys[order]
    return EdgeBatch(actions[order], keys >> 32, keys & _MASK32)


def replay(base: np.ndarray, batches: List[EdgeBatch]) -> np.ndarray:
    """Sorted keys of the edge set after applying ``batches`` to ``base``."""
    live = set(base.tolist())
    for batch in batches:
        for key, action in zip(pack(batch.us, batch.vs).tolist(), batch.actions.tolist()):
            (live.add if action > 0 else live.discard)(key)
    return np.sort(np.fromiter(live, dtype=np.int64, count=len(live)))


def holds_exactly(engine: ElGA, expected: np.ndarray) -> Tuple[bool, tuple]:
    """Whether every edge is resident exactly once as an out-copy and
    once as an in-copy, and nothing else is; plus the resident keys."""
    out_keys, in_keys = resident_keys(engine)
    ok = np.array_equal(out_keys, expected) and np.array_equal(in_keys, expected)
    return bool(ok), (out_keys, in_keys)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


class Result:
    """What ``finish()`` hands back to the runner."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.named: Dict[str, Tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, bool] = {}
        self.checksum = ""
        self.errors: List[str] = []
        self.missing_sites: List[str] = []

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


class Workload:
    name = ""
    #: Operations every untraced run makes, whatever ``--seconds`` says.
    min_ops = 1
    #: Inputs generated up front; an untraced run stops here at the latest.
    max_ops = 1
    #: Fixed operation count of each pass of the traced run.
    trace_ops = 1

    def __init__(self, seed: int, inputs: SimpleNamespace) -> None:
        self.seed = int(seed)
        self.inputs = inputs
        self.engine: Optional[ElGA] = None
        self.errors: List[str] = []
        self.ops = 0

    @classmethod
    def make_inputs(cls, seed: int, n: int) -> SimpleNamespace:
        return SimpleNamespace()


def input_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


# -- ingest-churn ---------------------------------------------------------------


class IngestChurn(Workload):
    name = "ingest-churn"
    scale = 15
    min_ops = 100
    max_ops = 400
    trace_ops = 30

    @classmethod
    def make_inputs(cls, seed: int, n: int) -> SimpleNamespace:
        """Batches of k deletes of live edges and k inserts of new edges
        whose endpoints are drawn in proportion to current degree
        (k = BATCH_FRAC * |E|); no edge is both deleted and inserted in
        a batch."""
        rng = input_rng(seed, 1)
        live = LiveEdges(pack(*base_graph(cls.scale, seed)))
        k = max(1, int(len(live) * BATCH_FRAC))
        batches: List[EdgeBatch] = []
        for _ in range(n):
            picks = rng.choice(len(live), k, replace=False)
            deletes = [live.keys[i] for i in picks]
            gone = set(deletes)
            inserts: List[int] = []
            chosen = set()
            while len(inserts) < k:
                iu = rng.integers(len(live), size=2 * k)
                iv = rng.integers(len(live), size=2 * k)
                for a, b in zip(iu.tolist(), iv.tolist()):
                    u, v = live.keys[a] >> 32, live.keys[b] & _MASK32
                    key = (u << 32) | v
                    if u == v or key in live or key in gone or key in chosen:
                        continue
                    chosen.add(key)
                    inserts.append(key)
                    if len(inserts) == k:
                        break
            for key in deletes:
                live.remove(key)
            for key in inserts:
                live.add(key)
            batches.append(to_batch(deletes, inserts, rng))
        return SimpleNamespace(batches=batches)

    def setup(self) -> None:
        us, vs = base_graph(self.scale, self.seed)
        self.base = pack(us, vs)
        self.engine = ElGA(**ENGINE)
        self.engine.ingest_edges(us, vs)

    def start(self) -> None:
        self.batches = self.inputs.batches
        self.wall: List[float] = []
        self.sim: List[float] = []
        self.ack_sim: List[float] = []
        self.edges = 0

    def step(self, i: int, clock) -> None:
        batch = self.batches[i]
        kernel = self.engine.cluster.kernel
        s0 = kernel.now
        t0 = clock()
        report = self.engine.apply_batch(batch)
        self.wall.append(clock() - t0)
        self.sim.append(kernel.now - s0)
        self.ack_sim.append(report["sim_seconds"])
        self.edges += len(batch)
        self.ops += 1

    def finish(self, window_s: float) -> Result:
        res = Result()
        res.attempted = max(1, self.ops)
        res.failed = len(self.errors)
        ok, resident = holds_exactly(self.engine, replay(self.base, self.batches[: self.ops]))
        res.checks["resident_edges_match_generator"] = ok
        if not ok:
            res.failed = res.attempted
        sim_total = float(np.sum(self.sim))
        res.metrics = {
            "wall_work_per_s": self.edges / window_s,
            "wall_op_p50_ms": percentile(self.wall, 50) * 1e3,
            "wall_op_p90_ms": percentile(self.wall, 90) * 1e3,
            "sim_work_per_s": self.edges / sim_total,
            # Stream start to the last agent's acknowledgement; the
            # sketch flush after it is paced by the broadcast interval,
            # which sim_work_per_s already shows.
            "sim_op_p50_ms": percentile(self.ack_sim, 50) * 1e3,
        }
        m = res.metrics
        res.named = {
            "ingest_edges_per_s": (m["wall_work_per_s"], "1/s"),
            "ingest_batch_p50_ms": (m["wall_op_p50_ms"], "ms"),
            "ingest_batch_p90_ms": (m["wall_op_p90_ms"], "ms"),
            "ingest_sim_edges_per_s": (m["sim_work_per_s"], "1/s"),
            "ingest_batch_ack_sim_p50_ms": (m["sim_op_p50_ms"], "ms"),
            "ingest_batch_sim_p50_ms": (percentile(self.sim, 50) * 1e3, "ms"),
            "batches": (self.ops, "count"),
            "edges_applied": (self.edges, "count"),
        }
        res.checksum = digest(*resident, np.asarray(self.sim), np.asarray(self.ack_sim))
        return res


# -- pagerank-static --------------------------------------------------------------


class PageRankStatic(Workload):
    name = "pagerank-static"
    scale = 16
    supersteps = 5
    tol = 1e-15
    min_ops = 10
    max_ops = 10**9
    trace_ops = 3

    def program(self) -> PageRank:
        return PageRank(max_iters=self.supersteps, tol=self.tol)

    def setup(self) -> None:
        us, vs = base_graph(self.scale, self.seed)
        self.keys = np.sort(pack(us, vs))
        self.engine = ElGA(**ENGINE)
        self.engine.ingest_edges(us, vs)
        self.engine.run(self.program())

    def start(self) -> None:
        self.m = self.engine.global_m
        self.wall: List[float] = []
        self.sim_step: List[float] = []
        self.sim_total = 0.0
        self.steps = 0
        self.first: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.repeats_identical = True
        self.step_counts_ok = True

    def step(self, i: int, clock) -> None:
        t0 = clock()
        result = self.engine.run(self.program())
        self.wall.append(clock() - t0)
        self.sim_step.append(result.sim_seconds / result.steps)
        self.sim_total += result.sim_seconds
        self.steps += result.steps
        self.step_counts_ok &= result.steps == self.supersteps
        values = value_array(result.values)
        if self.first is None:
            self.first = values
        elif not (
            values[0].tobytes() == self.first[0].tobytes()
            and values[1].tobytes() == self.first[1].tobytes()
        ):
            self.repeats_identical = False
        self.ops += 1

    def finish(self, window_s: float) -> Result:
        res = Result()
        res.attempted = max(1, self.ops)
        res.failed = len(self.errors)
        ids, ranks, _ = pagerank_oracle(self.keys, self.supersteps)
        got_ids, got = self.first
        res.checks["fixed_length_runs"] = bool(self.step_counts_ok)
        res.checks["matches_scipy_oracle"] = bool(
            np.array_equal(ids, got_ids) and float(np.abs(got - ranks).sum()) <= self.tol
        )
        res.checks["repeat_runs_bit_identical"] = bool(self.repeats_identical)
        if not all(res.checks.values()):
            res.failed = res.attempted
        work = float(self.m) * self.steps
        res.metrics = {
            "wall_work_per_s": work / float(np.sum(self.wall)),
            "wall_op_p50_ms": percentile(self.wall, 50) * 1e3,
            "wall_op_p90_ms": percentile(self.wall, 90) * 1e3,
            "sim_work_per_s": work / self.sim_total,
            "sim_op_p50_ms": percentile(self.sim_step, 50) * 1e3,
        }
        m = res.metrics
        res.named = {
            "pagerank_edges_per_s": (m["wall_work_per_s"], "1/s"),
            "pagerank_run_p50_ms": (m["wall_op_p50_ms"], "ms"),
            "pagerank_run_p90_ms": (m["wall_op_p90_ms"], "ms"),
            "pagerank_sim_edges_per_s": (m["sim_work_per_s"], "1/s"),
            "pagerank_sim_step_ms": (self.sim_total / max(self.steps, 1) * 1e3, "ms"),
            "runs": (self.ops, "count"),
            "resident_edges": (self.m, "count"),
        }
        res.checksum = digest(got_ids, got, repr(self.sim_step[:1]))
        return res


# -- live-serving ------------------------------------------------------------------


class LiveServing(Workload):
    name = "live-serving"
    # RMAT-13 rather than 14: a 100-cycle run at RMAT-14 takes ~50 s on a
    # 2-core host, which the benchmark's total time budget cannot carry.
    scale = 13
    # The incremental halting tolerance and activation threshold of
    # benchmarks/bench_incremental.py, and its comparison bar.
    inc_tol = 2e-6
    delta_tol = 1e-8
    oracle_bar = 1e-5
    # Offered load and client population of benchmarks/bench_serving.py
    # (HEADLINE_RATE, N_CLIENTS); each cycle's burst lasts query_window
    # simulated seconds.
    query_rate = 150_000.0
    query_window = 0.005
    n_clients = 200_000
    n_proxies = 2
    min_ops = 100
    max_ops = 200
    trace_ops = 30
    # Hub splitting is elasticity machinery; a split hub would force the
    # dense fallback instead of the delta engine this workload exercises.
    engine_overrides = dict(replication_threshold=10**9)

    def program(self) -> PageRank:
        return PageRank(max_iters=400, tol=self.inc_tol, delta_tol=self.delta_tol)

    def setup(self) -> None:
        us, vs = base_graph(self.scale, self.seed)
        self.base = pack(us, vs)
        self.engine = ElGA(**ENGINE, **self.engine_overrides)
        self.engine.ingest_edges(us, vs)
        self.last = self.engine.run(self.program())
        cluster = self.engine.cluster
        self.proxies = [cluster.new_client(node=i % 2) for i in range(self.n_proxies)]
        for proxy in self.proxies:
            proxy.audit = []

    @classmethod
    def make_inputs(cls, seed: int, n: int) -> SimpleNamespace:
        """Vertex-preserving churn (the shape of bench_incremental's
        ``churn_batch``): k deletes of edges whose endpoints keep degree
        >= 2, k inserts between existing vertices; plus the seed of one
        open-loop Zipf query stream per cycle."""
        rng = input_rng(seed, 2)
        base = pack(*base_graph(cls.scale, seed))
        live = LiveEdges(base)
        us, vs = base >> 32, base & _MASK32
        verts, counts = np.unique(np.concatenate([us, vs]), return_counts=True)
        deg = dict(zip(verts.tolist(), counts.tolist()))
        k = max(1, int(len(base) * BATCH_FRAC))
        batches: List[EdgeBatch] = []
        stream_seeds: List[int] = []
        for _ in range(n):
            deletes: List[int] = []
            while len(deletes) < k:
                for i in rng.integers(len(live), size=2 * k).tolist():
                    key = live.keys[i]
                    u, v = key >> 32, key & _MASK32
                    if key in deletes or deg[u] < 2 or deg[v] < 2:
                        continue
                    deletes.append(key)
                    deg[u] -= 1
                    deg[v] -= 1
                    if len(deletes) == k:
                        break
            gone = set(deletes)
            inserts: List[int] = []
            while len(inserts) < k:
                pu = rng.choice(verts, size=2 * k).tolist()
                pv = rng.choice(verts, size=2 * k).tolist()
                for u, v in zip(pu, pv):
                    key = (u << 32) | v
                    if u == v or key in live or key in gone or key in inserts:
                        continue
                    inserts.append(key)
                    deg[u] += 1
                    deg[v] += 1
                    if len(inserts) == k:
                        break
            for key in deletes:
                live.remove(key)
            for key in inserts:
                live.add(key)
            batches.append(to_batch(deletes, inserts, rng))
            stream_seeds.append(int(rng.integers(2**31)))
        return SimpleNamespace(batches=batches, verts=verts, stream_seeds=stream_seeds)

    def start(self) -> None:
        """Build every cycle's query stream on this engine's proxies."""
        self.batches = self.inputs.batches
        self.streams = [
            OpenLoopWorkload(
                self.proxies,
                self.inputs.verts,
                "pagerank",
                rate=self.query_rate,
                duration=self.query_window,
                n_clients=self.n_clients,
                seed=seed,
            )
            for seed in self.inputs.stream_seeds
        ]
        self.refresh_wall: List[float] = []
        self.refresh_sim: List[float] = []
        self.query_wall = 0.0
        self.query_lat: List[float] = []
        self.delivered = 0
        self.queries = 0
        self.query_failures = 0
        self.stale = 0
        self.churn_edges = 0
        self.strategies: Dict[str, int] = {}
        self.sims: List[float] = []

    def step(self, i: int, clock) -> None:
        engine = self.engine
        kernel = engine.cluster.kernel
        batch = self.batches[i]
        s0 = kernel.now
        t0 = clock()
        engine.apply_batch(batch)
        engine.quiesce()
        result = engine.run(self.program(), incremental=True)
        t1 = clock()
        self.refresh_wall.append(t1 - t0)
        self.refresh_sim.append(kernel.now - s0)
        self.churn_edges += len(batch)
        self.strategies[result.strategy] = self.strategies.get(result.strategy, 0) + 1
        self.last = result
        stream = self.streams[i]
        t2 = clock()
        stream.start()
        engine.cluster.settle()
        self.query_wall += clock() - t2
        self.queries += stream.n_queries
        self.delivered += stream.delivered
        # A query fails if it was shed and never delivered (dropped after
        # its resubmits), never sent, or its reply never came back.
        never_sent = stream.n_queries - (stream.submitted - stream.resubmitted)
        self.query_failures += stream.dropped + stream.outstanding + never_sent
        for proxy in self.proxies:
            for record in proxy.audit:
                if record["value"] != result.values.get(record["vertex"]):
                    self.stale += 1
            proxy.audit.clear()
            self.query_lat.extend(proxy.latencies)
            proxy.latencies.clear()
        self.sims.append(kernel.now)
        self.ops += 1

    def finish(self, window_s: float) -> Result:
        res = Result()
        res.attempted = max(1, 2 * self.ops + self.queries)
        res.failed = len(self.errors) + self.stale + self.query_failures
        expected = replay(self.base, self.batches[: self.ops])
        res.checks["resident_edges_match_generator"], _ = holds_exactly(self.engine, expected)
        ids, ranks, _ = pagerank_oracle(expected, 1000, tol=1e-13)
        got_ids, got = value_array(self.last.values)
        err = float(np.abs(got - ranks).max()) if np.array_equal(ids, got_ids) else np.inf
        res.checks["incremental_matches_oracle"] = err < self.oracle_bar
        res.checks["zero_stale_reads"] = self.stale == 0
        res.checks["no_lost_queries"] = self.query_failures == 0
        if not res.checks["incremental_matches_oracle"] or not res.checks[
            "resident_edges_match_generator"
        ]:
            res.failed += 1
        res.metrics = {
            "wall_work_per_s": self.delivered / self.query_wall,
            "wall_op_p50_ms": percentile(self.refresh_wall, 50) * 1e3,
            "wall_op_p90_ms": percentile(self.refresh_wall, 90) * 1e3,
            "sim_work_per_s": self.churn_edges / float(np.sum(self.refresh_sim)),
            "sim_op_p50_ms": percentile(self.refresh_sim, 50) * 1e3,
        }
        m = res.metrics
        res.named = {
            "queries_per_wall_s": (m["wall_work_per_s"], "1/s"),
            "refresh_p50_ms": (m["wall_op_p50_ms"], "ms"),
            "refresh_p90_ms": (m["wall_op_p90_ms"], "ms"),
            "refresh_sim_edges_per_s": (m["sim_work_per_s"], "1/s"),
            "refresh_sim_p50_ms": (m["sim_op_p50_ms"], "ms"),
            "query_p50_us": (percentile(self.query_lat, 50) * 1e6, "us"),
            "query_p99_us": (percentile(self.query_lat, 99) * 1e6, "us"),
            "queries": (self.queries, "count"),
            "cycles": (self.ops, "count"),
            "oracle_max_err": (err, "1"),
            "delta_share": (self.strategies.get("delta", 0) / max(self.ops, 1), "ratio"),
        }
        res.checksum = digest(got_ids, got, np.asarray(self.sims), np.asarray(self.query_lat))
        return res


WORKLOADS = {cls.name: cls for cls in (IngestChurn, PageRankStatic, LiveServing)}
