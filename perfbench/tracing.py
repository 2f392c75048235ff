"""Host-time span tracing for the benchmark's traced run.

The traced run wraps public functions of each layer from *outside* the
program: :func:`install` swaps every call site listed in :data:`SITES`
for a thin wrapper that opens a span, calls the original and closes the
span, and :func:`uninstall` puts the originals back.  Nothing in
``src/`` knows it is being traced.

Each span records its name, start, end and the span that was open when
it started (its cause).  Spans stay in memory, in flat arrays, and are
written out once when the run ends (:meth:`Tracer.save`).  A layer's
*self time* is its span durations minus the part covered by child
spans; it is accumulated online, so the per-layer table needs no pass
over the spans.

Some functions are imported by value into other modules (``wang64``
into the ring, the sketch and the placer; ``combine_pairs`` into the
agent), and the cluster config hands the ring and placer
``HASH_FUNCTIONS["wang"]`` as an instance attribute at construction.
Every such lookup site is patched, and :func:`install` must run before
the engine under test is built.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

Counts = Iterable[Tuple[str, int]]
Hook = Optional[Callable[[tuple, dict], Counts]]
PostHook = Optional[Callable[[object], Counts]]


class Tracer:
    """In-memory span recorder with online self-time accounting."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        # Open spans: [name_id, start, child_seconds, span_index].
        self._stack: List[list] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name: str) -> list:
        index = len(self.span_start)
        parent = self._stack[-1][3] if self._stack else -1
        start = self.clock()
        nid = self._name_id(name)
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_start.append(start)
        self.span_end.append(start)
        frame = [nid, start, 0.0, index]
        self._stack.append(frame)
        self._depth[name] += 1
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:  # pragma: no cover - wrapper discipline
            raise RuntimeError("span stack out of order")
        nid, start, child_s, index = frame
        self.span_end[index] = end
        duration = end - start
        name = self.names[nid]
        self._depth[name] -= 1
        self.self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration

    def nested(self, name: str) -> bool:
        """Whether a span of ``name`` is already open (a re-entrant call)."""
        return self._depth[name] > 0

    @property
    def n_spans(self) -> int:
        return len(self.span_start)

    def save(self, path: Path) -> None:
        """Write every span (name id, parent index, start, end) plus the
        name table and per-name totals."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            names=np.array(json.dumps(self.names)),
            totals=np.array(
                json.dumps({"self_s": dict(self.self_s), "counts": dict(self.counts)})
            ),
        )


def wrap(tracer: Tracer, fn: Callable, name: str, pre: Hook = None, post: PostHook = None):
    """``fn`` inside a ``name`` span.

    ``calls`` and the hooks' counts are taken only at the outermost span
    of a name, so a cached lookup that delegates to the uncached one
    under the same layer name counts its rows once; self time still
    goes to whichever level spent it.
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        outer = not tracer.nested(name)
        if outer:
            tracer.counts[name + ".calls"] += 1
            if pre is not None:
                for key, n in pre(args, kwargs):
                    tracer.counts[f"{name}.{key}"] += int(n)
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if outer and post is not None:
            for key, n in post(result):
                tracer.counts[f"{name}.{key}"] += int(n)
        return result

    return traced


# -- what each layer counts ----------------------------------------------------


def _arg(args: tuple, kwargs: dict, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _edgestore_apply(args, kwargs):
    store = args[0]
    yield "rows", len(_arg(args, kwargs, 1, "keys"))
    yield "shard_rows", store.n_edges


def _size_of(label: str, pos: int, key: str) -> Hook:
    """Count the elements of one argument under ``label``."""

    def hook(args, kwargs):
        yield label, np.size(_arg(args, kwargs, pos, key))

    return hook


def _wal_rows(args, kwargs):
    rows = _arg(args, kwargs, 2, "rows")
    yield "rows", len(rows[0]) if isinstance(rows, tuple) else len(rows)


def _pairs_out(result):
    yield "pairs_out", len(result[0])


def _run_steps(result):
    yield "steps", result.steps or 0
    yield "strategy_" + result.strategy, 1


def _run_incremental(args, kwargs):
    yield "incremental", int(bool(kwargs.get("incremental", args[3] if len(args) > 3 else False)))


#: (module, attribute path, span name, pre-call hook, post-call hook).
#: An attribute path is ``name``, ``Class.method`` or ``DICT['key']``.
SITES: List[Tuple[str, str, str, Hook, PostHook]] = [
    ("repro.gen.rmat", "rmat_graph", "gen.rmat", None, None),
    ("repro.gen", "rmat_graph", "gen.rmat", None, None),
    ("repro.core.engine", "ElGA.apply_batch", "core.apply_batch", None, None),
    ("repro.core.engine", "ElGA.quiesce", "core.quiesce", None, None),
    ("repro.core.engine", "ElGA.run", "core.run", _run_incremental, _run_steps),
    ("repro.cluster.streamer", "Streamer.stream_batch", "cluster.streamer.stream_batch", None, None),
    ("repro.cluster.directory", "Directory.handle_message", "cluster.directory.handle_message", None, None),
    ("repro.cluster.directory", "DirectoryMaster.handle_message", "cluster.directory.handle_message", None, None),
    ("repro.cluster.agent", "Agent.handle_message", "cluster.agent.handle_message", None, None),
    ("repro.cluster.edgestore", "EdgeStore.apply", "cluster.edgestore.apply", _edgestore_apply, None),
    ("repro.cluster.recovery", "EdgeWAL.append", "cluster.recovery.wal_append", _wal_rows, None),
    ("repro.cluster.recovery", "RecoveryStore.snapshot_agent", "cluster.recovery.snapshot_agent", None, None),
    ("repro.cluster.dataplane", "combine_pairs", "cluster.dataplane.combine_pairs", _size_of("pairs_in", 0, "dst"), _pairs_out),
    ("repro.cluster.agent", "combine_pairs", "cluster.dataplane.combine_pairs", _size_of("pairs_in", 0, "dst"), _pairs_out),
    ("repro.cluster.client", "ClientProxy.query", "cluster.client.query", None, None),
    ("repro.sketch.countmin", "CountMinSketch.add", "sketch.add", _size_of("keys", 1, "keys"), None),
    ("repro.sketch.countmin", "CountMinSketch.query", "sketch.query", _size_of("keys", 1, "keys"), None),
    ("repro.partition.cache", "PlacementCache.owner_of_edges", "partition.owner_of_edges", _size_of("rows", 1, "own_vertices"), None),
    ("repro.partition.placer", "EdgePlacer.owner_of_edges", "partition.owner_of_edges", _size_of("rows", 1, "own_vertices"), None),
    ("repro.partition.cache", "PlacementCache.replication_factor", "partition.replication_factor", None, None),
    ("repro.partition.placer", "EdgePlacer.replication_factor", "partition.replication_factor", None, None),
    ("repro.hashing.hashes", "wang64", "hashing.wang64", _size_of("keys", 0, "x"), None),
    ("repro.hashing.hashes", "HASH_FUNCTIONS['wang']", "hashing.wang64", _size_of("keys", 0, "x"), None),
    ("repro.hashing.ring", "wang64", "hashing.wang64", _size_of("keys", 0, "x"), None),
    ("repro.sketch.countmin", "wang64", "hashing.wang64", _size_of("keys", 0, "x"), None),
    ("repro.partition.placer", "wang64", "hashing.wang64", _size_of("keys", 0, "x"), None),
    ("repro.kernels", "combine_pairs", "kernels.combine_pairs", _size_of("rows", 0, "dst"), None),
    ("repro.kernels", "fold_pairs", "kernels.fold_pairs", _size_of("rows", 3, "dst"), None),
    ("repro.kernels", "pagerank_apply", "kernels.pagerank_apply", None, None),
    ("repro.net.network", "Network.send", "net.send", None, None),
    ("repro.sim.kernel", "SimKernel.run", "sim.run", None, None),
] + [
    ("repro.hashing.ring", f"ConsistentHashRing.{method}", "hashing.ring", None, None)
    for method in (
        "add",
        "remove",
        "lookup_hash",
        "lookup",
        "successors_hash",
        "successors",
        "successors_hash_batch",
        "position_vector",
        "arc_fractions",
    )
]


class Installed:
    """Patched sites and how to restore them."""

    def __init__(self) -> None:
        self.restore: List[Callable[[], None]] = []
        self.missing: List[str] = []


def _resolve(module: str, path: str):
    """(container, key, is_mapping) for one lookup site."""
    obj = importlib.import_module(module)
    if "[" in path:
        name, key = path[:-2].split("['")
        return getattr(obj, name), key, True
    *owners, attr = path.split(".")
    for owner in owners:
        obj = getattr(obj, owner)
    if not (attr in vars(obj) if isinstance(obj, type) else hasattr(obj, attr)):
        raise AttributeError(f"{module}.{path}")
    return obj, attr, False


def install(tracer: Tracer) -> Installed:
    """Wrap every site; unresolvable sites are listed in ``missing``."""
    done = Installed()
    for module, path, name, pre, post in SITES:
        try:
            container, key, mapping = _resolve(module, path)
        except (ImportError, AttributeError, KeyError, ValueError):
            done.missing.append(f"{module}:{path}")
            continue
        if mapping:
            original = container[key]
            container[key] = wrap(tracer, original, name, pre, post)
            done.restore.append(lambda c=container, k=key, o=original: c.__setitem__(k, o))
        else:
            original = getattr(container, key)
            setattr(container, key, wrap(tracer, original, name, pre, post))
            done.restore.append(lambda c=container, k=key, o=original: setattr(c, k, o))
    return done


def uninstall(done: Installed) -> None:
    for restore in reversed(done.restore):
        restore()
    done.restore.clear()
