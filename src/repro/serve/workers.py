"""Process-parallel drain backend: persistent workers, shared-memory arenas.

The default ``serial`` drain backend scores every shard group on the
calling thread.  ``drain_backend='process'`` runs each same-detector shard
group on a pool of persistent worker **processes** instead — CPU
parallelism past the GIL — while keeping the data movement cheap:

* **Weights travel zero times.**  Fitted RAE/RDAE detectors are published
  once into an mmap'd read-only :class:`repro.core.WeightStore`; every
  worker maps the same ``.npy`` files, so N workers share one physical copy
  of each detector through the OS page cache instead of unpickling
  per-drain copies.  (Detectors outside that family are pickled once per
  worker and cached under a token.)
* **Arrivals and shard state travel by shared memory.**  Each worker owns a
  file-backed mmap arena (on ``/dev/shm`` when available); the parent
  bump-allocates each request's arrival rows and retained-window arrays
  into it and sends only tiny descriptors over the control pipe.  Arrays
  that outgrow the arena fall back to inline pickling — a slow path, never
  a failure.
* **The parent stays authoritative.**  Every request ships each shard's
  :meth:`repro.stream.StreamScorer.state_dict`; the worker loads it (so its
  cached scorer is *exactly* the parent's shard), scores via the same
  :func:`repro.serve.score_shard_group` the serial backend runs — hence
  bit-identical results — and returns the post-ingest state, which the
  parent installs only on success.  A worker that dies mid-drain (OOM
  killer, segfault, ``kill -9``) therefore loses nothing: its group's
  streams come back as :class:`WorkerCrashError` failures, the router
  re-queues their arrivals, and the pool respawns a replacement before the
  next drain — zero lost or duplicated arrivals.
"""

from __future__ import annotations

import mmap
import os
import pickle
import shutil
import tempfile
import threading

import numpy as np

__all__ = ["ProcessDrainPool", "WorkerCrashError"]

_DEFAULT_ARENA_BYTES = 8 << 20
_STATE_ARRAY_KEYS = ("window", "cache_scores")


class WorkerCrashError(RuntimeError):
    """A drain worker process died mid-drain.

    Appears as the per-stream exception (inside
    :class:`repro.serve.DrainError` failures) for every stream of the group
    the dead worker was scoring.  The contract is already repaired by the
    time the caller sees it: the group's arrivals are back at the front of
    the queue, the parent's shard state never advanced, and the pool has
    respawned a replacement worker — the next ``drain()`` replays the
    arrivals normally.
    """


def _start_method():
    """Worker start method: ``REPRO_SERVE_MP`` override, else prefer fork.

    Fork keeps pickled-by-reference detector classes resolvable (the child
    inherits ``sys.modules``, so even test-local classes work) and makes
    spawning cheap; spawn/forkserver remain available for platforms or
    callers that need them.
    """
    import multiprocessing

    preferred = os.environ.get("REPRO_SERVE_MP")
    if preferred:
        return preferred
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


class _Arena:
    """Bump-allocated shared-memory block, file-backed and mmap'd.

    A plain file on ``/dev/shm`` (tmpfs) mapped by parent and worker gives
    the same page sharing as ``multiprocessing.shared_memory`` without the
    resource-tracker bookkeeping — a SIGKILL'd worker leaks nothing, the
    parent just unlinks the file.  Offsets only grow within one drain and
    :meth:`reset` runs only while no request is outstanding, so parent
    writes and worker reads never overlap.
    """

    def __init__(self, size, directory):
        self.size = int(size)
        fd, self.path = tempfile.mkstemp(prefix="arena-", dir=directory)
        try:
            os.ftruncate(fd, self.size)
            self._file = os.fdopen(fd, "r+b")
        except Exception:
            os.close(fd)
            raise
        self._map = mmap.mmap(self._file.fileno(), self.size)
        self._offset = 0

    def reset(self):
        self._offset = 0

    def place(self, arr):
        """Copy ``arr`` into the arena; descriptor dict, or None when full."""
        arr = np.ascontiguousarray(arr)
        start = (self._offset + 63) & ~63  # keep every block well-aligned
        if start + arr.nbytes > self.size:
            return None
        view = np.frombuffer(
            self._map, dtype=arr.dtype, count=arr.size, offset=start
        ).reshape(arr.shape)
        view[...] = arr
        self._offset = start + arr.nbytes
        return {"o": start, "n": int(arr.size),
                "s": tuple(int(d) for d in arr.shape), "d": arr.dtype.str}

    def close(self):
        self._map.close()
        self._file.close()
        try:
            os.unlink(self.path)
        except OSError:
            pass


class _ArenaReader:
    """Worker-side read-only view of the parent's arena file."""

    def __init__(self, path, size):
        self._file = open(path, "rb")
        self._map = mmap.mmap(
            self._file.fileno(), int(size), access=mmap.ACCESS_READ
        )

    def fetch(self, desc, copy=True):
        arr = np.frombuffer(
            self._map, dtype=np.dtype(desc["d"]), count=desc["n"],
            offset=desc["o"],
        ).reshape(desc["s"])
        if not copy:
            # Zero-copy read-only view for data consumed entirely within
            # this request (pending rows feed the stacked batch buffer and
            # the scalers copy on ingest) — the parent reuses the arena
            # space on the next drain, so nothing may retain this view.
            return arr
        # Copy out: scorer state must outlive this request.
        return arr.copy()


def _ship(arena, arr):
    """Place ``arr`` in the arena; inline the ndarray itself when full."""
    arr = np.ascontiguousarray(arr)
    desc = arena.place(arr)
    return arr if desc is None else desc


def _pack_state(state, arena):
    """Route a scorer state dict's arrays through the arena."""
    packed = dict(state)
    for key in _STATE_ARRAY_KEYS:
        if key in packed:
            packed[key] = _ship(arena, np.asarray(packed[key]))
    return packed


def _unpack_state(packed, fetch):
    state = dict(packed)
    for key in _STATE_ARRAY_KEYS:
        value = state.get(key)
        if isinstance(value, dict):
            state[key] = fetch(value)
    return state


def _picklable(exc):
    """The exception itself when it pickles, else a faithful stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - anything means "cannot travel"
        return RuntimeError("%s: %s" % (type(exc).__name__, exc))


def _worker_main(conn, arena_path, arena_size, store_dir):
    """Worker-process loop: rebuild shards, score groups, ship state back.

    Detectors and scorers are cached across requests — the expensive parts
    (mapping weights, building module graphs) happen once per worker, and
    every request's :func:`reset_scorer_state` load makes the cached scorer
    exactly the parent's shard before scoring, so caching can never cause
    drift (a cached scorer is state-equivalent to a freshly built one).
    """
    from ..core.persistence import WeightStore
    from ..core.scoring import InferencePrograms
    from ..stream import StreamScorer
    from .router import reset_scorer_state, score_shard_group

    store = WeightStore(store_dir)
    reader = None
    detectors, scorers = {}, {}
    # Per-worker compiled-program cache — workers are persistent, so tapes
    # and stacked programs recorded on one request replay on the next.
    # Cache-event deltas ship home with every payload.
    programs = InferencePrograms()

    def fetch(desc, copy=True):
        nonlocal reader
        if isinstance(desc, np.ndarray):
            return desc
        if reader is None:
            reader = _ArenaReader(arena_path, arena_size)
        return reader.fetch(desc, copy=copy)

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        __, request_id, request = message
        shards, items, failures = {}, [], {}
        for entry in request["streams"]:
            stream_id = entry["id"]
            try:
                handle = entry["detector"]
                if handle["kind"] == "store":
                    det_key = ("store", handle["ref"])
                    if det_key not in detectors:
                        detectors[det_key] = store.load(handle["ref"])
                else:
                    det_key = ("pickle", handle["token"])
                    if handle.get("payload") is not None:
                        detectors[det_key] = pickle.loads(handle["payload"])
                detector = detectors[det_key]
                config = entry["config"]
                shard_key = (stream_id, det_key, config["window"],
                             config["min_points"], config["mode"])
                scorer = scorers.get(shard_key)
                if scorer is None:
                    scorer = StreamScorer(
                        detector, window=config["window"],
                        min_points=config["min_points"], mode=config["mode"],
                        programs=programs,
                    )
                    scorers[shard_key] = scorer
                reset_scorer_state(
                    scorer, _unpack_state(entry["state"], fetch)
                )
                # Zero-copy: pending rows feed the stacked batch buffer
                # directly from the arena mapping (consumed within this
                # request; the scalers copy on ingest).
                rows = fetch(entry["rows"], copy=False)
            except Exception as exc:  # noqa: BLE001 - isolate per stream
                failures[stream_id] = exc
                continue
            shards[stream_id] = scorer
            items.append((stream_id, rows))
        results, states = {}, {}
        if items:
            results, group_failures = score_shard_group(
                shards, items, request["batch_size"], programs=programs
            )
            failures.update(
                {sid: exc for sid, (exc, __) in group_failures.items()}
            )
            for stream_id in results:
                states[stream_id] = shards[stream_id].state_dict()
        try:
            conn.send(("done", request_id, {
                "results": results,
                "failures": {sid: _picklable(exc)
                             for sid, exc in failures.items()},
                "states": states,
                "program_cache": programs.take_counters(),
            }))
        except (OSError, BrokenPipeError, ValueError):
            break
    conn.close()


class _Worker:
    """One pool slot: process + control pipe + arena + pickle-token memory."""

    __slots__ = ("proc", "conn", "arena", "known", "dead")


class ProcessDrainPool:
    """Persistent worker processes that score same-architecture shard groups.

    Built lazily by :class:`repro.serve.StreamRouter` on the first
    ``drain_backend='process'`` drain.  :meth:`score_groups` is the whole
    API surface the router uses; :meth:`close` tears the pool down and
    removes its spool (weight store + arenas).
    """

    #: Lock discipline, machine-checked by ``repro lint`` (lock-guarded).
    #: The router serialises drains, so the lock's real job is making
    #: ``close()`` safe against a concurrent drain — and keeping the
    #: worker registry/token caches consistent if callers ever share a
    #: pool directly.
    _GUARDED_BY = {
        "_workers": "_lock",
        "_closed": "_lock",
        "_store_refs": "_lock",
        "_pickle_tokens": "_lock",
        "_prog_delta": "_lock",
    }

    def __init__(self, workers, *, arena_bytes=_DEFAULT_ARENA_BYTES,
                 start_method=None):
        import multiprocessing

        from ..core.persistence import WeightStore

        self._ctx = multiprocessing.get_context(
            start_method or _start_method()
        )
        self._spool = tempfile.mkdtemp(prefix="repro-serve-")
        self._store = WeightStore(os.path.join(self._spool, "weights"))
        shm = "/dev/shm"
        self._arena_dir = (
            shm if os.path.isdir(shm) and os.access(shm, os.W_OK)
            else self._spool
        )
        self._arena_bytes = int(arena_bytes)
        self._lock = threading.Lock()
        self._store_refs = {}  # id(detector) -> weight-store ref
        self._pickle_tokens = {}  # id(detector) -> token
        # Program-cache deltas collected from worker payloads, awaiting
        # pickup by the router (take_program_counters).
        self._prog_delta = {"hits": 0, "misses": 0, "invalidations": 0}
        self._closed = False
        self._workers = [self._spawn() for __ in range(max(int(workers), 1))]

    # ------------------------------------------------------------------ #
    def _spawn(self):
        worker = _Worker()
        worker.arena = _Arena(self._arena_bytes, self._arena_dir)
        worker.conn, child = self._ctx.Pipe()
        worker.proc = self._ctx.Process(
            target=_worker_main,
            args=(child, worker.arena.path, self._arena_bytes,
                  self._store.directory),
            daemon=True,
            name="repro-drain-worker",
        )
        worker.proc.start()
        # Close the parent's copy of the child end so a dead worker means a
        # broken pipe here, not a silent hang.
        child.close()
        worker.known = set()  # pickle tokens whose payload this worker holds
        worker.dead = False
        return worker

    def _detector_handle_locked(self, detector, worker):
        """How ``worker`` should obtain ``detector``: store ref or pickle.

        Fitted RAE/RDAE go through the weight store (published once,
        mmap-shared by every worker); anything else pickles once per worker
        and is cached under a token.  Raises when the detector cannot
        travel at all — the caller turns that into a per-stream failure.
        """
        from ..core.rae import RAE
        from ..core.rdae import RDAE

        key = id(detector)
        if isinstance(detector, (RAE, RDAE)) and detector.is_fitted():
            ref = self._store_refs.get(key)
            if ref is None:
                ref = self._store.add(detector)
                self._store_refs[key] = ref
            return {"kind": "store", "ref": ref}
        token = self._pickle_tokens.get(key)
        if token is None:
            token = "p%d" % len(self._pickle_tokens)
            self._pickle_tokens[key] = token
        handle = {"kind": "pickle", "token": token}
        if token not in worker.known:
            handle["payload"] = pickle.dumps(detector)
            worker.known.add(token)
        return handle

    def _crashed(self, group, extra):
        """The ``(results, failures, states)`` triple for a dead worker."""
        failures = dict(extra)
        for stream_id, __ in group:
            failures.setdefault(stream_id, WorkerCrashError(
                "drain worker process died while scoring stream %r; its "
                "arrivals were re-queued and a replacement worker spawned"
                % (stream_id,)
            ))
        return {}, failures, {}

    def _recv(self, worker):
        """Next response from ``worker``; WorkerCrashError when it died."""
        conn, proc = worker.conn, worker.proc
        while True:
            try:
                if conn.poll(0.05):
                    return conn.recv()
            except (EOFError, OSError):
                raise WorkerCrashError(
                    "drain worker (pid %s) closed its pipe mid-drain"
                    % proc.pid
                ) from None
            if not proc.is_alive():
                # The worker may have flushed its response right before
                # dying — drain the pipe once before declaring the crash.
                try:
                    if conn.poll(0.2):
                        return conn.recv()
                except (EOFError, OSError):
                    pass
                raise WorkerCrashError(
                    "drain worker (pid %s) died mid-drain (exit code %s)"
                    % (proc.pid, proc.exitcode)
                )

    def _retire(self, worker):
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.proc.is_alive():
            worker.proc.terminate()
        worker.proc.join(timeout=5)
        worker.arena.close()

    # ------------------------------------------------------------------ #
    def score_groups(self, shards, groups, batch_size):
        """Score ``groups`` (lists of ``(stream_id, rows)``) on the pool.

        Returns one ``(results, failures, states)`` triple per group,
        aligned with ``groups``: per-stream score arrays, per-stream
        exceptions (shard faults or :class:`WorkerCrashError`), and the
        post-ingest :meth:`~repro.stream.StreamScorer.state_dict` of every
        successfully scored shard for the parent to install.  Never raises
        for worker death — crashes become per-stream failures and the dead
        workers are respawned before returning.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("ProcessDrainPool is closed")
            return self._score_groups_locked(shards, groups, batch_size)

    def _score_groups_locked(self, shards, groups, batch_size):
        workers = self._workers
        for worker in workers:
            if not worker.dead:
                worker.arena.reset()
        outputs = [None] * len(groups)
        extra = [dict() for __ in groups]  # parent-side per-stream failures
        sent = [[] for __ in workers]
        inbox = [[] for __ in workers]  # responses drained during dispatch
        for index, group in enumerate(groups):
            windex = index % len(workers)
            worker = workers[windex]
            if worker.dead:
                outputs[index] = self._crashed(group, extra[index])
                continue
            # Eagerly drain responses the worker already flushed: a send
            # below could otherwise block on a pipe the worker is blocked
            # *writing* a large response into — a classic two-pipe deadlock.
            try:
                while worker.conn.poll(0):
                    inbox[windex].append(worker.conn.recv())
            except (EOFError, OSError):
                worker.dead = True
                outputs[index] = self._crashed(group, extra[index])
                continue
            entries = []
            for stream_id, rows in group:
                scorer = shards[stream_id]
                try:
                    handle = self._detector_handle_locked(
                        scorer.detector, worker
                    )
                except Exception as exc:  # noqa: BLE001 - unpicklable
                    extra[index][stream_id] = exc
                    continue
                entries.append({
                    "id": stream_id,
                    "config": {"window": scorer.window,
                               "min_points": scorer.min_points,
                               "mode": scorer.mode},
                    "detector": handle,
                    "state": _pack_state(scorer.state_dict(), worker.arena),
                    "rows": _ship(worker.arena, np.stack(rows)),
                })
            if not entries:
                outputs[index] = ({}, extra[index], {})
                continue
            try:
                worker.conn.send(("score", index, {
                    "batch_size": batch_size,
                    "streams": entries,
                }))
            except (OSError, BrokenPipeError, ValueError):
                worker.dead = True
                outputs[index] = self._crashed(group, extra[index])
                continue
            sent[windex].append(index)
        for windex, queued in enumerate(sent):
            worker = workers[windex]
            for index in queued:
                if inbox[windex]:
                    __, __rid, payload = inbox[windex].pop(0)
                elif worker.dead:
                    outputs[index] = self._crashed(groups[index], extra[index])
                    continue
                else:
                    try:
                        __, __rid, payload = self._recv(worker)
                    except WorkerCrashError:
                        worker.dead = True
                        outputs[index] = self._crashed(
                            groups[index], extra[index]
                        )
                        continue
                failures = dict(payload["failures"])
                failures.update(extra[index])
                for key, value in payload.get("program_cache", {}).items():
                    self._prog_delta[key] += value
                outputs[index] = (
                    payload["results"], failures, payload["states"]
                )
        for windex, worker in enumerate(workers):
            if worker.dead:
                self._retire(worker)
                workers[windex] = self._spawn()
        return outputs

    def take_program_counters(self):
        """Collected per-worker compiled-program cache deltas; resets them.

        Workers attach their :class:`repro.core.InferencePrograms` deltas
        to every drain payload; the router calls this after a drain (and in
        ``stats()``/``save()``) to fold them into its persistent totals.
        """
        with self._lock:
            out = dict(self._prog_delta)
            for key in self._prog_delta:
                self._prog_delta[key] = 0
            return out

    def close(self):
        """Stop the workers and remove the spool; idempotent.

        The worker list is detached under the lock (so a concurrent
        ``score_groups`` either completed first or sees the pool closed),
        but the joins run outside it — they block for seconds on a wedged
        worker.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers, self._workers = self._workers, []
        for worker in workers:
            try:
                worker.conn.send(("stop",))
            except (OSError, BrokenPipeError, ValueError):
                pass
        for worker in workers:
            worker.proc.join(timeout=5)
            self._retire(worker)
        shutil.rmtree(self._spool, ignore_errors=True)
