"""The crypto worker pool: pairing/modexp off the event loop.

The asyncio node is single-threaded; every pairing product and modexp run
inline stalls RPC handling, gossip dispatch, and all other in-flight
instances for its full duration.  :class:`CryptoPool` moves the hot
protocol steps onto a spawn-context :class:`ProcessPoolExecutor` whose
workers pre-build the PR-1 precompute tables (see
:func:`repro.workers.tasks.warm_worker`), so the node scales with CPU
count instead of being capped at one core.

Dispatch follows two fixed rules.  A node builds its own pool only on a
host with at least :data:`MIN_POOL_CORES` logical CPUs (see
:func:`host_pool`): on one core a worker would only share the event
loop's core, and pickle + IPC made the PR-5 pool cost 0.66× throughput
there (``BENCH_offload.json``).  A pool that exists takes every
offloadable op, unless its backlog has reached ``workers ×``
:data:`MAX_QUEUE_PER_WORKER`; such an op *spills*: it runs inline and is
counted as the ``spilled`` outcome, because it would wait longer in the
pool than it takes to run.

Key material travels by content digest (:mod:`repro.workers.blobs`):
workers get the parent store's blobs at spawn time, and a task that
references a digest its worker lost (LRU eviction, late key install)
raises :class:`~repro.workers.tasks.BlobCacheMissError`, which the pool
answers with exactly one retry that carries the blobs along.

Degradation contract (unchanged from PR 5): the pool never makes an
instance fail for *infrastructure* reasons.  A full backlog, a disabled
pool (``crypto_workers=0``), a crashed worker, or an unpicklable task all
raise :class:`CryptoPoolUnavailable` — callers catch exactly that and run
the same computation inline, counted by the ``spilled`` or ``fallback``
outcome of ``repro_crypto_pool_tasks_total``.  Genuine cryptographic
failures raised *inside* a task (:class:`~repro.errors.ThetacryptError`
subclasses) propagate unchanged, exactly as their inline counterparts
would.
"""

from __future__ import annotations

import asyncio
import functools
import logging
import multiprocessing
import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

from ..errors import ThetacryptError
from ..telemetry import CryptoPoolMetrics, MetricRegistry, default_registry
from .blobs import parent_store, parent_table_digests
from .tasks import DEFAULT_WARM_GROUPS, BlobCacheMissError, warm_worker

logger = logging.getLogger(__name__)

#: A node builds its own pool only with at least this many logical CPUs.
MIN_POOL_CORES = 2

#: Backlog per worker at which new ops spill inline instead of queueing.
MAX_QUEUE_PER_WORKER = 8


class CryptoPoolUnavailable(Exception):
    """Offload infrastructure failed; the caller must run inline.

    Deliberately *not* a :class:`~repro.errors.ThetacryptError`: it never
    describes a protocol outcome, only that the pool could not be used.
    """


class CryptoPool:
    """A process pool for the six schemes' hot operations.

    Lazy: worker processes spawn on first use (a node configured with
    workers that never sees load pays nothing).  Self-healing: a broken
    executor (worker SIGKILLed, initializer crash) is discarded and a
    fresh one is spawned on the next task — at most once per executor
    generation, however many in-flight tasks observe the same breakage.
    """

    def __init__(
        self,
        workers: int,
        registry: MetricRegistry | None = None,
        warm_groups: tuple[str, ...] = DEFAULT_WARM_GROUPS,
    ):
        self._workers = max(0, int(workers))
        self._warm_groups = tuple(warm_groups)
        self._metrics = CryptoPoolMetrics(
            registry if registry is not None else default_registry()
        )
        self._executor: ProcessPoolExecutor | None = None
        self._closed = False
        self._pending = 0
        self._spawned = 0
        # Incremented at every executor spawn; BrokenExecutor handling is
        # keyed on it so concurrent in-flight tasks heal the same breakage
        # exactly once (see _heal).
        self._generation = 0
        self._tasks_ok = 0
        self._tasks_error = 0
        self._fallbacks = 0
        self._spills = 0
        self._crashes = 0
        self._blob_retries = 0

    # -- state ----------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._workers > 0 and not self._closed

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def worker_pids(self) -> list[int]:
        """PIDs of the live worker processes (empty before first use).

        ``ProcessPoolExecutor`` has no public process accessor, so this
        reads the private ``_processes`` dict — defensively: the executor's
        management thread mutates it mid-crash, and the attribute itself is
        a CPython implementation detail.  Any surprise degrades to ``[]``.
        """
        executor = self._executor
        if executor is None:
            return []
        try:
            processes = getattr(executor, "_processes", None)
            if not processes:
                return []
            # list() snapshots before sorting: the dict can change size
            # under us while a worker is dying.
            return sorted(list(processes.keys()))
        except Exception:  # noqa: BLE001 - RuntimeError mid-mutation, attr drift
            return []

    def stats(self) -> dict:
        """Snapshot for ``ThetacryptNode.stats()["crypto_pool"]``."""
        return {
            "enabled": self.enabled,
            "workers": self._workers,
            "running": self._executor is not None,
            "queue_depth": self._pending,
            "tasks_ok": self._tasks_ok,
            "tasks_error": self._tasks_error,
            "fallbacks": self._fallbacks,
            "spills": self._spills,
            "crashes": self._crashes,
            "restarts": max(0, self._spawned - 1),
            "blob_retries": self._blob_retries,
            "worker_pids": self.worker_pids,
            "blob_cache": parent_store().stats(),
        }

    # -- execution ------------------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if not self.enabled:
            raise CryptoPoolUnavailable("crypto pool disabled or closed")
        if self._executor is None:
            context = multiprocessing.get_context("spawn")
            self._executor = ProcessPoolExecutor(
                max_workers=self._workers,
                mp_context=context,
                initializer=warm_worker,
                # Warm-install the parent's current key blobs so the
                # steady state never ships key material per task, and the
                # serialized fixed-base tables so workers warm-start from
                # deserialization instead of rebuilding.
                initargs=(
                    self._warm_groups,
                    tuple(parent_store().items()),
                    parent_table_digests(),
                ),
            )
            self._spawned += 1
            self._generation += 1
            self._metrics.workers.set(self._workers)
            if self._spawned > 1:
                logger.warning(
                    "crypto pool respawned after a worker crash "
                    "(%d crashes, %d spawns)",
                    self._crashes,
                    self._spawned,
                )
        return self._executor

    def _discard_executor(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
            self._metrics.workers.set(0)

    def _heal(self, generation: int, op: str, where: str, exc: Exception) -> None:
        """Count and discard a broken executor — once per generation.

        With several tasks in flight, one SIGKILLed worker breaks them
        all: each raises :class:`BrokenExecutor` from its own submit or
        await path.  Only the first arrival heals; the rest see either a
        newer generation or an already-discarded executor and stand down,
        so ``crashes``/``restarts`` count breakages, not observers.
        """
        if generation != self._generation or self._executor is None:
            return
        self._crashes += 1
        self._discard_executor()
        logger.warning("crypto pool broken at %s for %s: %s", where, op, exc)

    async def run(self, op: str, fn, *args):
        """Run ``fn(*args)`` in a worker; raise CryptoPoolUnavailable to
        signal "run it inline yourself" on any infrastructure failure.

        A :class:`BlobCacheMissError` from the worker is answered with one
        retry carrying the missing blobs (resolved from the parent store);
        a second miss, or a digest the parent does not hold either, counts
        as infrastructure failure.  With the backlog at ``workers ×
        MAX_QUEUE_PER_WORKER`` the op spills: nothing is submitted.
        """
        if self.enabled and self._pending >= self._workers * MAX_QUEUE_PER_WORKER:
            self._count(op, "spilled")
            raise CryptoPoolUnavailable("crypto pool backlog full")
        started = time.perf_counter()
        self._pending += 1
        self._metrics.queue_depth.set(self._pending)
        try:
            try:
                result = await self._attempt(op, fn, args, None)
            except BlobCacheMissError as exc:
                blobs = self._resolve_blobs(op, exc)
                self._blob_retries += 1
                self._metrics.blob_cache.labels("retry").inc()
                try:
                    result = await self._attempt(op, fn, args, blobs)
                except BlobCacheMissError as again:
                    self._count(op, "fallback")
                    raise CryptoPoolUnavailable(
                        f"blob install did not take: {again}"
                    ) from again
            self._count(op, "ok")
            self._tasks_ok += 1
            return result
        finally:
            self._pending -= 1
            self._metrics.queue_depth.set(self._pending)
            self._metrics.task_seconds.labels(op).observe(
                time.perf_counter() - started
            )

    def _resolve_blobs(self, op: str, exc: BlobCacheMissError) -> dict:
        blobs: dict[str, bytes] = {}
        for digest in exc.digests:
            blob = parent_store().get_blob(digest)
            if blob is None:
                # The spec references a blob nobody holds any more (parent
                # LRU churn): the task cannot run pooled, period.
                self._count(op, "fallback")
                raise CryptoPoolUnavailable(
                    f"blob {digest[:12]}… unknown to the parent store"
                ) from exc
            blobs[digest] = blob
        return blobs

    async def _attempt(self, op: str, fn, args: tuple, blobs: dict | None):
        """One submit + await, with the exception ladder and heal-once."""
        try:
            executor = self._ensure_executor()
        except CryptoPoolUnavailable:
            self._count(op, "fallback")
            raise
        generation = self._generation
        try:
            if blobs is None:
                future = executor.submit(fn, *args)
            else:
                future = executor.submit(fn, *args, blobs=blobs)
        except BrokenExecutor as exc:
            # A worker died while the pool was idle: submit itself
            # reports the breakage.  Discard so the next task respawns.
            self._heal(generation, op, "submit", exc)
            self._count(op, "fallback")
            raise CryptoPoolUnavailable(f"worker crashed: {exc}") from exc
        except Exception as exc:  # noqa: BLE001 - unpicklable task, shutdown race
            self._count(op, "fallback")
            raise CryptoPoolUnavailable(f"submit failed: {exc}") from exc
        try:
            return await asyncio.wrap_future(future)
        except asyncio.CancelledError:
            future.cancel()
            raise
        except BlobCacheMissError:
            raise  # run() retries once with the blobs attached
        except ThetacryptError:
            # The task itself failed cryptographically — same meaning
            # as the identical inline failure, so let it propagate.
            self._count(op, "error")
            self._tasks_error += 1
            raise
        except BrokenExecutor as exc:
            self._heal(generation, op, "await", exc)
            self._count(op, "fallback")
            raise CryptoPoolUnavailable(f"worker crashed: {exc}") from exc
        except Exception as exc:  # noqa: BLE001 - pickling of args/results, bugs
            self._count(op, "fallback")
            raise CryptoPoolUnavailable(f"pool task failed: {exc}") from exc

    def _count(self, op: str, outcome: str) -> None:
        if outcome == "fallback":
            self._fallbacks += 1
        elif outcome == "spilled":
            self._spills += 1
        self._metrics.tasks.labels(op, outcome).inc()

    # -- shutdown -------------------------------------------------------------

    async def close(self) -> None:
        """Drain and join the workers (blocking shutdown runs off-loop)."""
        self._closed = True
        executor, self._executor = self._executor, None
        if executor is None:
            return
        await asyncio.get_running_loop().run_in_executor(
            None,
            functools.partial(executor.shutdown, wait=True, cancel_futures=True),
        )
        self._metrics.workers.set(0)

    def close_sync(self) -> None:
        """Synchronous close for non-async teardown paths (tests, atexit)."""
        self._closed = True
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
            self._metrics.workers.set(0)


def host_pool(
    workers: int, registry: MetricRegistry | None = None
) -> tuple[CryptoPool | None, str]:
    """The pool a node should own for ``crypto_workers=workers``.

    Returns ``(pool, reason)``: no pool with ``"disabled"`` for zero
    workers or ``"few_cores"`` below :data:`MIN_POOL_CORES` logical CPUs,
    else a new pool with ``"configured"``.
    """
    if workers <= 0:
        return None, "disabled"
    if (os.cpu_count() or 1) < MIN_POOL_CORES:
        return None, "few_cores"
    return CryptoPool(workers, registry=registry), "configured"
