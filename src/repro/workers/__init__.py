"""Worker-pool offload: the six schemes' hot crypto off the event loop.

* :mod:`repro.workers.tasks` — pickle-safe task functions + warm-up
  initializer that runs inside spawn-context worker processes;
* :mod:`repro.workers.pool` — :class:`CryptoPool`, the telemetry-wired
  ProcessPoolExecutor wrapper with the inline-fallback contract and the
  backlog spill rule, and :func:`host_pool`, the core-count rule for
  building one;
* :mod:`repro.workers.blobs` — content-addressed key-material blobs, so
  key exports cross the process boundary once per worker, not per task;
* :mod:`repro.workers.harness` — the workers-on/off ablation harness used
  by ``benchmarks/bench_fig4_capacity.py`` and ``tools/bench_smoke.py``.
"""

from .blobs import BlobStore, content_digest, parent_store, register_export
from .pool import CryptoPool, CryptoPoolUnavailable, host_pool
from .tasks import (
    DEFAULT_WARM_GROUPS,
    BlobCacheMissError,
    warm_worker,
    worker_health,
)

__all__ = [
    "BlobCacheMissError",
    "BlobStore",
    "CryptoPool",
    "CryptoPoolUnavailable",
    "DEFAULT_WARM_GROUPS",
    "content_digest",
    "host_pool",
    "parent_store",
    "register_export",
    "warm_worker",
    "worker_health",
]
