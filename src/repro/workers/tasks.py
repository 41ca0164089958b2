"""Pickle-safe worker tasks for the crypto pool.

Every function in this module runs inside a spawn-context worker process,
so the contract is strict:

* top-level functions only (spawn pickles them by reference);
* arguments and results are primitives — ``bytes``, ``str``, ``int``,
  lists and dicts thereof — never group elements or key objects;
* key material is **content-addressed** (see :mod:`repro.workers.blobs`):
  specs reference export blobs by digest, each worker holds a bounded LRU
  of blobs installed at spawn time (:func:`warm_worker`), via the
  explicit :func:`install_blob` task, or piggybacked on a task's
  ``blobs`` argument.  A digest the worker cannot resolve raises
  :class:`BlobCacheMissError`, which the pool answers by retrying the
  task once with the blobs attached — key material crosses the process
  boundary at most once per worker, not once per task;
* verification tasks report per-payload verdicts (``None`` = valid,
  ``str`` = rejection reason) instead of raising, so a byzantine payload
  cannot abort the whole batch and nothing exotic has to cross the
  process boundary as a pickled exception.

The *operation spec* shared by the share tasks is a plain dict::

    {"scheme": "bls04", "public_digest": <hex sha256>,
     "kind": "sign" | "decrypt" | "coin", "data": <request bytes>,
     "share_digest": <hex sha256>,          # create_share only
     "blobs": {digest: blob, ...}}          # optional piggyback install

Legacy inline blobs (``"public"`` / ``"share"`` keys carrying the raw
export bytes) remain accepted so the tasks stay usable standalone.

This module deliberately imports only the ``schemes`` layer (never
``core``), so protocol modules can import it without a cycle.
"""

from __future__ import annotations

import os
import time

from ..schemes import bls04, bz03, cks05, kg20, sg02, sh00
from ..schemes.base import get_scheme
from ..schemes.keystore import import_key_share, import_public_key
from .blobs import BlobStore

#: Groups whose generator fixed-base tables each worker builds at spawn
#: time.  The PR-1 precompute caches are per-process; without warming, a
#: fresh worker would re-derive them cold in the middle of its first task.
DEFAULT_WARM_GROUPS: tuple[str, ...] = ("ed25519", "bn254g1", "bn254g2")

#: This worker process's blob cache (digest -> export blob + parsed key).
#: One per process: the parent's copy of this module keeps its own store
#: via :func:`repro.workers.blobs.parent_store` instead.
_worker_blobs = BlobStore()


class BlobCacheMissError(Exception):
    """A spec referenced digests this worker does not hold.

    Travels back to the parent as a pickled exception; the pool resolves
    the digests from its parent-side store and retries the task once with
    the blobs attached.  Carrying the digest list keeps the retry minimal.
    """

    def __init__(self, digests: list[str]):
        super().__init__(f"worker missing blobs: {sorted(digests)}")
        self.digests = sorted(digests)

    def __reduce__(self):
        return (BlobCacheMissError, (self.digests,))


def warm_worker(
    group_names: tuple[str, ...] = DEFAULT_WARM_GROUPS,
    blob_items: tuple[tuple[str, bytes], ...] = (),
    table_digests: tuple[str, ...] = (),
) -> None:
    """Process-pool initializer: build the hot fixed-base tables once.

    Also forces the heavyweight curve imports (the BN254 tower does real
    work at import time), so the first real task measures cryptography,
    not interpreter warm-up — and pre-installs the parent's current key
    blobs so the steady state never ships key material per task.

    ``table_digests`` names blobs (already in ``blob_items``) that hold
    serialized fixed-base tables; those install directly into this
    worker's precompute cache, so the generator warm-up below finds them
    already present instead of rebuilding (deserializing is 2–3× cheaper
    than building).  A table blob that fails its checks is skipped — the
    worker then simply rebuilds that table on demand.
    """
    from ..groups.precompute import fixed_base_table, install_table
    from ..groups.registry import get_group
    from ..groups.tables import table_from_blob

    for digest, blob in blob_items:
        _worker_blobs.add(digest, blob)
    for digest in table_digests:
        blob = _worker_blobs.get_blob(digest)
        if blob is None:
            continue
        try:
            install_table(table_from_blob(blob, source=f"table blob {digest[:12]}"))
        except Exception:  # noqa: BLE001 - a bad table must not kill the worker
            continue
    for name in group_names:
        group = get_group(name)
        fixed_base_table(group.generator())


def install_blob(blob_items: list[tuple[str, bytes]]) -> int:
    """Install content-addressed blobs into this worker's cache.

    Returns the number of entries now resident; used by the pool to ship
    key material eagerly and by tests to stage worker state.
    """
    for digest, blob in blob_items:
        _worker_blobs.add(digest, blob)
    return len(_worker_blobs)


def worker_health() -> dict:
    """Tiny diagnostic task: which process am I, and is it warm?"""
    from ..groups.precompute import precompute_stats

    return {
        "pid": os.getpid(),
        "precompute": precompute_stats(),
        "blob_cache": _worker_blobs.stats(),
    }


def hold_worker(seconds: float) -> int:
    """Diagnostic task that pins a worker for ``seconds``.

    Used by crash tests that need several tasks in flight on one
    executor generation when a worker is SIGKILLed.
    """
    time.sleep(max(0.0, float(seconds)))
    return os.getpid()


# ---------------------------------------------------------------------------
# Digest resolution against the worker blob cache.
# ---------------------------------------------------------------------------


def _spec_blobs(spec: dict) -> dict:
    return spec.get("blobs") or {}


def _missing_digests(spec: dict, include_share: bool) -> list[str]:
    shipped = _spec_blobs(spec)
    missing = []
    for key, raw_key in (("public_digest", "public"),) + (
        (("share_digest", "share"),) if include_share else ()
    ):
        digest = spec.get(key)
        if digest is None:
            continue  # legacy raw blob under raw_key
        if digest not in _worker_blobs and digest not in shipped:
            missing.append(digest)
    return missing


def _check_spec(spec: dict, include_share: bool) -> None:
    """Install piggybacked blobs; raise for digests nobody can resolve."""
    for digest, blob in _spec_blobs(spec).items():
        _worker_blobs.add(digest, blob)
    missing = _missing_digests(spec, include_share)
    if missing:
        raise BlobCacheMissError(missing)


def _resolve_public(spec: dict):
    """(scheme_name, public_key) from a digest or a legacy inline blob."""
    digest = spec.get("public_digest")
    if digest is None:
        return import_public_key(spec["public"])
    resolved = _worker_blobs.get_object(digest, import_public_key)
    if resolved is None:
        raise BlobCacheMissError([digest])
    return resolved


def _resolve_share(spec: dict):
    """(scheme_name, key_share) from a digest or a legacy inline blob."""
    digest = spec.get("share_digest")
    if digest is None:
        return import_key_share(spec["share"])
    resolved = _worker_blobs.get_object(digest, import_key_share)
    if resolved is None:
        raise BlobCacheMissError([digest])
    return resolved


# ---------------------------------------------------------------------------
# Shared decode helpers (mirror the adapters in core.protocols.operations).
# ---------------------------------------------------------------------------


def _decode_request(scheme_name: str, public, kind: str, data: bytes):
    """Rebuild the request context (ciphertext / message / coin name)."""
    if kind == "decrypt":
        if scheme_name == "sg02":
            return sg02.Sg02Ciphertext.from_bytes(data, public.group)
        return bz03.Bz03Ciphertext.from_bytes(data)
    return data  # sign: message bytes; coin: coin name


def _decode_share(scheme_name: str, public, payload: bytes):
    if scheme_name == "sg02":
        return sg02.Sg02DecryptionShare.from_bytes(payload, public.group)
    if scheme_name == "bz03":
        return bz03.Bz03DecryptionShare.from_bytes(payload)
    if scheme_name == "sh00":
        return sh00.Sh00SignatureShare.from_bytes(payload)
    if scheme_name == "bls04":
        return bls04.Bls04SignatureShare.from_bytes(payload)
    if scheme_name == "cks05":
        return cks05.Cks05CoinShare.from_bytes(payload, public.group)
    if scheme_name == "kg20":
        return kg20.Kg20SignatureShare.from_bytes(payload)
    raise ValueError(f"no share decoder for scheme {scheme_name!r}")


def _verify_one(kind: str, scheme, public, context, share) -> None:
    if kind == "decrypt":
        scheme.verify_decryption_share(public, context, share)
    elif kind == "sign":
        scheme.verify_signature_share(public, context, share)
    elif kind == "coin":
        scheme.verify_coin_share(public, context, share)
    else:
        raise ValueError(f"unknown operation kind {kind!r}")


def _verify_batch(scheme_name: str, scheme, public, context, shares) -> bool:
    """One batched verification call where the scheme has one.

    Returns False when the scheme has no batch API (caller verifies share
    by share).  SG02/CKS05 batch their DLEQ proofs, BLS04 batches its
    pairing products (PR-1); BZ03 and SH00 only have per-share checks.
    """
    if scheme_name == "sg02":
        scheme.verify_decryption_shares(public, context, shares)
        return True
    if scheme_name == "cks05":
        scheme.verify_coin_shares(public, context, shares)
        return True
    if scheme_name == "bls04":
        # identify=False: the caller needs a per-index verdict, which the
        # share-by-share fallback below provides directly.
        scheme.verify_share_batch(public, context, shares, identify=False)
        return True
    return False


# ---------------------------------------------------------------------------
# The pool tasks.
# ---------------------------------------------------------------------------


def create_share(spec: dict, blobs: dict | None = None) -> bytes:
    """Compute this party's partial result (do_round's crypto) off-loop.

    Returns the serialized share; the parent process folds it back into
    the protocol state with ``apply_round``.
    """
    if blobs:
        install_blob(list(blobs.items()))
    _check_spec(spec, include_share=True)
    scheme_name, key_share = _resolve_share(spec)
    scheme = get_scheme(scheme_name)
    kind = spec["kind"]
    if kind == "decrypt":
        ciphertext = _decode_request(
            scheme_name, key_share.public, kind, spec["data"]
        )
        return scheme.create_decryption_share(key_share, ciphertext).to_bytes()
    if kind == "sign":
        return scheme.partial_sign(key_share, spec["data"]).to_bytes()
    if kind == "coin":
        return scheme.create_coin_share(key_share, spec["data"]).to_bytes()
    raise ValueError(f"unknown operation kind {kind!r}")


def verify_shares(
    spec: dict, payloads: list[bytes], blobs: dict | None = None
) -> list[str | None]:
    """Batched share admission: verify a drained inbox in one task.

    Verdict list is index-aligned with ``payloads``: ``None`` for a valid
    share, a reason string for a rejected one.  The happy path is a single
    batched verification; only when the batch fails (≥1 bad share) does it
    fall back to per-share checks to identify the culprits — k extra
    checks on the byzantine path, none on the honest path.
    """
    if blobs:
        install_blob(list(blobs.items()))
    _check_spec(spec, include_share=False)
    scheme_name = spec["scheme"]
    scheme = get_scheme(scheme_name)
    _, public = _resolve_public(spec)
    context = _decode_request(scheme_name, public, spec["kind"], spec["data"])

    verdicts: list[str | None] = [None] * len(payloads)
    decoded: list[tuple[int, object]] = []
    for index, payload in enumerate(payloads):
        try:
            decoded.append((index, _decode_share(scheme_name, public, payload)))
        except Exception as exc:  # noqa: BLE001 - byzantine bytes, any error
            verdicts[index] = f"malformed share payload: {exc}"
    if not decoded:
        return verdicts

    shares = [share for _, share in decoded]
    batch_failed = False
    try:
        if _verify_batch(scheme_name, scheme, public, context, shares):
            return verdicts
    except Exception:  # noqa: BLE001 - identify culprits below
        batch_failed = True
    # No batch API, or the batch contained at least one invalid share.
    for index, share in decoded:
        try:
            _verify_one(spec["kind"], scheme, public, context, share)
        except Exception as exc:  # noqa: BLE001
            verdicts[index] = str(exc) or type(exc).__name__
    if batch_failed and all(v is None for v in verdicts):
        # A batch that fails while every individual share passes can only
        # happen if the batch API itself misbehaved; reject nothing, the
        # per-share checks are authoritative.
        pass
    return verdicts
