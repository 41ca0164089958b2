"""Spans around calls into each layer, recorded from outside ``src/``.

:class:`Tracer` replaces layer entry points with thin wrappers, patching each
name where its caller looks it up (a class attribute for methods, a module
attribute for the math dispatch helpers), and puts the originals back on
:meth:`Tracer.uninstall`.  A span is ``[name, start, end, parent, request,
node]`` kept in memory; the request id and the enclosing span travel in a
context variable, which asyncio tasks inherit when they are created, so a
protocol round run by an executor task still knows which request it serves.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

from repro.core.protocols.frost import FrostProtocol
from repro.core.protocols.noninteractive import NonInteractiveProtocol
from repro.errors import ProtocolError
from repro.mathutils import backends
from repro.schemes.bls04 import Bls04SignatureScheme
from repro.schemes.cks05 import Cks05Coin
from repro.schemes.kg20 import Kg20SignatureScheme
from repro.schemes.sg02 import Sg02Cipher
from repro.schemes.sh00 import Sh00SignatureScheme
from repro.service import ThetacryptNode
from repro.storage.results import DurableResultCache
from repro.storage.wal import WriteAheadLog

# The package re-exports the ``pairing`` function under the module's name.
pairing_module = importlib.import_module("repro.groups.bn254.pairing")

#: (span index, request id, node id, span name) of the innermost open span.
_FRAME: contextvars.ContextVar[tuple | None] = contextvars.ContextVar(
    "perfbench_frame", default=None
)

NAME, START, END, PARENT, REQUEST, NODE = range(6)

#: Layer entry points: (owner, attribute, span name).  Owners are classes
#: for methods and modules for functions looked up as module attributes.
SYNC_POINTS = [
    (pairing_module, "pairing", "primitive.pairing"),
    (pairing_module, "pairing_check", "primitive.pairing"),
    (backends, "modexp", "primitive.modexp"),
    (backends, "modexp_many", "primitive.modexp"),
    (backends, "multiexp", "primitive.modexp"),
    (Sg02Cipher, "create_decryption_share", "scheme.share"),
    (Bls04SignatureScheme, "partial_sign", "scheme.share"),
    (Cks05Coin, "create_coin_share", "scheme.share"),
    (Sh00SignatureScheme, "partial_sign", "scheme.share"),
    (Kg20SignatureScheme, "commit", "scheme.share"),
    (Kg20SignatureScheme, "sign_round", "scheme.share"),
    (Sg02Cipher, "verify_decryption_share", "scheme.verify_share"),
    (Bls04SignatureScheme, "verify_signature_share", "scheme.verify_share"),
    (Cks05Coin, "verify_coin_share", "scheme.verify_share"),
    (Sh00SignatureScheme, "verify_signature_share", "scheme.verify_share"),
    (Kg20SignatureScheme, "verify_signature_share", "scheme.verify_share"),
    (Sg02Cipher, "verify_ciphertext", "scheme.check_input"),
    (Bls04SignatureScheme, "verify", "scheme.check_input"),
    (Sh00SignatureScheme, "verify", "scheme.check_input"),
    (Kg20SignatureScheme, "verify", "scheme.check_input"),
    (Sg02Cipher, "combine", "scheme.combine"),
    (Bls04SignatureScheme, "combine", "scheme.combine"),
    (Cks05Coin, "combine", "scheme.combine"),
    (Sh00SignatureScheme, "combine", "scheme.combine"),
    (Kg20SignatureScheme, "combine", "scheme.combine"),
    (WriteAheadLog, "append", "storage.wal_append"),
    (DurableResultCache, "put", "storage.result_put"),
]
#: TRI methods; the span's node is the protocol's party id.
PROTOCOL_POINTS = [
    (cls, method, f"protocol.{method}")
    for cls in (NonInteractiveProtocol, FrostProtocol)
    for method in ("do_round", "update", "finalize")
]


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.handled_msgs = 0
        self.buffered_msgs = 0
        self._saved: list[tuple[object, str, object]] = []
        self._nodes: list = []

    # -- wrappers --------------------------------------------------------------

    def _open(self, name: str, node) -> tuple[list, contextvars.Token]:
        """Start a span under the innermost open one; it inherits the
        request and, unless ``node`` is given, the node."""
        frame = _FRAME.get() or (None, None, None, None)
        if node is None:
            node = frame[2]
        span = [name, time.perf_counter(), 0.0, frame[0], frame[1], node]
        self.spans.append(span)
        return span, _FRAME.set((len(self.spans) - 1, frame[1], node, name))

    @staticmethod
    def _close(span: list, token: contextvars.Token) -> None:
        span[END] = time.perf_counter()
        _FRAME.reset(token)

    def _sync(self, fn, name: str, node_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _FRAME.get()
            if frame is not None and frame[3] == name:
                return fn(*args, **kwargs)  # a primitive calling itself
            span, token = self._open(name, node_of(args[0]) if node_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span, token)

        return wrapper

    def _run_request(self, fn):
        @functools.wraps(fn)
        async def wrapper(node, *args, **kwargs):
            span, token = self._open("service.run_request", node.config.node_id)
            try:
                return await fn(node, *args, **kwargs)
            finally:
                self._close(span, token)

        return wrapper

    def _handle_message(self, manager):
        """The node's protocol-message handler, counting messages received
        and those that arrive before the node created their instance."""
        tracer = self
        handle = manager.handle_network_message

        async def wrapper(message):
            tracer.handled_msgs += 1
            try:
                manager.record(message.instance_id)
            except ProtocolError:
                tracer.buffered_msgs += 1  # beat the request to this node
            return await handle(message)

        return wrapper

    def _request_scope(self, fn):
        """Wrap ``Cluster.run`` so every span below it carries the request."""

        @functools.wraps(fn)
        async def wrapper(cluster, request, due):
            token = _FRAME.set((None, request.index, None, "request"))
            try:
                return await fn(cluster, request, due)
            finally:
                _FRAME.reset(token)

        return wrapper

    # -- install / uninstall ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, replacement)

    def install(self, cluster) -> None:
        for owner, attr, name in SYNC_POINTS:
            self._patch(owner, attr, self._sync(getattr(owner, attr), name))
        for owner, attr, name in PROTOCOL_POINTS:
            self._patch(owner, attr, self._sync(
                getattr(owner, attr), name, node_of=lambda p: p.party_id
            ))
        self._patch(ThetacryptNode, "run_request",
                    self._run_request(ThetacryptNode.run_request))
        cluster_cls = type(cluster)
        self._patch(cluster_cls, "run", self._request_scope(cluster_cls.run))
        # The network manager holds the bound handler it was given at node
        # construction, so that slot is where the wrapper has to go.
        self._nodes = list(cluster.nodes)
        for node in self._nodes:
            node.network.set_protocol_handler(self._handle_message(node.instances))

    def uninstall(self) -> None:
        for node in self._nodes:
            node.network.set_protocol_handler(node.instances.handle_network_message)
        self._nodes = []
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def write(self, path: Path) -> Path:
        """Write the spans as JSON lines (times relative to the first span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": span[NAME],
                    "start": span[START] - origin, "end": span[END] - origin,
                    "parent": span[PARENT], "request": span[REQUEST],
                    "node": span[NODE],
                }) + "\n")
        return path

    # -- derived numbers -----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count and self time.

        Self time is a span's duration minus the time its direct children
        cover.  Only synchronous spans nest strictly; the asynchronous
        ``service.run_request`` span's self time is not used.
        """
        child_time = defaultdict(float)
        for span in self.spans:
            if span[PARENT] is not None:
                child_time[span[PARENT]] += span[END] - span[START]
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0}
        )
        for index, span in enumerate(self.spans):
            entry = totals[span[NAME]]
            entry["calls"] += 1
            entry["self_s"] += span[END] - span[START] - child_time.get(index, 0.0)
        return totals

    def phases(self) -> list[dict[str, float]]:
        """Per (request, node): queue, share_gen, verify, combine, await_quorum
        and node latency, from the TRI call timestamps."""
        by_key: dict[tuple, list[list]] = defaultdict(list)
        for span in self.spans:
            if span[REQUEST] is not None and span[NODE] is not None:
                by_key[(span[REQUEST], span[NODE])].append(span)
        out = []
        for spans in by_key.values():
            service = [s for s in spans if s[NAME] == "service.run_request"]
            rounds = sorted(
                (s for s in spans if s[NAME] == "protocol.do_round"),
                key=lambda s: s[START],
            )
            updates = [s for s in spans if s[NAME] == "protocol.update"]
            finals = [s for s in spans if s[NAME] == "protocol.finalize"]
            if len(service) != 1 or not rounds or len(finals) != 1:
                continue
            submit, first, final = service[0], rounds[0], finals[0]
            round_s = sum(s[END] - s[START] for s in rounds)
            update_s = sum(s[END] - s[START] for s in updates)
            waited = (final[START] - first[END]) - update_s - (
                round_s - (first[END] - first[START])
            )
            out.append({
                "queue_s": first[START] - submit[START],
                "share_gen_s": round_s,
                "verify_s": update_s,
                "combine_s": final[END] - final[START],
                "await_quorum_s": max(0.0, waited),
                "node_latency_s": submit[END] - submit[START],
            })
        return out
