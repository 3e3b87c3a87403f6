"""The query daemon: a JSON-lines TCP server over one label store.

Protocol: one JSON object per line, one response line per request.
Every request carries an ``"op"``; query ops also carry the ``"session"``
id returned by ``open-session``.  Responses are ``{"ok": true, ...}`` or
``{"ok": false, "error": <kind>, "message": <text>}``.  A request line
may be at most :data:`MAX_REQUEST_BYTES` (1 MiB, newline included); a
longer one is never buffered whole: it gets one ``protocol`` error reply
and the daemon closes that connection.

Ops:

* ``open-session`` ``{tenant, io_budget?}`` -> ``{session}``
* ``close-session`` ``{session}`` -> ``{ledger}``
* ``scc-label`` ``{session, nodes}`` -> ``{labels: {node: label|null}}``
* ``same-component`` ``{session, u, v}`` -> ``{same: bool}``
* ``reachable`` ``{session, u, v}`` -> ``{reachable: bool}``
* ``topo-order`` ``{session, nodes}`` ->
  ``{orders: {node: [component, layer]|null}}``
* ``session-stats`` ``{session}`` -> ``{ledger}``
* ``server-stats`` -> physical ledger + per-engine cache report +
  the session roll-up
* ``ping`` / ``shutdown``

Concurrency: a :class:`~socketserver.ThreadingTCPServer` thread per
connection; ``scc-label`` and ``topo-order`` lookups from concurrent
clients coalesce in the per-engine :class:`BatchCollector` epochs, so K
clients hammering the same epoch share block reads.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from typing import Optional

from repro.exceptions import (
    CorruptBlockError,
    IOBudgetExceeded,
    ReproError,
    ServiceProtocolError,
    StorageError,
    UnknownNodeError,
    UnknownSessionError,
)
from repro.service.batch import BatchCollector
from repro.service.session import SessionManager
from repro.service.store import LabelStore

__all__ = ["QueryDaemon", "MAX_REQUEST_BYTES"]

MAX_REQUEST_BYTES = 1 << 20
"""Longest request line the daemon reads, newline included."""

_LINGER_SECONDS = 2.0

_ERROR_KINDS = (
    (IOBudgetExceeded, "throttled"),
    (UnknownSessionError, "unknown-session"),
    (UnknownNodeError, "unknown-node"),
    (CorruptBlockError, "corrupt-block"),
    (StorageError, "storage"),
    (ServiceProtocolError, "protocol"),
    (ReproError, "error"),
)


def _error_kind(exc: Exception) -> str:
    for cls, kind in _ERROR_KINDS:
        if isinstance(exc, cls):
            return kind
    return "internal"


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        daemon: "QueryDaemon" = self.server.daemon  # type: ignore[attr-defined]
        while True:
            raw = self.rfile.readline(MAX_REQUEST_BYTES + 1)
            if not raw:
                return
            if len(raw) > MAX_REQUEST_BYTES:
                self._refuse_oversized()
                return
            line = raw.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ServiceProtocolError("request must be a JSON object")
                response = daemon.handle_request(request)
            except Exception as exc:  # per-request isolation
                response = {
                    "ok": False,
                    "error": _error_kind(exc),
                    "message": str(exc),
                }
            self._reply(response)
            if response.get("op") == "shutdown":
                daemon.request_shutdown()
                return

    def _reply(self, response: dict) -> None:
        self.wfile.write((json.dumps(response) + "\n").encode("ascii"))
        self.wfile.flush()

    def _refuse_oversized(self) -> None:
        """Reply ``protocol`` to an over-long line and end the connection.
        Half-close first and discard what the client still sends for up
        to ``_LINGER_SECONDS``: closing with unread input resets the
        connection, which can destroy the reply in flight."""
        self._reply({"ok": False, "error": "protocol",
                     "message": f"request line exceeds {MAX_REQUEST_BYTES} bytes"})
        deadline = time.monotonic() + _LINGER_SECONDS
        try:
            self.connection.shutdown(socket.SHUT_WR)
            while (remaining := deadline - time.monotonic()) > 0:
                self.connection.settimeout(remaining)
                if not self.connection.recv(1 << 16):
                    break
        except OSError:  # timeout or reset: the connection is done anyway
            pass


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class QueryDaemon:
    """Serves one :class:`LabelStore` to concurrent TCP clients.

    Args:
        store: an opened label store (the daemon closes it with
            :meth:`close` only if ``owns_store``).
        host / port: bind address; port 0 picks a free port (see
            :attr:`address`).
        epoch_seconds: batching epoch of the lookup collectors.
        max_batch: per-flush entry cap of the collectors.
    """

    def __init__(
        self,
        store: LabelStore,
        host: str = "127.0.0.1",
        port: int = 0,
        epoch_seconds: float = 0.005,
        max_batch: int = 4096,
        owns_store: bool = False,
    ) -> None:
        self.store = store
        self.sessions = SessionManager()
        self._owns_store = owns_store
        self.label_collector = BatchCollector(
            store.label_engine, epoch_seconds=epoch_seconds, max_batch=max_batch
        )
        self.topo_collector = BatchCollector(
            store.topo_engine, epoch_seconds=epoch_seconds, max_batch=max_batch
        )
        self._server = _Server((host, port), _Handler)
        self._server.daemon = self  # type: ignore[attr-defined]
        self.address = self._server.server_address
        self._serve_thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`request_shutdown`."""
        self._server.serve_forever(poll_interval=0.05)

    def start(self) -> None:
        """Serve on a background thread (tests and embedded use)."""
        self._serve_thread = threading.Thread(
            target=self.serve_forever, name="scc-serve", daemon=True
        )
        self._serve_thread.start()

    def request_shutdown(self) -> None:
        """Stop ``serve_forever`` from any thread (idempotent)."""
        threading.Thread(target=self._server.shutdown, daemon=True).start()

    def close(self) -> None:
        """Shut the server down and release every resource."""
        self._server.shutdown()
        self._server.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5)
        self.label_collector.close()
        self.topo_collector.close()
        if self._owns_store:
            self.store.close()

    def __enter__(self) -> "QueryDaemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatch ----------------------------------------------------------

    def handle_request(self, request: dict) -> dict:
        op = request.get("op")
        handler = self._OPS.get(op)
        if handler is None:
            raise ServiceProtocolError(f"unsupported op {op!r}")
        return handler(self, request)

    @staticmethod
    def _nodes(request: dict) -> list:
        nodes = request.get("nodes")
        if not isinstance(nodes, list) or not all(
            isinstance(n, int) for n in nodes
        ):
            raise ServiceProtocolError('"nodes" must be a list of integers')
        return nodes

    def _session(self, request: dict):
        session_id = request.get("session")
        if not isinstance(session_id, str):
            raise ServiceProtocolError('"session" id required')
        return self.sessions.get(session_id)

    def _op_ping(self, request: dict) -> dict:
        return {"ok": True, "op": "ping"}

    def _op_open_session(self, request: dict) -> dict:
        tenant = request.get("tenant", "default")
        io_budget = request.get("io_budget")
        if io_budget is not None and (
            not isinstance(io_budget, int) or io_budget < 0
        ):
            raise ServiceProtocolError('"io_budget" must be a non-negative int')
        session = self.sessions.create(str(tenant), io_budget)
        return {"ok": True, "session": session.id}

    def _op_close_session(self, request: dict) -> dict:
        session = self._session(request)
        return {"ok": True, "ledger": self.sessions.close(session.id)}

    def _op_scc_label(self, request: dict) -> dict:
        session = self._session(request)
        labels = {}
        for node, record in self.label_collector.submit(
            session, self._nodes(request)
        ).items():
            labels[str(node)] = record[1] if record is not None else None
        return {"ok": True, "labels": labels}

    def _op_same_component(self, request: dict) -> dict:
        session = self._session(request)
        same = self.store.same_component(
            session, int(request["u"]), int(request["v"])
        )
        return {"ok": True, "same": same}

    def _op_reachable(self, request: dict) -> dict:
        session = self._session(request)
        reachable = self.store.reachable(
            session, int(request["u"]), int(request["v"])
        )
        return {"ok": True, "reachable": reachable}

    def _op_topo_order(self, request: dict) -> dict:
        session = self._session(request)
        nodes = self._nodes(request)
        labels = {}
        for node, record in self.label_collector.submit(session, nodes).items():
            labels[node] = record[1] if record is not None else None
        components = sorted(
            {label for label in labels.values() if label is not None}
        )
        layers = (
            self.topo_collector.submit(session, components) if components else {}
        )
        orders = {}
        for node in set(nodes):
            label = labels.get(node)
            if label is None:
                orders[str(node)] = None
            else:
                record = layers.get(label)
                orders[str(node)] = [label, record[1] if record is not None else 0]
        return {"ok": True, "orders": orders}

    def _op_session_stats(self, request: dict) -> dict:
        session = self._session(request)
        return {"ok": True, "ledger": session.ledger()}

    def _op_server_stats(self, request: dict) -> dict:
        stats = self.store.server_stats()
        stats["sessions"] = self.sessions.roll_up()
        return {"ok": True, "stats": stats}

    def _op_shutdown(self, request: dict) -> dict:
        # The handler loop sees "op": "shutdown" echoed back and stops
        # the server after acknowledging.
        return {"ok": True, "op": "shutdown"}

    _OPS = {
        "ping": _op_ping,
        "open-session": _op_open_session,
        "close-session": _op_close_session,
        "scc-label": _op_scc_label,
        "same-component": _op_same_component,
        "reachable": _op_reachable,
        "topo-order": _op_topo_order,
        "session-stats": _op_session_stats,
        "server-stats": _op_server_stats,
        "shutdown": _op_shutdown,
    }
