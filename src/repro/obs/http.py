"""The live health surface: a tiny stdlib HTTP server on the daemon.

:class:`HealthServer` wraps ``http.server.ThreadingHTTPServer`` in a
background thread and answers three endpoints, all computed from
callables the host process supplies (no state of its own, nothing to
go stale):

- ``GET /metrics`` — Prometheus text via the existing
  :func:`~repro.obs.export.metrics_to_prometheus` exporter;
- ``GET /healthz`` — the configured :class:`~repro.obs.slo.SloPolicy`
  evaluated against live stats; HTTP 200 with a JSON report when every
  threshold holds, 503 with the same report (violations included) when
  any is breached — load-balancer-ready semantics;
- ``GET /sessions`` — per-session JSON (accepted/flushed/pending/
  nacks), the fleet operator's ``who is talking to me right now``.

The server thread is a daemon and every handler is wrapped: an
exception in a probe endpoint returns a 500 to the prober and touches
nothing in the ingest path.

Its server, like the ingest daemon's, serves through
:class:`WakeableServer`, whose ``shutdown()`` returns without waiting
out a poll interval.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.obs.slo import DEFAULT_INGEST_SLO, SloPolicy

StatsFn = Callable[[], Mapping[str, Any]]
MetricsFn = Callable[[], str]
SessionsFn = Callable[[], Any]


class WakeableServer:
    """A ``socketserver`` mixin whose ``shutdown()`` wakes its serve loop.

    ``socketserver.BaseServer.serve_forever`` sees a shutdown request
    only when its ``select`` next times out, so each ``shutdown()``
    waits up to one poll interval. This loop also selects on a socket
    pair that ``shutdown()`` writes to, and returns as soon as it reads
    the byte; the poll interval only paces ``service_actions``. Start
    the loop with :meth:`serve_in_thread`: ``shutdown()`` then waits
    only for a loop that was started, so a server that never served
    stops at once. List it before the server class it mixes into.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        # Made first: a failed bind calls server_close() from within
        # the server class's __init__.
        self._wake_read, self._wake_write = socket.socketpair()
        self._wake_read.setblocking(False)
        self._stop_requested = False
        self._stopped = threading.Event()
        self._stopped.set()  # no serve loop to wait for yet
        super().__init__(*args, **kwargs)

    def serve_in_thread(
        self, name: str, poll_interval: float
    ) -> threading.Thread:
        """Run :meth:`serve_forever` on a new daemon thread.

        The loop counts as running from this call on, so a
        ``shutdown()`` that comes before the thread reaches its loop
        still waits for it.
        """
        self._stopped.clear()
        thread = threading.Thread(
            target=self.serve_forever,
            kwargs={"poll_interval": poll_interval},
            name=name,
            daemon=True,
        )
        thread.start()
        return thread

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._stopped.clear()
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self, selectors.EVENT_READ)
                selector.register(self._wake_read, selectors.EVENT_READ)
                while not self._stop_requested:
                    ready = {key.fileobj for key, _ in selector.select(poll_interval)}
                    if self._wake_read in ready:
                        try:
                            self._wake_read.recv(64)
                        except BlockingIOError:
                            pass
                    if self._stop_requested:
                        break
                    if self in ready:
                        self._handle_request_noblock()
                    self.service_actions()
        finally:
            self._stop_requested = False
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` and wait until it has returned.

        Returns at once when no loop was started.
        """
        self._stop_requested = True
        try:
            self._wake_write.send(b"\0")
        except OSError:
            pass  # closed already: the loop has returned
        self._stopped.wait()

    def server_close(self) -> None:
        super().server_close()
        self._wake_read.close()
        self._wake_write.close()


class _HealthHandler(BaseHTTPRequestHandler):
    server: "_HealthHTTPServer"

    # Probes come every few seconds; stay quiet on stderr.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            if path == "/metrics":
                self._send(200, self.server.health.metrics_text(),
                           "text/plain; version=0.0.4; charset=utf-8")
            elif path == "/healthz":
                status, report = self.server.health.healthz()
                self._send_json(status, report)
            elif path == "/sessions":
                self._send_json(200, self.server.health.sessions_json())
            elif path == "/":
                self._send_json(200, {
                    "endpoints": ["/healthz", "/metrics", "/sessions"],
                })
            else:
                self._send_json(404, {"error": f"unknown path {path}"})
        except Exception as error:  # noqa: BLE001 - probe must not kill us
            try:
                self._send_json(500, {"error": str(error)})
            except OSError:
                pass  # prober went away mid-answer

    def _send(self, status: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(self, status: int, body: Any) -> None:
        self._send(
            status,
            json.dumps(body, indent=2, sort_keys=True) + "\n",
            "application/json",
        )


class _HealthHTTPServer(WakeableServer, ThreadingHTTPServer):
    allow_reuse_address = True
    daemon_threads = True
    health: "HealthServer"


class HealthServer:
    """Serves ``/metrics``, ``/healthz``, and ``/sessions`` for a daemon.

    Args:
        stats_fn: live stats mapping the SLO policy is evaluated
            against (e.g. :func:`repro.obs.slo.ingest_stats_for_slo`
            output).
        metrics_fn: Prometheus text body for ``/metrics``.
        sessions_fn: JSON-able payload for ``/sessions``.
        slo: policy behind ``/healthz``; defaults to
            :data:`~repro.obs.slo.DEFAULT_INGEST_SLO`.
        host/port: bind address; port 0 picks a free port.
    """

    def __init__(
        self,
        stats_fn: StatsFn,
        metrics_fn: Optional[MetricsFn] = None,
        sessions_fn: Optional[SessionsFn] = None,
        slo: Optional[SloPolicy] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.stats_fn = stats_fn
        self.metrics_fn = metrics_fn or (lambda: "")
        self.sessions_fn = sessions_fn or (lambda: [])
        self.slo = DEFAULT_INGEST_SLO if slo is None else slo
        self._server = _HealthHTTPServer((host, port), _HealthHandler)
        self._server.health = self
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        return self._server.server_address[:2]

    def start(self) -> "HealthServer":
        self._thread = self._server.serve_in_thread("obs-health", 0.1)
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "HealthServer":
        return self.start()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------
    # Endpoint bodies (also callable directly, e.g. from tests)
    # ------------------------------------------------------------------

    def healthz(self) -> Tuple[int, Dict[str, Any]]:
        """``(http_status, report_json)`` for the current stats."""
        stats = dict(self.stats_fn())
        report = self.slo.evaluate(stats)
        body = report.as_dict()
        body["stats"] = stats
        return (200 if report.healthy else 503), body

    def metrics_text(self) -> str:
        return self.metrics_fn()

    def sessions_json(self) -> Any:
        return self.sessions_fn()

    def __repr__(self) -> str:
        host, port = self.address
        return f"HealthServer({host}:{port}, policy={self.slo.name!r})"
