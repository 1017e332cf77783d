"""Stdlib HTTP front end for the broker (``repro serve``).

JSON over ``http.server`` — zero dependencies, which is what lets the
tier-1 tests and the CI e2e job run a real broker + workers over real
sockets on any checkout.

Endpoints (all JSON; errors are ``{"error": msg}`` with a 4xx code):

====== ====================================== =========================
POST   /api/v1/studies                         submit a study
GET    /api/v1/studies/<job>                   status (``?wait=S&done=N``
                                               long-polls until the
                                               finished count differs)
GET    /api/v1/studies/<job>/cells/<i>/result  cell archive (npz base64)
POST   /api/v1/lease                           ``{"worker": id}`` → lease
                                               or JSON ``null``
POST   /api/v1/heartbeat                       ``{"lease_id"}`` → ok flag
POST   /api/v1/complete                        commit a cell archive
POST   /api/v1/fail                            report a failed lease
GET    /api/v1/health                          liveness probe
====== ====================================== =========================

Result archives ride as ``{"manifest_text": str, "npz_b64": base64}``
— text-safe encodings of the exact bytes, so byte-identity survives
the wire.
"""

from __future__ import annotations

import base64
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit
from typing import Any

from ..errors import ConfigError, ReproError
from .broker import Broker

__all__ = ["BrokerServer", "create_server", "run_server"]

_STATUS = re.compile(r"^/api/v1/studies/([^/]+)$")
_RESULT = re.compile(r"^/api/v1/studies/([^/]+)/cells/(\d+)/result$")

#: Long-poll bounds: the status endpoint re-checks at this period and
#: refuses to hold a connection longer than the cap.
_POLL_STEP = 0.05
_MAX_WAIT = 30.0


class BrokerServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`Broker`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], broker: Broker) -> None:
        super().__init__(address, _Handler)
        self.broker = broker


class _Handler(BaseHTTPRequestHandler):
    server: BrokerServer

    # One request per connection: keeps the worker/client side trivially
    # leak-free (urllib closes after every call anyway).
    protocol_version = "HTTP/1.0"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # the broker's own log carries the queue transitions

    # -- plumbing -----------------------------------------------------------

    def _send_json(self, code: int, payload: Any) -> None:
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"request body is not valid JSON: {exc}") from None

    # -- routes -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server's naming
        try:
            url = urlsplit(self.path)
            if url.path == "/api/v1/health":
                self._send_json(200, {"ok": True})
                return
            match = _STATUS.match(url.path)
            if match:
                self._send_json(200, self._status(match.group(1), url.query))
                return
            match = _RESULT.match(url.path)
            if match:
                manifest, npz = self.server.broker.result(match.group(1), int(match.group(2)))
                self._send_json(
                    200,
                    {
                        "manifest_text": manifest,
                        "npz_b64": base64.b64encode(npz).decode(),
                    },
                )
                return
            self._send_json(404, {"error": f"unknown path {url.path!r}"})
        except ReproError as exc:
            self._send_json(400, {"error": str(exc)})

    def _status(self, job_id: str, query: str) -> dict[str, Any]:
        """Job status, optionally long-polled.

        ``?wait=S&done=N`` holds the request until the finished
        (done + failed) cell count differs from ``N``, the job leaves
        ``running``, or ``S`` seconds pass — the "streamed progress"
        primitive: a client looping on it sees every transition without
        hot-polling.
        """
        params = parse_qs(query)
        wait = min(float(params.get("wait", ["0"])[0]), _MAX_WAIT)
        seen = int(params.get("done", ["-1"])[0])
        deadline = time.monotonic() + wait
        while True:
            status = self.server.broker.status(job_id)
            counts = status["counts"]
            finished = counts.get("done", 0) + counts.get("failed", 0)
            if finished != seen or status["state"] != "running" or time.monotonic() >= deadline:
                return status
            time.sleep(_POLL_STEP)

    def do_POST(self) -> None:  # noqa: N802 - http.server's naming
        try:
            body = self._read_json()
            broker = self.server.broker
            if self.path == "/api/v1/studies":
                self._send_json(200, broker.submit(body))
            elif self.path == "/api/v1/lease":
                lease = broker.lease(str(body.get("worker") or "?"))
                self._send_json(200, lease)
            elif self.path == "/api/v1/heartbeat":
                ok = broker.heartbeat(str(body.get("lease_id") or ""))
                self._send_json(200, {"ok": ok})
            elif self.path == "/api/v1/complete":
                self._send_json(
                    200,
                    broker.complete(
                        str(body.get("job_id") or ""),
                        int(body.get("cell") or 0),
                        str(body.get("manifest_text") or ""),
                        base64.b64decode(str(body.get("npz_b64") or "")),
                        lease_id=body.get("lease_id"),
                        worker=body.get("worker"),
                    ),
                )
            elif self.path == "/api/v1/fail":
                self._send_json(
                    200,
                    broker.fail(
                        str(body.get("lease_id") or ""),
                        str(body.get("error") or "worker-reported failure"),
                    ),
                )
            else:
                self._send_json(404, {"error": f"unknown path {self.path!r}"})
        except ReproError as exc:
            self._send_json(400, {"error": str(exc)})


def create_server(broker: Broker, host: str = "127.0.0.1", port: int = 0) -> BrokerServer:
    """Bind a :class:`BrokerServer` (port 0 = ephemeral, for tests)."""
    return BrokerServer((host, port), broker)


def run_server(
    broker: Broker,
    host: str = "127.0.0.1",
    port: int = 8742,
    *,
    ready: threading.Event | None = None,
    server_box: list[BrokerServer] | None = None,
) -> None:
    """Bind and serve until shutdown (the ``repro serve`` main loop).

    ``ready``/``server_box`` are test hooks: the bound server lands in
    the box (so a test learns the ephemeral port and can call
    ``shutdown``) before ``ready`` is set.
    """
    server = create_server(broker, host, port)
    try:
        if server_box is not None:
            server_box.append(server)
        if ready is not None:
            ready.set()
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
