"""The service's HTTP server: a ``ThreadingHTTPServer`` over :class:`SimulationService`.

Only ``python -m repro.service serve`` and its tests import this module,
so nothing else loads ``http.server``.  Each request is handed to
:meth:`SimulationService.route <repro.service.app.SimulationService.route>`
and its ``(status, payload)`` pair written back as JSON.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional

from repro.service.app import DEFAULT_HOST, DEFAULT_PORT, SimulationService
from repro.service.schemas import error_payload

#: Largest accepted request body, a defensive cap (scenario documents
#: are tiny; inline topologies with thousands of nodes still fit easily).
MAX_BODY_BYTES = 8 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """Thin adapter from ``http.server`` to :meth:`SimulationService.route`."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    def _respond(self, status: int, payload: Dict[str, object]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> Optional[bytes]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            self._respond(
                413,
                error_payload("TooLarge", f"request body exceeds {MAX_BODY_BYTES} bytes"),
            )
            return None
        return self.rfile.read(length) if length else b""

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        body = self._body()
        if body is None:
            return
        status, payload = self.server.service.route("POST", self.path, body)
        self._respond(status, payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        status, payload = self.server.service.route("GET", self.path)
        self._respond(status, payload)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`SimulationService`."""

    daemon_threads = True

    def __init__(self, address, service: SimulationService, *, verbose: bool = False) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose


def make_server(
    service: SimulationService,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    *,
    verbose: bool = False,
) -> ServiceHTTPServer:
    """Bind (but do not start) the service's HTTP server; port 0 = ephemeral."""
    return ServiceHTTPServer((host, port), service, verbose=verbose)
