"""HTTP client for an external generation service.

Wire contract: POST ``{endpoint}/generate`` with a JSON body carrying the
``GenerationRequest`` fields that are not None, in field order; the service
answers ``{"candidates": [{"text": ..., "lm_score": ...}, ...]}``. A candidate
that ``Candidate.from_record`` rejects is a protocol violation.

The client speaks HTTP/1.1 through ``http.client`` on a pool of keep-alive
connections. It reads no proxy variables or netrc, follows no redirect, and
verifies https against the system CA store.
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import queue
import selectors
import threading
import time
from dataclasses import asdict
from urllib.parse import urlsplit

from .errors import (
    JSON_ERRORS, ConfigurationError, DataError, ProtocolError, TransportError, load_json
)
from .generator import Candidate, GenerationRequest

logger = logging.getLogger(__name__)

GENERATOR_URL_ENV = "QAFORGE_GENERATOR_URL"


def resolve_endpoint(endpoint: str | None) -> str:
    """The service base URL: ``endpoint``, else ``$QAFORGE_GENERATOR_URL``, no trailing slash.

    Anything but an ``http`` or ``https`` URL with a host is a ConfigurationError.
    """
    endpoint = endpoint or os.environ.get(GENERATOR_URL_ENV)
    if not endpoint:
        raise ConfigurationError(
            f"no generator endpoint configured (flag, config, or {GENERATOR_URL_ENV})"
        )
    try:
        parts = urlsplit(endpoint)
        parts.port  # a port that is not a number in range raises ValueError
    except ValueError:
        parts = None
    if parts is None or parts.scheme not in ("http", "https") or not parts.hostname:
        raise ConfigurationError(
            f"generator endpoint {endpoint!r} is not an http(s) URL with a host"
        )
    return endpoint.rstrip("/")


_HEADERS = {"Content-Type": "application/json"}

# The retry policy: attempts per call, the wait before the first retry
# (doubled before each later one), and the bound on each socket operation.
MAX_ATTEMPTS = 3
BACKOFF_BASE_S = 0.5
TIMEOUT_S = 30.0


def _closed_by_peer(connection: http.client.HTTPConnection) -> bool:
    """True if an idle connection's socket is readable: the server closed it (or misbehaved)."""
    if connection.sock is None:
        return False
    with selectors.DefaultSelector() as selector:
        selector.register(connection.sock, selectors.EVENT_READ)
        return bool(selector.select(0))


class RemoteGeneratorClient:
    """Client with bounded retries for transient service faults.

    Connection failures, timeouts, responses cut short of their declared
    length, and 5xx responses are retried, for ``MAX_ATTEMPTS`` attempts in
    all, after waits of ``BACKOFF_BASE_S`` that double each time; malformed
    responses and any other status are not retried. Safe to share across
    threads: an attempt borrows one of ``connections`` keep-alive
    connections, in the order the threads asked, and returns it once the
    response is read, so at most ``connections`` requests are in flight, and
    a call waiting out its backoff holds none. ``TIMEOUT_S`` bounds each
    socket operation.
    """

    def __init__(self, endpoint: str | None = None, *, connections: int = 1):
        self.endpoint = resolve_endpoint(endpoint)
        parts = urlsplit(self.endpoint)
        self._path = parts.path + "/generate"
        https = parts.scheme == "https"
        kind = http.client.HTTPSConnection if https else http.client.HTTPConnection
        # An explicit port: left to parse one from the host, http.client
        # reads "::1" as host ":" and port 1.
        port = parts.port or kind.default_port
        self._pool: queue.SimpleQueue[http.client.HTTPConnection] = queue.SimpleQueue()
        for _ in range(connections):
            self._pool.put(kind(parts.hostname, port, timeout=TIMEOUT_S))
        # A queue for each thread waiting for a connection, longest-waiting first: a
        # connection given back goes to the first, not to the thread that gave it back.
        self._waiting: list[queue.SimpleQueue[http.client.HTTPConnection]] = []
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close every connection, for use when no call is in flight; a later call reconnects."""
        for _ in range(self._pool.qsize()):
            connection = self._pool.get()
            connection.close()
            self._pool.put(connection)

    def _borrow(self) -> http.client.HTTPConnection:
        """An idle connection, or else the one given back to this thread when its turn comes."""
        with self._lock:
            if not self._pool.empty():
                return self._pool.get()
            handoff: queue.SimpleQueue[http.client.HTTPConnection] = queue.SimpleQueue()
            self._waiting.append(handoff)
        return handoff.get()

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """One attempt on a pooled connection: the response status and body."""
        connection = self._borrow()
        try:
            if _closed_by_peer(connection):
                connection.close()
            connection.request("POST", self._path, body, _HEADERS)
            with connection.getresponse() as response:
                return response.status, response.read()
        except BaseException:
            connection.close()
            raise
        finally:
            with self._lock:
                taker = self._waiting.pop(0) if self._waiting else self._pool
                taker.put(connection)
            if taker is not self._pool:
                # Let the waiting thread send at once: this one goes on to
                # parse its response holding the interpreter lock.
                time.sleep(0)

    def generate(self, request: GenerationRequest, seed: int = 0) -> list[Candidate]:
        """Request ``num_samples`` candidates; the service owns its own randomness."""
        del seed  # not part of the wire contract
        payload = {key: value for key, value in asdict(request).items() if value is not None}
        body = json.dumps(payload).encode("utf-8")

        last_fault = "no attempt made"
        for attempt in range(1, MAX_ATTEMPTS + 1):
            try:
                status, data = self._post(body)
            except (OSError, http.client.HTTPException) as exc:
                last_fault = f"{type(exc).__name__}: {exc}"
            else:
                if status >= 500:
                    last_fault = f"server error {status}"
                elif status != 200:
                    raise TransportError(f"generator returned status {status}")
                else:
                    return self._parse_response(data, request)
            if attempt < MAX_ATTEMPTS:
                delay = BACKOFF_BASE_S * (2 ** (attempt - 1))
                logger.warning(
                    "generator attempt %d/%d failed (%s); retrying in %.2fs",
                    attempt,
                    MAX_ATTEMPTS,
                    last_fault,
                    delay,
                )
                time.sleep(delay)
        raise TransportError(f"generator unreachable after {MAX_ATTEMPTS} attempts: {last_fault}")

    def _parse_response(self, data: bytes, request: GenerationRequest) -> list[Candidate]:
        try:
            body = load_json(data)
        except JSON_ERRORS as exc:
            raise ProtocolError(f"generator response is not JSON: {exc}") from exc
        if not isinstance(body, dict) or not isinstance(body.get("candidates"), list):
            raise ProtocolError("generator response missing 'candidates' array")
        candidates = []
        for position, item in enumerate(body["candidates"]):
            try:
                candidates.append(Candidate.from_record(item))
            except DataError as exc:
                raise ProtocolError(f"candidate {position}: {exc}") from exc
        if len(candidates) != request.num_samples:
            raise ProtocolError(f"expected {request.num_samples} candidates, got {len(candidates)}")
        return candidates
