"""HTTP client for an external generation service.

Wire contract: POST ``{endpoint}/generate`` with a JSON body carrying the
``GenerationRequest`` fields that are not None, in field order; the service
answers ``{"candidates": [{"text": ..., "lm_score": ...}, ...]}``. A candidate
that ``Candidate.from_record`` rejects is a protocol violation.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from dataclasses import asdict

import requests

from .errors import ConfigurationError, DataError, ProtocolError, TransportError
from .generator import Candidate, GenerationRequest

logger = logging.getLogger(__name__)

GENERATOR_URL_ENV = "QAFORGE_GENERATOR_URL"


class RemoteGeneratorClient:
    """Client with bounded retries for transient service faults.

    Connection failures, timeouts, and 5xx responses are retried up to
    ``max_attempts`` times with exponential backoff; malformed responses
    are not retried. Safe to share across threads (one session per thread).
    """

    def __init__(
        self,
        endpoint: str | None = None,
        *,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        timeout: float = 30.0,
    ):
        endpoint = endpoint or os.environ.get(GENERATOR_URL_ENV)
        if not endpoint:
            raise ConfigurationError(
                f"no generator endpoint configured (flag, config, or {GENERATOR_URL_ENV})"
            )
        self.endpoint = endpoint.rstrip("/")
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.timeout = timeout
        self._local = threading.local()

    def _session(self) -> requests.Session:
        session = getattr(self._local, "session", None)
        if session is None:
            session = requests.Session()
            self._local.session = session
        return session

    def generate(self, request: GenerationRequest, seed: int = 0) -> list[Candidate]:
        """Request ``num_samples`` candidates; the service owns its own randomness."""
        del seed  # not part of the wire contract
        url = f"{self.endpoint}/generate"
        payload = {key: value for key, value in asdict(request).items() if value is not None}

        last_fault = "no attempt made"
        for attempt in range(1, self.max_attempts + 1):
            try:
                response = self._session().post(url, json=payload, timeout=self.timeout)
            except (requests.ConnectionError, requests.Timeout) as exc:
                last_fault = f"{type(exc).__name__}: {exc}"
            else:
                if response.status_code >= 500:
                    last_fault = f"server error {response.status_code}"
                elif response.status_code != 200:
                    raise TransportError(
                        f"generator returned status {response.status_code}",
                        url=url,
                        attempts=attempt,
                    )
                else:
                    return self._parse_response(response, request, url, attempt)
            if attempt < self.max_attempts:
                delay = self.backoff_base * (2 ** (attempt - 1))
                logger.warning(
                    "generator attempt %d/%d failed (%s); retrying in %.2fs",
                    attempt,
                    self.max_attempts,
                    last_fault,
                    delay,
                )
                time.sleep(delay)
        raise TransportError(
            f"generator unreachable after {self.max_attempts} attempts: {last_fault}",
            url=url,
            attempts=self.max_attempts,
        )

    def _parse_response(
        self,
        response: requests.Response,
        request: GenerationRequest,
        url: str,
        attempts: int,
    ) -> list[Candidate]:
        try:
            body = response.json()
        except ValueError as exc:
            raise ProtocolError(
                f"generator response is not JSON: {exc}", url=url, attempts=attempts
            ) from exc
        if not isinstance(body, dict) or not isinstance(body.get("candidates"), list):
            raise ProtocolError(
                "generator response missing 'candidates' array", url=url, attempts=attempts
            )
        candidates = []
        for position, item in enumerate(body["candidates"]):
            try:
                candidates.append(Candidate.from_record(item))
            except DataError as exc:
                raise ProtocolError(
                    f"candidate {position}: {exc}", url=url, attempts=attempts
                ) from exc
        if len(candidates) != request.num_samples:
            raise ProtocolError(
                f"expected {request.num_samples} candidates, got {len(candidates)}",
                url=url,
                attempts=attempts,
            )
        return candidates
