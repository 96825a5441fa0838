from __future__ import annotations

import json
import math
import threading
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from qaforge.errors import ConfigurationError, ProtocolError, TransportError
from qaforge.generator import GenerationRequest
from qaforge.remote import GENERATOR_URL_ENV, RemoteGeneratorClient


class _Script:
    """Canned responses served in order; records request bodies."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.bodies = []
        self.lock = threading.Lock()

    def next_response(self, body):
        with self.lock:
            self.bodies.append(body)
            if len(self.responses) > 1:
                return self.responses.pop(0)
            return self.responses[0]


@pytest.fixture()
def serve():
    servers = []

    def _start(script: _Script) -> str:
        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length)) if length else None
                status, payload = script.next_response(body)
                data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}"

    yield _start
    for server in servers:
        server.shutdown()
        server.server_close()


def _request(num_samples=2) -> GenerationRequest:
    return GenerationRequest(
        passage="isla en el río",
        language="es",
        num_samples=num_samples,
        top_k=5,
        max_output_tokens=16,
        target_language="de",
    )


def _ok_payload(n=2):
    return {
        "candidates": [
            {"text": f"question q{i} answer a{i}", "lm_score": -1.5 - i} for i in range(n)
        ]
    }


class TestRemoteGeneratorClient:
    def test_round_trip_and_request_body(self, serve):
        script = _Script([(200, _ok_payload())])
        client = RemoteGeneratorClient(serve(script), backoff_base=0.01)
        candidates = client.generate(_request())
        assert [c.text for c in candidates] == ["question q0 answer a0", "question q1 answer a1"]
        assert candidates[0].lm_score == -1.5
        body = script.bodies[0]
        assert body == {
            "passage": "isla en el río",
            "language": "es",
            "num_samples": 2,
            "top_k": 5,
            "max_output_tokens": 16,
            "target_language": "de",
        }

    def test_target_language_omitted_when_absent(self, serve):
        script = _Script([(200, _ok_payload(1))])
        client = RemoteGeneratorClient(serve(script), backoff_base=0.01)
        request = GenerationRequest(
            passage="p", language="en", num_samples=1, top_k=1, max_output_tokens=4
        )
        client.generate(request)
        assert "target_language" not in script.bodies[0]
        assert "answer" not in script.bodies[0]

    def test_pre_specified_answer_forwarded_as_metadata(self, serve):
        script = _Script([(200, _ok_payload(1))])
        client = RemoteGeneratorClient(serve(script), backoff_base=0.01)
        request = GenerationRequest(
            passage="p", language="en", num_samples=1, top_k=1,
            max_output_tokens=4, answer="the span",
        )
        client.generate(request)
        assert script.bodies[0]["answer"] == "the span"

    def test_retries_through_server_errors(self, serve):
        script = _Script([(500, {}), (503, {}), (200, _ok_payload())])
        client = RemoteGeneratorClient(serve(script), backoff_base=0.01)
        assert len(client.generate(_request())) == 2
        assert len(script.bodies) == 3

    def test_gives_up_with_retry_metadata(self, serve):
        script = _Script([(500, {})])
        client = RemoteGeneratorClient(serve(script), backoff_base=0.01)
        with pytest.raises(TransportError) as exc:
            client.generate(_request())
        assert exc.value.attempts == 3
        assert not isinstance(exc.value, ProtocolError)

    def test_unreachable_endpoint(self):
        client = RemoteGeneratorClient(
            "http://127.0.0.1:9", max_attempts=2, backoff_base=0.01, timeout=0.5
        )
        with pytest.raises(TransportError) as exc:
            client.generate(_request())
        assert exc.value.attempts == 2

    def test_missing_lm_score_is_protocol_violation(self, serve):
        payload = {"candidates": [{"text": "question q answer a"}, {"text": "x", "lm_score": -1}]}
        script = _Script([(200, payload)])
        client = RemoteGeneratorClient(serve(script), backoff_base=0.01)
        with pytest.raises(ProtocolError, match="lm_score"):
            client.generate(_request())
        assert len(script.bodies) == 1

    def test_wrong_candidate_count_is_protocol_violation(self, serve):
        script = _Script([(200, _ok_payload(1))])
        client = RemoteGeneratorClient(serve(script), backoff_base=0.01)
        with pytest.raises(ProtocolError, match="expected 2"):
            client.generate(_request(num_samples=2))

    def test_non_json_body_is_protocol_violation(self, serve):
        script = _Script([(200, b"<html>oops</html>")])
        client = RemoteGeneratorClient(serve(script), backoff_base=0.01)
        with pytest.raises(ProtocolError):
            client.generate(_request())

    def test_endpoint_from_environment(self, serve, monkeypatch):
        script = _Script([(200, _ok_payload())])
        monkeypatch.setenv(GENERATOR_URL_ENV, serve(script))
        client = RemoteGeneratorClient(backoff_base=0.01)
        assert len(client.generate(_request())) == 2

    def test_no_endpoint_anywhere_is_configuration_error(self, monkeypatch):
        monkeypatch.delenv(GENERATOR_URL_ENV, raising=False)
        with pytest.raises(ConfigurationError):
            RemoteGeneratorClient()


class TestFailurePaths:
    def test_client_error_is_not_retried(self, serve):
        script = _Script([(404, {}), (200, _ok_payload())])
        client = RemoteGeneratorClient(serve(script), backoff_base=0.01)
        with pytest.raises(TransportError, match="status 404") as exc:
            client.generate(_request())
        assert exc.value.attempts == 1
        assert not isinstance(exc.value, ProtocolError)
        assert len(script.bodies) == 1

    @pytest.mark.parametrize(
        "lm_score",
        [math.nan, math.inf, -math.inf, -(10**400)],
        ids=["nan", "inf", "-inf", "beyond-float"],
    )
    def test_non_finite_score_is_protocol_violation(self, serve, lm_score):
        payload = {"candidates": [{"text": "question q answer a", "lm_score": -1.0},
                                  {"text": "question r answer b", "lm_score": lm_score}]}
        script = _Script([(200, payload), (200, _ok_payload())])
        client = RemoteGeneratorClient(serve(script), backoff_base=0.01)
        with pytest.raises(ProtocolError, match="candidate 1: .*finite"):
            client.generate(_request())
        assert len(script.bodies) == 1

    def test_request_body_keys_in_field_order(self, serve):
        script = _Script([(200, _ok_payload(1))])
        client = RemoteGeneratorClient(serve(script), backoff_base=0.01)
        client.generate(replace(_request(num_samples=1), answer="río"))
        assert list(script.bodies[0]) == [
            "passage", "language", "num_samples", "top_k", "max_output_tokens",
            "target_language", "answer",
        ]
