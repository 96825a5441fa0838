from __future__ import annotations

import json
import math
import threading
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from qaforge.errors import ConfigurationError, ProtocolError, TransportError
from qaforge.generator import GenerationRequest, conditioning_text
from qaforge.pipeline import PipelineConfig, resume_fingerprint
from qaforge.remote import GENERATOR_URL_ENV, RemoteGeneratorClient


TRUNCATED = object()


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
                if payload is TRUNCATED:
                    # Promise more bytes than are sent, then close the connection.
                    self.send_response(status)
                    self.send_header("Content-Length", "500")
                    self.end_headers()
                    self.wfile.write(b'{"candidates": [{"te')
                    self.close_connection = True
                    return
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

    def test_target_language_is_read_as_a_code(self, serve):
        # Once used as written: " DE" conditioned on "<lang: DE>", went on the
        # wire as " DE" and gave another resume fingerprint than "de".
        script = _Script([(200, _ok_payload())])
        endpoint = serve(script)
        client = RemoteGeneratorClient(endpoint, backoff_base=0.01)
        seen = []
        for spelling in ("de", " DE", "De\t"):
            config = PipelineConfig(
                input="passages.jsonl",
                output_dir="out",
                backend="remote",
                endpoint=endpoint,
                num_samples=2,
                target_language=spelling,
            )
            request = replace(config.request_template(), passage="isla", language="es")
            client.generate(request)
            seen.append((conditioning_text(request), resume_fingerprint(config)))
        fingerprint = resume_fingerprint(replace(config, target_language="de"))
        assert seen == [("isla <lang:de>", fingerprint)] * 3
        assert script.bodies == [script.bodies[0]] * 3
        assert script.bodies[0]["target_language"] == "de"

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

    @pytest.mark.parametrize(
        "endpoint", ["ftp://x", "http://[::1", "http://", "http://host:port", "localhost:8000"]
    )
    def test_malformed_endpoint_is_configuration_error(self, monkeypatch, endpoint):
        # Once accepted here, to fail at the first request as a pipeline error.
        monkeypatch.setenv(GENERATOR_URL_ENV, endpoint)
        with pytest.raises(ConfigurationError, match="generator endpoint"):
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


class TestTruncatedResponse:
    def test_truncated_then_ok_succeeds_on_attempt_two(self, serve):
        script = _Script([(200, TRUNCATED), (200, _ok_payload())])
        client = RemoteGeneratorClient(serve(script), backoff_base=0.01)
        assert len(client.generate(_request())) == 2
        assert len(script.bodies) == 2

    def test_always_truncated_is_transport_error(self, serve):
        script = _Script([(200, TRUNCATED)])
        client = RemoteGeneratorClient(serve(script), backoff_base=0.01)
        with pytest.raises(TransportError) as exc:
            client.generate(_request())
        assert exc.value.attempts == 3
        assert not isinstance(exc.value, ProtocolError)
        assert len(script.bodies) == 3
