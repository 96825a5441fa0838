from __future__ import annotations

import logging
import math
import socket
import sys
import threading
import time
from contextlib import closing
from dataclasses import replace

import pytest

from conftest import STALLED, TRUNCATED, _Script
from qaforge import remote
from qaforge.errors import ConfigurationError, ProtocolError, TransportError
from qaforge.generator import GenerationRequest, conditioning_text
from qaforge.pipeline import PipelineConfig, resume_fingerprint
from qaforge.remote import GENERATOR_URL_ENV, MAX_ATTEMPTS, RemoteGeneratorClient


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


@pytest.mark.usefixtures("fast_retries")
class TestRemoteGeneratorClient:
    def test_round_trip_and_request_body(self, serve):
        script = _Script([(200, _ok_payload())])
        client = RemoteGeneratorClient(serve(script))
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
        client = RemoteGeneratorClient(serve(script))
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
        client = RemoteGeneratorClient(endpoint)
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

    def test_retries_through_server_errors(self, serve):
        script = _Script([(500, {}), (503, {}), (200, _ok_payload())])
        client = RemoteGeneratorClient(serve(script))
        assert len(client.generate(_request())) == 2
        assert len(script.bodies) == 3

    def test_gives_up_after_three_server_errors(self, serve):
        script = _Script([(503, {})])
        client = RemoteGeneratorClient(serve(script))
        with pytest.raises(
            TransportError, match="^generator unreachable after 3 attempts: server error 503$"
        ) as exc:
            client.generate(_request())
        assert not isinstance(exc.value, ProtocolError)
        assert len(script.bodies) == MAX_ATTEMPTS == 3

    def test_unreachable_endpoint(self, caplog):
        client = RemoteGeneratorClient("http://127.0.0.1:9")
        with caplog.at_level(logging.WARNING, logger="qaforge.remote"):
            with pytest.raises(TransportError, match="after 3 attempts: ConnectionRefusedError"):
                client.generate(_request())
        retries = [record.getMessage() for record in caplog.records]
        assert len(retries) == 2
        for attempt, message in enumerate(retries, start=1):
            assert message.startswith(f"generator attempt {attempt}/3 failed (ConnectionRefused")

    def test_missing_lm_score_is_protocol_violation(self, serve):
        payload = {"candidates": [{"text": "question q answer a"}, {"text": "x", "lm_score": -1}]}
        script = _Script([(200, payload)])
        client = RemoteGeneratorClient(serve(script))
        with pytest.raises(ProtocolError, match="lm_score"):
            client.generate(_request())
        assert len(script.bodies) == 1

    def test_wrong_candidate_count_is_protocol_violation(self, serve):
        script = _Script([(200, _ok_payload(1))])
        client = RemoteGeneratorClient(serve(script))
        with pytest.raises(ProtocolError, match="expected 2"):
            client.generate(_request(num_samples=2))
        assert len(script.bodies) == 1

    def test_non_json_body_is_protocol_violation(self, serve):
        # The second body nests past the recursion limit.
        script = _Script([(200, b"<html>oops</html>"), (200, b"[" * 200_000)])
        client = RemoteGeneratorClient(serve(script))
        for calls in (1, 2):
            with pytest.raises(ProtocolError, match="not JSON"):
                client.generate(_request())
            assert len(script.bodies) == calls

    def test_lone_surrogate_is_protocol_violation(self, serve):
        payload = _ok_payload()
        payload["candidates"][1]["text"] = "question q\ud800 answer a"  # sent as "\\ud800"
        client = RemoteGeneratorClient(serve(_Script([(200, payload)])))
        with pytest.raises(ProtocolError, match="unpaired surrogate"):
            client.generate(_request())

    def test_endpoint_from_environment(self, serve, monkeypatch):
        script = _Script([(200, _ok_payload())])
        monkeypatch.setenv(GENERATOR_URL_ENV, serve(script))
        client = RemoteGeneratorClient()
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


class TestRetryPolicy:
    def test_waits_half_a_second_then_one_and_gives_up_after_three_attempts(
        self, serve, monkeypatch
    ):
        sleeps = []
        monkeypatch.setattr(remote.time, "sleep", sleeps.append)
        script = _Script([(503, {})])
        with closing(RemoteGeneratorClient(serve(script))) as client:
            connection = client._pool.get()
            client._pool.put(connection)
            with pytest.raises(TransportError, match="after 3 attempts"):
                client.generate(_request())
        assert connection.timeout == 30.0
        assert sleeps == [0.5, 1.0]
        assert len(script.bodies) == 3


@pytest.mark.usefixtures("fast_retries")
class TestFailurePaths:
    def test_client_error_is_not_retried(self, serve):
        script = _Script([(404, {}), (200, _ok_payload())])
        client = RemoteGeneratorClient(serve(script))
        with pytest.raises(TransportError, match="status 404") as exc:
            client.generate(_request())
        assert not isinstance(exc.value, ProtocolError)
        assert len(script.bodies) == 1

    def test_response_without_candidates_is_not_retried(self, serve):
        script = _Script([(200, {}), (200, _ok_payload())])
        client = RemoteGeneratorClient(serve(script))
        with pytest.raises(ProtocolError, match="missing 'candidates' array"):
            client.generate(_request())
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
        client = RemoteGeneratorClient(serve(script))
        with pytest.raises(ProtocolError, match="candidate 1: .*finite"):
            client.generate(_request())
        assert len(script.bodies) == 1

    def test_request_body_keys_in_field_order(self, serve):
        script = _Script([(200, _ok_payload(1))])
        client = RemoteGeneratorClient(serve(script))
        client.generate(_request(num_samples=1))
        assert list(script.bodies[0]) == [
            "passage", "language", "num_samples", "top_k", "max_output_tokens",
            "target_language",
        ]


@pytest.mark.usefixtures("fast_retries")
class TestTruncatedResponse:
    def test_truncated_then_ok_succeeds_on_attempt_two(self, serve):
        script = _Script([(200, TRUNCATED), (200, _ok_payload())])
        client = RemoteGeneratorClient(serve(script))
        assert len(client.generate(_request())) == 2
        assert len(script.bodies) == 2

    def test_always_truncated_is_transport_error(self, serve):
        script = _Script([(200, TRUNCATED)])
        client = RemoteGeneratorClient(serve(script))
        with pytest.raises(TransportError, match="after 3 attempts: IncompleteRead") as exc:
            client.generate(_request())
        assert not isinstance(exc.value, ProtocolError)
        assert len(script.bodies) == 3


@pytest.mark.usefixtures("fast_retries")
class TestRedirect:
    @pytest.mark.parametrize("status", [302, 307])
    def test_redirect_is_a_transport_error_after_one_request(self, serve, status):
        # Once followed: a 302 came back as a GET, a 307 loop sent 31 requests
        # and raised an error outside the documented exit codes.
        script = _Script([(status, {}, {"Location": "/generate"}), (200, _ok_payload())])
        client = RemoteGeneratorClient(serve(script))
        with pytest.raises(TransportError, match=f"status {status}"):
            client.generate(_request())
        assert len(script.bodies) == 1


class TestKeepAlive:
    def test_calls_reuse_one_connection(self, serve):
        script = _Script([(200, _ok_payload())])
        with closing(RemoteGeneratorClient(serve(script, keep_alive=True))) as client:
            for _ in range(3):
                client.generate(_request())
        assert len(script.clients) == 3
        assert len(set(script.clients)) == 1

    def test_connection_closed_by_the_server_while_idle_costs_no_attempt(self, serve, caplog):
        script = _Script([(200, _ok_payload())], close_idle=True)
        with closing(RemoteGeneratorClient(serve(script, keep_alive=True))) as client:
            client.generate(_request())
            assert script.closed.wait(5)
            with caplog.at_level(logging.WARNING, logger="qaforge.remote"):
                assert len(client.generate(_request())) == 2
        assert caplog.records == []
        assert len(script.bodies) == 2
        assert len(set(script.clients)) == 2

    @pytest.mark.usefixtures("fast_retries")
    def test_connection_of_a_failed_attempt_is_not_reused(self, serve):
        # The first response stalls mid-body on an open connection until
        # the socket times out; the retry must not be sent on it.
        script = _Script([(200, STALLED), (200, _ok_payload())])
        with closing(RemoteGeneratorClient(serve(script, keep_alive=True))) as client:
            assert len(client.generate(_request())) == 2
        assert len(script.bodies) == 2
        assert len(set(script.clients)) == 2

    def test_shared_client_has_at_most_its_connections_in_flight(self, serve):
        script = _Script([(200, _ok_payload())])
        in_flight = peak = 0
        inner = script.next_response

        def slow_response(body):
            nonlocal in_flight, peak
            with script.lock:
                in_flight += 1
                peak = max(peak, in_flight)
            time.sleep(0.02)
            with script.lock:
                in_flight -= 1
            return inner(body)

        script.next_response = slow_response
        client = RemoteGeneratorClient(serve(script), connections=2)
        threads = [threading.Thread(target=client.generate, args=(_request(),)) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        assert len(script.bodies) == 6
        assert peak == 2


class TestConnectionHandOff:
    def test_a_connection_given_back_goes_to_the_thread_waiting_for_it(self, serve):
        # Once, a thread that gave the one connection back took it again ahead
        # of the thread waiting for it, which then waited for all of its calls.
        script = _Script([(200, _ok_payload())])
        inner = script.next_response
        first_in = threading.Event()

        def slow_first(body):
            if not first_in.is_set():
                first_in.set()
                time.sleep(0.2)
            return inner(body)

        script.next_response = slow_first
        with closing(RemoteGeneratorClient(serve(script, keep_alive=True))) as client:
            looping = threading.Thread(
                target=lambda: [client.generate(_request()) for _ in range(5)]
            )
            looping.start()
            assert first_in.wait(5)
            client.generate(replace(_request(), passage="otra isla"))
            looping.join(10)
            assert not looping.is_alive()
        passages = [body["passage"] for body in script.bodies]
        assert passages.index("otra isla") == 1

    def test_threads_outnumbering_the_connections_lose_none(self, serve):
        script = _Script([(200, _ok_payload())])
        results: list[int] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with closing(RemoteGeneratorClient(serve(script), connections=2)) as client:

                def calls():
                    for _ in range(10):
                        results.append(len(client.generate(_request())))

                threads = [threading.Thread(target=calls) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30)
                    assert not thread.is_alive()
                assert (client._pool.qsize(), client._waiting) == (2, [])
        finally:
            sys.setswitchinterval(interval)
        assert results == [2] * 80


@pytest.mark.usefixtures("fast_retries")
class TestEndpointAddress:
    @pytest.mark.parametrize(
        "endpoint, address",
        [("http://[::1]", ("::1", 80)), ("http://[::1]:8080/api", ("::1", 8080)),
         ("https://localhost", ("localhost", 443))],
    )
    def test_connects_to_the_endpoints_host_and_port(self, monkeypatch, endpoint, address):
        # Once, without a port in the URL, "::1" was dialled as host ":" port 1.
        dialled = []

        def refuse(target, *args, **kwargs):
            dialled.append(target)
            raise ConnectionRefusedError("refused")

        monkeypatch.setattr(socket, "create_connection", refuse)
        client = RemoteGeneratorClient(endpoint)
        with pytest.raises(TransportError, match="ConnectionRefusedError"):
            client.generate(_request())
        assert dialled == [address] * MAX_ATTEMPTS
