"""Loopback generation service for the remote-loopback workload.

Run as its own process so its CPU time never sits under the client's
interpreter lock::

    python3 perfbench/stub.py --service-ms 10 --fault-every 100

It binds 127.0.0.1 on a free port, prints ``{"port": N}`` as its first
stdout line, and serves ``POST /generate`` until its stdin closes. It then
prints one JSON line of counters (requests, faults, bytes, service times) and
exits.

Answers are a pure function of the request: candidates are drawn from the
passage's own tokens with a generator seeded by the passage text, so any
client run over the same passages gets the same candidates. The first
attempt for every ``fault-every``-th distinct passage (counting arrivals, the
``fault-every // 2``-th first) is answered 503, exercising the client's retry
path a fixed number of times per run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def candidates_for(passage: str, num_samples: int, max_tokens: int) -> list[dict]:
    """Deterministic candidates: mostly well-formed, some malformed or non-extractive."""
    rng = random.Random(hashlib.sha256(passage.encode("utf-8")).digest())
    tokens = passage.split()
    out = []
    for _ in range(num_samples):
        roll = rng.random()
        question = " ".join(rng.choice(tokens) for _ in range(rng.randint(2, 5)))
        if roll < 0.15 and out:
            out.append(dict(rng.choice(out)))
            continue
        if roll < 0.3:
            text = f"question {question}"  # no answer marker
        else:
            span = rng.randint(1, 3)
            start = rng.randrange(max(1, len(tokens) - span + 1))
            answer = " ".join(tokens[start:start + span])
            if roll < 0.45:
                answer += " " + hashlib.sha256(answer.encode("utf-8")).hexdigest()[:6]
            text = f"question {question} answer {answer}"
        words = text.split()[:max_tokens]
        out.append({"text": " ".join(words), "lm_score": -round(rng.uniform(2.0, 40.0), 6)})
    return out


class Counters:
    def __init__(self, fault_every: int):
        self.fault_every = fault_every
        self.lock = threading.Lock()
        self.requests = 0
        self.faults = 0
        self.retries = 0
        self.bytes_received = 0
        self.bytes_sent = 0
        self.service_ms: list[float] = []
        self._arrivals: dict[str, bool] = {}  # passage digest -> was faulted

    def admit(self, passage_key: str) -> bool:
        """Record one request; True when this attempt must be answered 503."""
        with self.lock:
            self.requests += 1
            if passage_key in self._arrivals:
                if self._arrivals[passage_key]:
                    self.retries += 1
                    self._arrivals[passage_key] = False
                return False
            ordinal = len(self._arrivals) + 1
            fault = self.fault_every > 0 and ordinal % self.fault_every == self.fault_every // 2
            self._arrivals[passage_key] = fault
            self.faults += fault
            return fault

    def finish(self, received: int, sent: int, service_ms: float) -> None:
        with self.lock:
            self.bytes_received += received
            self.bytes_sent += sent
            self.service_ms.append(service_ms)

    def summary(self) -> dict:
        with self.lock:
            times = sorted(self.service_ms)
            return {
                "requests": self.requests,
                "faults": self.faults,
                "retries": self.retries,
                "distinct_passages": len(self._arrivals),
                "bytes_received": self.bytes_received,
                "bytes_sent": self.bytes_sent,
                "service_ms_total": sum(times),
                "service_ms_p50": times[len(times) // 2] if times else 0.0,
            }


def make_handler(counters: Counters, service_s: float):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Headers and body go out in one write below; without TCP_NODELAY a
        # small response still waits on the client's delayed ACK (~40 ms).
        disable_nagle_algorithm = True

        def do_POST(self):
            started = time.perf_counter()
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length)
            body = json.loads(raw)
            passage = body["passage"]
            key = hashlib.sha256(passage.encode("utf-8")).hexdigest()
            if counters.admit(key):
                status, payload = 503, b'{"error": "scripted fault"}'
            else:
                time.sleep(service_s)
                status = 200
                payload = json.dumps(
                    {"candidates": candidates_for(
                        passage, body["num_samples"], body["max_output_tokens"])},
                    ensure_ascii=False,
                ).encode("utf-8")
            reason = "OK" if status == 200 else "Service Unavailable"
            head = (
                f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n"
            ).encode("ascii")
            self.wfile.write(head + payload)
            counters.finish(len(raw), len(head) + len(payload),
                            (time.perf_counter() - started) * 1000.0)

        def log_message(self, *args):
            pass

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--service-ms", type=float, default=10.0)
    parser.add_argument("--fault-every", type=int, default=100)
    args = parser.parse_args()

    counters = Counters(args.fault_every)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(counters, args.service_ms / 1000))
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    sys.stdin.read()  # the parent closes our stdin to stop us
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    print(json.dumps(counters.summary()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
