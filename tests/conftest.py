"""Shared toy fixtures: a tiny word pool, a trainable corpus, and eval passages.

Every toy passage ends with the same two anchor words so the first decode
step of an order-3 backend lands on a context seen in training; that keeps
the hermetic sample -> parse -> filter funnel well populated.
"""

from __future__ import annotations

import json
import random
import socket
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from qaforge import remote
from qaforge.corpus import Passage
from qaforge.dataset import SquadDataset, write_squad
from qaforge.generator import train_reference

WORD_POOL = [
    "river", "island", "glacier", "harbor", "bridge", "museum", "valley",
    "storm", "coast", "tower", "garden", "winter", "summer", "stone",
    "water", "north", "south", "ancient", "city", "mountain",
]
ANCHOR = "stone garden"


def make_text(rng: random.Random, length: int) -> str:
    return " ".join(rng.choice(WORD_POOL) for _ in range(length)) + " " + ANCHOR


def make_training_corpus(count: int = 20, seed: int = 11) -> list[tuple[str, str, str]]:
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        passage = make_text(rng, rng.randint(10, 14))
        tokens = passage.split()
        question = " ".join(rng.choice(WORD_POOL) for _ in range(rng.randint(3, 5)))
        span_len = rng.randint(1, 2)
        start = rng.randrange(len(tokens) - span_len)
        answer = " ".join(tokens[start:start + span_len])
        corpus.append((passage, question, answer))
    return corpus


def make_passages(count: int = 50, seed: int = 23) -> list[Passage]:
    rng = random.Random(seed)
    return [
        Passage.build(f"p{index:03d}", make_text(rng, rng.randint(28, 58)), "en")
        for index in range(count)
    ]


def write_passage_file(path: Path, passages: list[Passage]) -> Path:
    with open(path, "w", encoding="utf-8") as handle:
        for passage in passages:
            handle.write(
                json.dumps(
                    {"id": passage.id, "text": passage.text, "language": passage.language},
                    ensure_ascii=False,
                )
                + "\n"
            )
    return path


def write_training_file(path: Path, corpus: list[tuple[str, str, str]]) -> Path:
    with open(path, "w", encoding="utf-8") as handle:
        for passage, question, answer in corpus:
            handle.write(
                json.dumps(
                    {"passage": passage, "question": question, "answer": answer},
                    ensure_ascii=False,
                )
                + "\n"
            )
    return path


def dumps_squad(dataset: SquadDataset) -> str:
    """The document ``write_squad`` writes for ``dataset``, without its final newline."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "dataset.json"
        write_squad(dataset, path)
        return path.read_bytes().decode("utf-8")[:-1]


@pytest.fixture(scope="session")
def toy_corpus() -> list[tuple[str, str, str]]:
    return make_training_corpus()


@pytest.fixture(scope="session")
def toy_backend(toy_corpus):
    return train_reference(toy_corpus, order=3)


@pytest.fixture(scope="session")
def toy_passages() -> list[Passage]:
    return make_passages()


@pytest.fixture()
def fixtures_dir() -> Path:
    return Path(__file__).parent / "fixtures"


TRUNCATED = object()
# Like TRUNCATED, but the connection stays open: the client waits for the rest.
STALLED = object()


class _Script:
    """Canned responses served in order; records request bodies and client addresses.

    A response is ``(status, payload)`` or ``(status, payload, headers)``.
    With ``close_idle``, the server closes each connection after its
    response without telling the client, and sets ``closed``.
    """

    def __init__(self, responses, close_idle=False):
        self.responses = list(responses)
        self.close_idle = close_idle
        self.closed = threading.Event()
        self.bodies = []
        self.clients = []
        self.lock = threading.Lock()

    def next_response(self, body):
        with self.lock:
            self.bodies.append(body)
            if len(self.responses) > 1:
                return self.responses.pop(0)
            return self.responses[0]


@pytest.fixture()
def serve():
    """``serve(script, keep_alive=False)`` starts a loopback service and returns its URL.

    With ``keep_alive``, the service speaks HTTP/1.1 and keeps each connection
    open for the next request.
    """
    servers = []

    def _start(script, keep_alive: bool = False) -> str:
        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"
            # Headers and body go out in two writes; with Nagle's algorithm the
            # body of a kept-alive response waits on the client's delayed ACK.
            disable_nagle_algorithm = True

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length)) if length else None
                with script.lock:
                    script.clients.append(self.client_address)
                status, payload, *headers = script.next_response(body)
                if payload is TRUNCATED or payload is STALLED:
                    # Promise more bytes than are sent.
                    self.send_response(status)
                    self.send_header("Content-Length", "500")
                    self.end_headers()
                    self.wfile.write(b'{"candidates": [{"te')
                    self.close_connection = payload is TRUNCATED
                    return
                data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                self.send_response(status)
                for name, value in (headers[0] if headers else {}).items():
                    self.send_header(name, value)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
                if getattr(script, "close_idle", False):
                    self.close_connection = True
                    self.request.shutdown(socket.SHUT_WR)
                    script.closed.set()

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # A short poll, so that shutdown() below returns within 10 ms, not 0.5 s.
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        thread.start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}"

    yield _start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture()
def fast_retries(monkeypatch):
    """The remote client's retry policy with a 10 ms backoff and a 0.5 s socket timeout.

    The attempt count stays ``remote.MAX_ATTEMPTS``.
    """
    monkeypatch.setattr(remote, "BACKOFF_BASE_S", 0.01)
    monkeypatch.setattr(remote, "TIMEOUT_S", 0.5)


# Hypothesis reports a failing example through libcst, whose import warns
# that mypy_extensions.TypedDict is deprecated. Under "error" that warning
# would escape the report hook and abort the session (INTERNALERROR) instead
# of failing the one test, so it alone is ignored.
_HYPOTHESIS_REPORT_WARNING = (
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning:libcst\\."
)


def pytest_collection_modifyitems(items):
    # Every warning raised by a test of this suite fails it: an unclosed file
    # handle (ResourceWarning) or a deprecation is a defect, not noise. The
    # filter is set here rather than in pyproject.toml so that it covers this
    # suite only, not the benchmark's own tests.
    suite = Path(__file__).parent
    for item in items:
        if item.path.is_relative_to(suite):
            # Later filters take precedence over earlier ones.
            item.add_marker(pytest.mark.filterwarnings("error", _HYPOTHESIS_REPORT_WARNING))
