"""Shared generators for property tests, a local HTTP server for the HTTP
client's tests, and the completion prompt built without
`build_completion_prompt`. All randomness is seeded per test."""

import dataclasses
import json
import random
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from symtraj.fol import (
    And,
    Constant,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Pred,
    Variable,
    Xor,
)
from symtraj.trajectory import build_sampling_prompt, render_step

PRED_POOL = (("P", 1), ("Q", 1), ("R", 2), ("Likes", 2), ("Rain", 0), ("S", 1))
CONST_POOL = ("a", "b", "c")
VAR_POOL = ("x", "y", "z", "u")
BINARY = (And, Or, Xor, Implies, Iff)


def random_term(rng: random.Random, bound: tuple[str, ...]):
    if bound and rng.random() < 0.5:
        return Variable(rng.choice(bound))
    return Constant(rng.choice(CONST_POOL))


def random_atom(rng: random.Random, bound: tuple[str, ...]) -> Formula:
    name, arity = rng.choice(PRED_POOL)
    return Pred(name, tuple(random_term(rng, bound) for _ in range(arity)))


def random_formula(rng: random.Random, depth: int, bound: tuple[str, ...] = ()) -> Formula:
    """Random formula of nesting depth at most `depth`."""
    if depth <= 0 or rng.random() < 0.2:
        return random_atom(rng, bound)
    kind = rng.randrange(8)
    if kind == 0:
        return Not(random_formula(rng, depth - 1, bound))
    if kind <= 5:
        op = rng.choice(BINARY)
        return op(random_formula(rng, depth - 1, bound), random_formula(rng, depth - 1, bound))
    quantifier = ForAll if kind == 6 else Exists
    var = rng.choice(VAR_POOL)
    body = random_formula(rng, depth - 1, bound + (var,))
    return quantifier(var, body)


def random_closed_formula(rng: random.Random, depth: int) -> Formula:
    """Random formula with no free variables."""
    return random_formula(rng, depth, bound=())


# A scripted reply that closes the connection without answering.
DROP = "drop"
PROXY_VARIABLES = ("http_proxy", "https_proxy", "all_proxy", "no_proxy")


class LocalServer:
    """An HTTP/1.1 endpoint on 127.0.0.1 that answers POSTs from a script.

    Each entry of `script` answers one request, in order: a (status, body)
    pair, or (status, body, "close") to announce Connection: close, or DROP.
    A body is raw bytes or a JSON value. Once the script runs out,
    `default(json_body)` answers. With close_after_reply the server closes
    each connection after its reply without announcing it, as a server
    dropping idle connections does. It grants every CONNECT. It records every
    request (`method`, `path`, the `headers` and a POST's `json` body) and
    counts the connections it accepted.
    """

    def __init__(self):
        self.script = []
        self.default = None
        self.close_after_reply = False
        self.requests = []
        self.connections = 0
        self.lock = threading.Lock()
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), self._handler())
        self._httpd.daemon_threads = True
        self.url = f"http://127.0.0.1:{self._httpd.server_address[1]}"
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()

    def _handler(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # Headers and body go out in two writes; without this the second
            # waits for the client's delayed ACK.
            disable_nagle_algorithm = True

            def setup(self):
                super().setup()
                with server.lock:
                    server.connections += 1

            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                with server.lock:
                    server.requests.append(
                        {"method": "POST", "path": self.path, "headers": self.headers, "json": body}
                    )
                    reply = server.script.pop(0) if server.script else None
                if reply is None:
                    reply = server.default(body)
                if reply == DROP:
                    self.close_connection = True
                    return
                status, payload, *close = reply
                data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                if close:
                    self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(data)
                if server.close_after_reply:
                    self.close_connection = True

            def do_CONNECT(self):
                # Grants the tunnel, then reads what comes through it as HTTP:
                # enough to see a client ask for one, not to carry TLS.
                with server.lock:
                    server.requests.append({"method": "CONNECT", "path": self.path, "headers": self.headers})
                self.send_response(200)
                self.end_headers()

            def log_message(self, *args):
                pass

        return Handler

    def close(self):
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


def completion_messages(problem, traj, prefix_len: int, n_shots: int = 1) -> tuple[dict, ...]:
    """The messages that ask to finish traj after its first prefix_len steps,
    built from the sampling prompt alone, as a reference for the label stage."""
    prefix = "\n".join(render_step(s) for s in traj.steps[:prefix_len])
    sampling = build_sampling_prompt(problem, n_shots)
    return tuple(dataclasses.replace(sampling, continuation_prefix=prefix).to_messages())


def closed_port() -> int:
    """A local port that nothing listens on (it was free a moment ago)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture
def local_server(monkeypatch):
    """A LocalServer, reached directly whatever proxies the environment names."""
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    server = LocalServer()
    yield server
    server.close()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay acceptance verdict lines after capture ends."""
    lines = sys.modules.get("test_acceptance") and sys.modules["test_acceptance"].REPORT_LINES
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
