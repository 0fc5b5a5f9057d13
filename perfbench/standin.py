"""Stand-in chat-completions endpoint for the http-unique workload.

Runs in its own process and answers POSTs in the shape HttpBackend sends,
with the texts of OracleMockBackend over the workload's problems, after a
fixed service delay. It prints the port it listens on as its first line.

It counts the generation requests it served and the UTF-8 bytes of their
message content, and records for every continuation request the problem,
a digest of the trace prefix, the seed and whether the answer it gave was
the gold one. GET /stats writes that record to --served and answers with
the counters.

    python3 perfbench/standin.py --src SRC --problems P --served OUT \
        --seed N --accuracy A --sloppiness S --delay-ms D
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

FINISH_RE = re.compile(r"Finish \[(\w+)\]")


def prefix_digest(prefix: str) -> str:
    """How the served record names a trace prefix (the label check uses it too)."""
    return hashlib.sha1(prefix.encode("utf-8")).hexdigest()


class StandIn:
    def __init__(self, args, symtraj):
        self.args = args
        self.symtraj = symtraj
        self.lock = threading.Lock()
        self.mock = None
        self.tasks: list[tuple[str, object]] = []
        self.requests = 0
        self.prompt_bytes = 0
        self.busy_s = 0.0
        self.mock_generate_s = 0.0
        self.served: list[list] = []

    def _load(self):
        # The problems file exists only once gen-problems has run, so the
        # mock is built on the first request.
        with self.lock:
            if self.mock is None:
                problems = self.symtraj.problems.load_problems(self.args.problems)
                self.tasks = [
                    (self.symtraj.trajectory.build_sampling_prompt(p).task, p) for p in problems
                ]
                self.mock = self.symtraj.mock.OracleMockBackend(
                    problems,
                    seed=self.args.seed,
                    accuracy=self.args.accuracy,
                    sloppiness=self.args.sloppiness,
                )
        return self.mock

    def answer(self, body: dict) -> dict:
        mock = self.mock or self._load()
        llm = self.symtraj.llm
        messages = tuple(body["messages"])
        req = llm.GenerationRequest(
            messages=messages,
            temperature=body.get("temperature", llm.DEFAULT_TEMPERATURE),
            max_tokens=body.get("max_tokens", llm.DEFAULT_MAX_TOKENS),
            seed=body.get("seed"),
            model=body.get("model", ""),
        )
        time.sleep(self.args.delay_ms / 1000.0)
        start = time.perf_counter()
        resp = mock.generate(req)
        mock_s = time.perf_counter() - start
        user = messages[-1]["content"]
        record = None
        continuation = self.symtraj.trajectory.CONTINUATION_REQUEST
        if user.endswith(continuation):
            for task, problem in self.tasks:
                at = user.find(task)
                if at >= 0:
                    prefix = user[at + len(task) + 1 : -(len(continuation) + 1)]
                    found = FINISH_RE.findall(resp.text)
                    gold = bool(found) and found[-1] == str(problem.label)
                    record = [problem.id, prefix_digest(prefix), req.seed, gold]
                    break
        n_bytes = sum(len(m.get("content", "").encode("utf-8")) for m in messages)
        with self.lock:
            self.requests += 1
            self.prompt_bytes += n_bytes
            self.mock_generate_s += mock_s
            if record is not None:
                self.served.append(record)
        message = {"role": "assistant", "content": resp.text}
        return {
            "choices": [{"message": message, "finish_reason": resp.finish_reason}],
            "usage": {
                "prompt_tokens": resp.usage.prompt_tokens,
                "completion_tokens": resp.usage.completion_tokens,
            },
        }

    def stats(self) -> dict:
        with self.lock:
            with open(self.args.served, "w", encoding="utf-8") as fh:
                json.dump(sorted(self.served), fh)  # arrival order varies
            return {
                "requests": self.requests,
                "prompt_bytes": self.prompt_bytes,
                "busy_s": self.busy_s,
                "mock_generate_s": self.mock_generate_s,
            }


def make_handler(state: StandIn):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Without this each response waits for the client's delayed ACK.
        disable_nagle_algorithm = True

        def _send(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            ).encode("ascii")
            self.wfile.write(head + body)

        def do_POST(self):
            start = time.perf_counter()
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            try:
                payload = state.answer(json.loads(raw))
                status = 200
            except Exception as exc:  # answer the client; it counts the failure
                payload = {"error": f"{type(exc).__name__}: {exc}"}
                status = 500
            self._send(status, payload)
            with state.lock:
                state.busy_s += time.perf_counter() - start

        def do_GET(self):
            if self.path == "/stats":
                self._send(200, state.stats())
            else:
                self._send(404, {"error": "not found"})

        def log_message(self, *args):
            pass

    return Handler


def exit_with_parent() -> None:
    # The parent holds our stdin open; end of file means it is gone.
    sys.stdin.buffer.read()
    os._exit(0)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--problems", required=True)
    parser.add_argument("--served", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--accuracy", type=float, required=True)
    parser.add_argument("--sloppiness", type=float, required=True)
    parser.add_argument("--delay-ms", dest="delay_ms", type=float, required=True)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import symtraj.llm
    import symtraj.mock
    import symtraj.problems
    import symtraj.trajectory

    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(StandIn(args, symtraj)))
    server.daemon_threads = True
    threading.Thread(target=exit_with_parent, daemon=True).start()
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
