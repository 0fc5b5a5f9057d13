"""Generation requests, HTTP backend retry behavior, and batch fan-out."""

import base64
import random
import sys
import threading

import pytest
from conftest import DROP, closed_port

from symtraj.llm import (
    BackendUnavailable,
    GenerationRequest,
    GenerationResponse,
    HttpBackend,
    MalformedResponse,
    PromptTooLong,
    ScriptedMockBackend,
    Usage,
    generate_batch,
    prompt_key,
)
from symtraj.mock import OracleMockBackend

MESSAGES = ({"role": "system", "content": "be brief"}, {"role": "user", "content": "hi"})


def _ok_payload(text="fine", finish="stop"):
    return {
        "choices": [{"message": {"content": text}, "finish_reason": finish}],
        "usage": {"prompt_tokens": 5, "completion_tokens": 2},
    }


def _echo(body):
    """A reply that repeats the last message, so each answer names its request."""
    return 200, _ok_payload(text=body["messages"][-1]["content"])


@pytest.fixture
def http_backend(local_server):
    """Builds HttpBackends on the local server; each records its backoff sleeps."""
    made = []

    def build(url=None, **kwargs):
        sleeps = []
        kwargs.setdefault("sleep", sleeps.append)
        backend = HttpBackend(
            url or local_server.url + "/v1/chat", model="m1", rng=random.Random(0), **kwargs
        )
        backend.sleeps = sleeps
        made.append(backend)
        return backend

    yield build
    for backend in made:
        backend.close()


def test_generation_request_validation():
    req = GenerationRequest(messages=MESSAGES, temperature=0.2, max_tokens=5, seed=1)
    assert req.messages[0]["role"] == "system"
    with pytest.raises(ValueError):
        GenerationRequest(messages=MESSAGES, max_tokens=0)
    for temperature in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="temperature"):
            GenerationRequest(messages=MESSAGES, temperature=temperature)


def test_generation_response_requires_text_on_stop():
    with pytest.raises(ValueError):
        GenerationResponse(text="", finish_reason="stop", usage=Usage(1, 0), latency_ms=0)


def test_prompt_key_is_stable_and_content_sensitive():
    a = prompt_key(MESSAGES)
    b = prompt_key(tuple(dict(m) for m in MESSAGES))
    c = prompt_key(({"role": "system", "content": "be brief"}, {"role": "user", "content": "yo"}))
    assert a == b
    assert a != c
    assert len(a) == 64


@pytest.mark.parametrize(
    "messages, digest",
    [
        (
            (
                {"role": "system", "content": "Prove it."},
                {"role": "user", "content": "∀x (P(x) → Q(x)) ∧ ¬Q(a) ⊕ ∃y R(y, é)"},
            ),
            "ee5747c6a531eb493f8d565b2b1954cc2f41ac521175d14503576d51b09ab27d",
        ),
        (
            ({"role": "user"}, {"content": "Finish [True]"}, {}),
            "b0f99f2f695f4e74cf5b1c5ccda6c82f67381c65c0238589da6105128743837a",
        ),
        ((), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ],
    ids=["non-ascii", "missing-role-or-content", "empty"],
)
def test_prompt_key_digests_are_pinned(messages, digest):
    # The mock seeds every answer from this digest: a changed digest changes
    # every mock artifact. The digests are the SHA-256 of the \x1e-joined
    # "role\x1fcontent" texts, a missing field read as "".
    assert prompt_key(messages) == digest


def test_http_backend_success_and_headers(monkeypatch, local_server, http_backend):
    monkeypatch.setenv("UNIT_KEY", "sekrit")
    local_server.script = [(200, _ok_payload())]
    backend = http_backend(api_key_env="UNIT_KEY")
    resp = backend.generate(GenerationRequest(messages=MESSAGES, seed=7))
    assert resp.text == "fine"
    assert resp.finish_reason == "stop"
    assert resp.usage == Usage(5, 2)
    [call] = local_server.requests
    assert call["path"] == "/v1/chat"
    assert call["headers"]["Authorization"] == "Bearer sekrit"
    assert call["headers"]["Content-Type"] == "application/json"
    assert call["json"]["model"] == "m1"
    assert call["json"]["seed"] == 7
    assert call["json"]["messages"] == list(MESSAGES)


def test_http_backend_reads_key_at_request_time(monkeypatch, local_server, http_backend):
    monkeypatch.delenv("UNIT_KEY", raising=False)
    local_server.script = [(200, _ok_payload())]
    backend = http_backend(api_key_env="UNIT_KEY")
    monkeypatch.setenv("UNIT_KEY", "late")
    backend.generate(GenerationRequest(messages=MESSAGES))
    assert local_server.requests[0]["headers"]["Authorization"] == "Bearer late"


def test_http_backend_no_key_no_header(local_server, http_backend):
    local_server.script = [(200, _ok_payload())]
    http_backend().generate(GenerationRequest(messages=MESSAGES))
    assert "Authorization" not in local_server.requests[0]["headers"]


def test_http_backend_retries_429_and_5xx(local_server, http_backend):
    # The 503 announces Connection: close, so the dropped request that
    # follows goes out on a fresh connection and counts as a network error.
    local_server.script = [(429, {}), (503, {}, "close"), DROP, (200, _ok_payload("eventually"))]
    backend = http_backend()
    resp = backend.generate(GenerationRequest(messages=MESSAGES))
    assert resp.text == "eventually"
    assert len(local_server.requests) == 4
    assert len(backend.sleeps) == 3


def test_http_backend_gives_up_after_max_retries(local_server, http_backend):
    local_server.script = [(500, {})] * 3
    backend = http_backend(max_retries=3)
    with pytest.raises(BackendUnavailable, match="HTTP 500"):
        backend.generate(GenerationRequest(messages=MESSAGES))
    assert len(local_server.requests) == 3
    assert len(backend.sleeps) == 2
    # A refused connection is a network error like any other.
    backend = http_backend(f"http://127.0.0.1:{closed_port()}/v1/chat", max_retries=2)
    with pytest.raises(BackendUnavailable, match="network error"):
        backend.generate(GenerationRequest(messages=MESSAGES))
    assert len(backend.sleeps) == 1


def test_http_backend_client_error_fails_fast(local_server, http_backend):
    local_server.script = [(403, {})]
    backend = http_backend()
    with pytest.raises(BackendUnavailable):
        backend.generate(GenerationRequest(messages=MESSAGES))
    assert len(local_server.requests) == 1
    assert backend.sleeps == []


def test_http_backend_malformed_payloads(local_server, http_backend):
    bodies = [
        {"choices": []},
        b"not json",
        {"choices": [{"message": {"content": ""}, "finish_reason": "stop"}]},
    ]
    local_server.script = [(200, body) for body in bodies]
    backend = http_backend()
    for _ in bodies:
        with pytest.raises(MalformedResponse):
            backend.generate(GenerationRequest(messages=MESSAGES))
    assert len(local_server.requests) == len(bodies)


@pytest.mark.parametrize("usage", [None, "absent", {"prompt_tokens": None}])
def test_http_backend_reads_missing_usage_as_zero(local_server, http_backend, usage):
    payload = {"choices": [{"message": {"content": "fine"}, "finish_reason": "stop"}]}
    if usage != "absent":
        payload["usage"] = usage
    local_server.script = [(200, payload)] * 2
    backend = http_backend()
    resp = backend.generate(GenerationRequest(messages=MESSAGES))
    assert resp.text == "fine" and resp.usage == Usage(0, 0)
    # Nor does a batch turn such a completion into an error response.
    [resp] = generate_batch(backend, [GenerationRequest(messages=MESSAGES)], parallelism=1)
    assert resp.error is None and resp.text == "fine"


def test_http_backend_prompt_too_long(local_server, http_backend):
    backend = http_backend(max_prompt_chars=3)
    with pytest.raises(PromptTooLong):
        backend.generate(GenerationRequest(messages=MESSAGES))
    assert local_server.requests == [] and local_server.connections == 0


@pytest.mark.parametrize(
    "url, kwargs",
    [
        ("http://127.0.0.1:1/v1", {"max_retries": 0}),
        ("http://127.0.0.1:1/v1", {"max_retries": -1}),
        ("http://127.0.0.1:1/v1", {"timeout_s": 0}),
        ("http://127.0.0.1:1/v1", {"timeout_s": -1.5}),
        ("127.0.0.1:1/v1", {}),
        ("ftp://127.0.0.1/v1", {}),
    ],
)
def test_http_backend_rejects_settings_that_fail_every_request(url, kwargs):
    with pytest.raises(ValueError):
        HttpBackend(url, **kwargs)


@pytest.mark.parametrize("limit", [0, -5])
def test_every_backend_refuses_a_prompt_limit_below_one(limit):
    for make in (
        lambda: HttpBackend("http://127.0.0.1:1/v1", max_prompt_chars=limit),
        lambda: ScriptedMockBackend({}, max_prompt_chars=limit),
        lambda: OracleMockBackend([], max_prompt_chars=limit),
    ):
        with pytest.raises(ValueError, match=f"'max_prompt_chars' must be at least 1, got {limit}"):
            make()


def test_http_backend_keeps_connections_across_batches(local_server, http_backend):
    local_server.default = _echo
    backend = http_backend()
    for batch in range(2):
        contents = [f"b{batch}q{i}" for i in range(20)]
        reqs = [GenerationRequest(messages=({"role": "user", "content": c},)) for c in contents]
        responses = generate_batch(backend, reqs, parallelism=2)
        assert [r.text for r in responses] == contents
    assert len(local_server.requests) == 40
    assert 1 <= local_server.connections <= 2


def test_http_backend_shares_idle_connections_between_threads(local_server, http_backend):
    # Eight threads, switching as often as the interpreter allows: a lost
    # update on the idle list would drop a connection or hand one to two
    # threads at once, which garbles their exchanges.
    local_server.default = _echo
    backend = http_backend()
    contents = [f"q{i}" for i in range(200)]
    reqs = [GenerationRequest(messages=({"role": "user", "content": c},)) for c in contents]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        responses = generate_batch(backend, reqs, parallelism=8)
    finally:
        sys.setswitchinterval(interval)
    assert [r.text for r in responses] == contents
    assert len(local_server.requests) == 200
    assert len(backend._client._idle) == local_server.connections <= 8


def test_http_backend_reconnects_to_a_dropped_connection_without_backoff(local_server, http_backend):
    local_server.default = _echo
    local_server.close_after_reply = True

    def no_sleep(seconds):
        raise AssertionError(f"backed off {seconds} s for a closed idle connection")

    backend = http_backend(sleep=no_sleep)
    for i in range(3):
        resp = backend.generate(GenerationRequest(messages=({"role": "user", "content": f"q{i}"},)))
        assert resp.text == f"q{i}"
    # The server read no request on a connection it had closed.
    assert [r["json"]["messages"][0]["content"] for r in local_server.requests] == ["q0", "q1", "q2"]
    assert local_server.connections == 3


def test_http_backend_sends_absolute_target_through_proxy(monkeypatch, local_server, http_backend):
    proxy = local_server.url.replace("http://", "http://user:p%40ss@")
    monkeypatch.setenv("HTTP_PROXY", proxy)
    local_server.script = [(200, _ok_payload())]
    resp = http_backend("http://chat.invalid:8080/v1/chat?v=2").generate(
        GenerationRequest(messages=MESSAGES)
    )
    assert resp.text == "fine"
    [call] = local_server.requests
    assert call["path"] == "http://chat.invalid:8080/v1/chat?v=2"
    assert call["headers"]["Host"] == "chat.invalid:8080"
    assert call["headers"]["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:p@ss").decode()


def test_http_backend_tunnels_https_through_proxy(monkeypatch, local_server, http_backend):
    monkeypatch.setenv("HTTPS_PROXY", local_server.url.replace("http://", "http://user:p%40ss@"))
    backend = http_backend("https://chat.invalid/v1/chat", max_retries=1)
    # The local server is no TLS endpoint, so the handshake through the tunnel fails.
    with pytest.raises(BackendUnavailable, match="network error"):
        backend.generate(GenerationRequest(messages=MESSAGES))
    [call] = local_server.requests
    assert (call["method"], call["path"]) == ("CONNECT", "chat.invalid:443")
    assert call["headers"]["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:p@ss").decode()


def test_scripted_mock_replays_script():
    key = prompt_key(MESSAGES)
    backend = ScriptedMockBackend({key: "scripted reply"})
    resp = backend.generate(GenerationRequest(messages=MESSAGES))
    assert resp.text == "scripted reply"
    assert resp.finish_reason == "stop"


def test_scripted_mock_default_and_unknown():
    backend = ScriptedMockBackend({}, default_text="fallback")
    assert backend.generate(GenerationRequest(messages=MESSAGES)).text == "fallback"
    strict = ScriptedMockBackend({})
    with pytest.raises(BackendUnavailable):
        strict.generate(GenerationRequest(messages=MESSAGES))


def test_scripted_mock_truncates_to_max_tokens():
    key = prompt_key(MESSAGES)
    backend = ScriptedMockBackend({key: "one two three four five"})
    resp = backend.generate(GenerationRequest(messages=MESSAGES, max_tokens=2))
    assert resp.text == "one two"
    assert resp.finish_reason == "length"


def test_generate_batch_preserves_order_and_wraps_errors():
    ok_req = GenerationRequest(messages=MESSAGES)
    other = ({"role": "user", "content": "unknown"},)
    bad_req = GenerationRequest(messages=other)
    backend = ScriptedMockBackend({prompt_key(MESSAGES): "yes"})
    responses = generate_batch(backend, [ok_req, bad_req, ok_req], parallelism=2)
    assert [r.text for r in responses] == ["yes", "", "yes"]
    assert responses[1].finish_reason == "error"
    assert responses[1].error.startswith("BackendUnavailable")


def test_generate_batch_runs_parallelism_requests_at_once(local_server, http_backend):
    # The server answers only once two requests are in flight at the same time.
    barrier = threading.Barrier(2, timeout=5)
    local_server.default = lambda body: (barrier.wait(), _echo(body))[1]
    reqs = [
        GenerationRequest(messages=({"role": "user", "content": f"q{i}"},)) for i in range(4)
    ]
    responses = generate_batch(http_backend(), reqs, parallelism=2)
    assert [r.error for r in responses] == [None] * 4
    assert [r.text for r in responses] == ["q0", "q1", "q2", "q3"]


class ThreadRecordingBackend(ScriptedMockBackend):
    """A scripted mock that notes the thread each request runs on."""

    def __init__(self, script):
        super().__init__(script)
        self.threads = []

    def generate(self, req):
        self.threads.append(threading.get_ident())
        return super().generate(req)


def test_generate_batch_runs_in_process_backends_on_the_calling_thread():
    assert OracleMockBackend.in_process and ScriptedMockBackend.in_process
    assert not HttpBackend.in_process
    backend = ThreadRecordingBackend({prompt_key(MESSAGES): "yes"})
    ok_req = GenerationRequest(messages=MESSAGES)
    bad_req = GenerationRequest(messages=({"role": "user", "content": "unknown"},))
    responses = generate_batch(backend, [ok_req, bad_req, ok_req], parallelism=4)
    assert backend.threads == [threading.get_ident()] * 3
    assert [r.text for r in responses] == ["yes", "", "yes"]
    assert responses[1].finish_reason == "error"
    assert responses[1].error.startswith("BackendUnavailable")


def test_generate_batch_takes_each_request_after_answering_the_one_before():
    # The label stage builds its requests in a generator and relies on an
    # in-process backend holding one request at a time.
    events = []

    class LoggingBackend(ScriptedMockBackend):
        def generate(self, req):
            events.append(("answer", req.seed))
            return super().generate(req)

    def requests():
        for seed in range(3):
            events.append(("take", seed))
            yield GenerationRequest(messages=MESSAGES, seed=seed)

    responses = generate_batch(LoggingBackend({prompt_key(MESSAGES): "yes"}), requests(), parallelism=4)
    assert [r.text for r in responses] == ["yes"] * 3
    assert events == [(event, seed) for seed in range(3) for event in ("take", "answer")]


def test_generate_batch_validates_parallelism():
    with pytest.raises(ValueError):
        generate_batch(ScriptedMockBackend({}), [], parallelism=0)
    assert generate_batch(ScriptedMockBackend({}), [], parallelism=3) == []
