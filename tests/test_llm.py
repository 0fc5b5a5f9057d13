"""Generation requests, HTTP backend retry behavior, and batch fan-out."""

import random
import threading

import pytest
import requests

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

MESSAGES = ({"role": "system", "content": "be brief"}, {"role": "user", "content": "hi"})


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


class FakeSession:
    """Yields queued outcomes; an Exception instance is raised instead."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _ok_payload(text="fine", finish="stop"):
    return {
        "choices": [{"message": {"content": text}, "finish_reason": finish}],
        "usage": {"prompt_tokens": 5, "completion_tokens": 2},
    }


def _backend(outcomes, **kwargs):
    session = FakeSession(outcomes)
    backend = HttpBackend(
        "http://unit.test/v1/chat",
        model="m1",
        session=session,
        sleep=lambda s: None,
        rng=random.Random(0),
        **kwargs,
    )
    return backend, session


def test_generation_request_validation():
    req = GenerationRequest(messages=MESSAGES, temperature=0.2, max_tokens=5, seed=1)
    assert req.messages[0]["role"] == "system"
    with pytest.raises(ValueError):
        GenerationRequest(messages=MESSAGES, max_tokens=0)
    with pytest.raises(ValueError):
        GenerationRequest(messages=MESSAGES, temperature=-0.1)


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


def test_http_backend_success_and_headers(monkeypatch):
    monkeypatch.setenv("UNIT_KEY", "sekrit")
    backend, session = _backend([FakeResponse(payload=_ok_payload())], api_key_env="UNIT_KEY")
    resp = backend.generate(GenerationRequest(messages=MESSAGES, seed=7))
    assert resp.text == "fine"
    assert resp.finish_reason == "stop"
    assert resp.usage == Usage(5, 2)
    call = session.calls[0]
    assert call["headers"]["Authorization"] == "Bearer sekrit"
    assert call["json"]["model"] == "m1"
    assert call["json"]["seed"] == 7


def test_http_backend_reads_key_at_request_time(monkeypatch):
    monkeypatch.delenv("UNIT_KEY", raising=False)
    backend, session = _backend([FakeResponse(payload=_ok_payload())], api_key_env="UNIT_KEY")
    monkeypatch.setenv("UNIT_KEY", "late")
    backend.generate(GenerationRequest(messages=MESSAGES))
    assert session.calls[0]["headers"]["Authorization"] == "Bearer late"


def test_http_backend_no_key_no_header():
    backend, session = _backend([FakeResponse(payload=_ok_payload())])
    backend.generate(GenerationRequest(messages=MESSAGES))
    assert "Authorization" not in session.calls[0]["headers"]


def test_http_backend_retries_429_and_5xx():
    backend, session = _backend(
        [
            FakeResponse(status_code=429),
            FakeResponse(status_code=503),
            requests.ConnectionError("boom"),
            FakeResponse(payload=_ok_payload("eventually")),
        ]
    )
    resp = backend.generate(GenerationRequest(messages=MESSAGES))
    assert resp.text == "eventually"
    assert len(session.calls) == 4


def test_http_backend_gives_up_after_max_retries():
    backend, session = _backend([FakeResponse(status_code=500)] * 3, max_retries=3)
    with pytest.raises(BackendUnavailable):
        backend.generate(GenerationRequest(messages=MESSAGES))
    assert len(session.calls) == 3


def test_http_backend_client_error_fails_fast():
    backend, session = _backend([FakeResponse(status_code=403)])
    with pytest.raises(BackendUnavailable):
        backend.generate(GenerationRequest(messages=MESSAGES))
    assert len(session.calls) == 1


def test_http_backend_malformed_payloads():
    backend, _ = _backend([FakeResponse(payload={"choices": []})])
    with pytest.raises(MalformedResponse):
        backend.generate(GenerationRequest(messages=MESSAGES))
    backend, _ = _backend([FakeResponse(payload=None)])
    with pytest.raises(MalformedResponse):
        backend.generate(GenerationRequest(messages=MESSAGES))
    backend, _ = _backend(
        [FakeResponse(payload={"choices": [{"message": {"content": ""}, "finish_reason": "stop"}]})]
    )
    with pytest.raises(MalformedResponse):
        backend.generate(GenerationRequest(messages=MESSAGES))


@pytest.mark.parametrize("usage", [None, "absent", {"prompt_tokens": None}])
def test_http_backend_reads_missing_usage_as_zero(usage):
    payload = {"choices": [{"message": {"content": "fine"}, "finish_reason": "stop"}]}
    if usage != "absent":
        payload["usage"] = usage
    backend, _ = _backend([FakeResponse(payload=payload)])
    resp = backend.generate(GenerationRequest(messages=MESSAGES))
    assert resp.text == "fine" and resp.usage == Usage(0, 0)
    # Nor does a batch turn such a completion into an error response.
    backend, _ = _backend([FakeResponse(payload=payload)])
    [resp] = generate_batch(backend, [GenerationRequest(messages=MESSAGES)], parallelism=1)
    assert resp.error is None and resp.text == "fine"


def test_http_backend_prompt_too_long():
    backend, session = _backend([], max_prompt_chars=3)
    with pytest.raises(PromptTooLong):
        backend.generate(GenerationRequest(messages=MESSAGES))
    assert session.calls == []


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


class BarrierSession(FakeSession):
    """Answers only once `parties` requests are in flight at the same time."""

    def __init__(self, parties):
        super().__init__([])
        self.barrier = threading.Barrier(parties, timeout=5)

    def post(self, url, json=None, headers=None, timeout=None):
        self.barrier.wait()  # BrokenBarrierError, an error response, unless all arrive
        return FakeResponse(payload=_ok_payload(text=json["messages"][-1]["content"]))


def test_generate_batch_runs_parallelism_requests_at_once():
    backend = HttpBackend("http://unit.test/v1/chat", session=BarrierSession(2))
    reqs = [
        GenerationRequest(messages=({"role": "user", "content": f"q{i}"},)) for i in range(4)
    ]
    responses = generate_batch(backend, reqs, parallelism=2)
    assert [r.error for r in responses] == [None] * 4
    assert [r.text for r in responses] == ["q0", "q1", "q2", "q3"]


def test_generate_batch_validates_parallelism():
    with pytest.raises(ValueError):
        generate_batch(ScriptedMockBackend({}), [], parallelism=0)
    assert generate_batch(ScriptedMockBackend({}), [], parallelism=3) == []
