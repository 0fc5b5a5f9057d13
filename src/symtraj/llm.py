"""Generation backends: a chat-completions HTTP client and a scripted mock.

Both expose generate(request) -> response; generate_batch fans requests out
over a bounded thread pool, preserving request order and embedding per-item
failures instead of aborting the batch. A backend whose class sets
in_process = True computes its answers in this interpreter, so its requests
run inline: threads would only hand the interpreter lock back and forth.
"""

from __future__ import annotations

import hashlib
import logging
import os
import random
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import requests

logger = logging.getLogger(__name__)

DEFAULT_TEMPERATURE = 0.7
DEFAULT_MAX_TOKENS = 1024
RETRY_BASE_DELAY_S = 1.0
RETRY_FACTOR = 2.0
MAX_ATTEMPTS = 5


class BackendUnavailable(RuntimeError):
    """The backend failed after exhausting retries (or is misconfigured)."""


class MalformedResponse(ValueError):
    """The backend answered with an unexpected JSON shape."""


class PromptTooLong(ValueError):
    """The rendered prompt exceeds the backend's context budget."""


@dataclass(frozen=True)
class GenerationRequest:
    messages: tuple[dict, ...]
    temperature: float = DEFAULT_TEMPERATURE
    max_tokens: int = DEFAULT_MAX_TOKENS
    seed: int | None = None
    model: str = ""

    def __post_init__(self):
        object.__setattr__(self, "messages", tuple(dict(m) for m in self.messages))
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")


@dataclass(frozen=True)
class Usage:
    prompt_tokens: int = 0
    completion_tokens: int = 0


@dataclass(frozen=True)
class GenerationResponse:
    text: str
    finish_reason: str  # stop | length | error
    usage: Usage = field(default_factory=Usage)
    latency_ms: int = 0
    error: str | None = None

    def __post_init__(self):
        if self.finish_reason == "stop" and not self.text:
            raise ValueError("finish_reason=stop requires nonempty text")


def prompt_key(messages) -> str:
    """Stable digest of a message list, used to script mock responses."""
    joined = "\x1e".join(f"{m.get('role', '')}\x1f{m.get('content', '')}" for m in messages)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def _prompt_chars(messages) -> int:
    return sum(len(m.get("content", "")) for m in messages)


def _truncate(text: str, max_tokens: int) -> tuple[str, str]:
    # Words stand in for tokens; good enough to exercise length handling.
    # The text is cut after the last kept word, so line breaks survive.
    words = list(re.finditer(r"\S+", text))
    if len(words) > max_tokens:
        return text[: words[max_tokens - 1].end()], "length"
    return text, "stop"


class HttpBackend:
    """Chat-completions client: POST {model, messages, temperature, max_tokens, seed}.

    Retries 429/5xx/network failures with exponential backoff (base 1s,
    factor 2, up to 5 attempts, jittered). The API key is read from the
    environment variable named by api_key_env at request time and is never
    logged.
    """

    in_process = False

    def __init__(
        self,
        base_url: str,
        model: str = "",
        api_key_env: str | None = None,
        timeout_s: float = 60.0,
        max_retries: int = MAX_ATTEMPTS,
        max_prompt_chars: int | None = None,
        session=None,
        sleep=time.sleep,
        rng: random.Random | None = None,
    ):
        self.base_url = base_url
        self.model = model
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.max_prompt_chars = max_prompt_chars
        self.api_key_env = api_key_env
        self._session = session if session is not None else requests.Session()
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()

    def generate(self, req: GenerationRequest) -> GenerationResponse:
        if self.max_prompt_chars is not None and _prompt_chars(req.messages) > self.max_prompt_chars:
            raise PromptTooLong(
                f"prompt is {_prompt_chars(req.messages)} chars, limit {self.max_prompt_chars}"
            )
        body = {
            "model": req.model or self.model,
            "messages": list(req.messages),
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
            "seed": req.seed,
        }
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.api_key_env) if self.api_key_env else None
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        start = time.perf_counter()
        last_failure = "no attempt made"
        for attempt in range(self.max_retries):
            if attempt:
                delay = RETRY_BASE_DELAY_S * RETRY_FACTOR ** (attempt - 1)
                self._sleep(delay * self._rng.uniform(0.5, 1.5))
            try:
                resp = self._session.post(
                    self.base_url, json=body, headers=headers, timeout=self.timeout_s
                )
            except requests.RequestException as exc:
                last_failure = f"network error: {exc}"
                logger.warning("attempt %d failed: %s", attempt + 1, last_failure)
                continue
            if resp.status_code == 429 or 500 <= resp.status_code < 600:
                last_failure = f"HTTP {resp.status_code}"
                logger.warning("attempt %d failed: %s", attempt + 1, last_failure)
                continue
            if resp.status_code != 200:
                raise BackendUnavailable(f"HTTP {resp.status_code} from {self.base_url}")
            latency_ms = int((time.perf_counter() - start) * 1000)
            return self._parse(resp, latency_ms)
        raise BackendUnavailable(f"giving up after {self.max_retries} attempts: {last_failure}")

    def _parse(self, resp, latency_ms: int) -> GenerationResponse:
        try:
            data = resp.json()
        except ValueError as exc:
            raise MalformedResponse(f"response body is not JSON: {exc}") from exc
        try:
            choice = data["choices"][0]
            text = choice["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedResponse(f"missing choices[0].message.content: {exc}") from exc
        if not isinstance(text, str) or not text:
            raise MalformedResponse("empty or non-string completion text")
        finish = choice.get("finish_reason", "stop")
        if finish not in ("stop", "length"):
            finish = "stop"
        usage = data.get("usage") or {}  # some endpoints send "usage": null
        return GenerationResponse(
            text=text,
            finish_reason=finish,
            usage=Usage(
                prompt_tokens=int(usage.get("prompt_tokens") or 0),
                completion_tokens=int(usage.get("completion_tokens") or 0),
            ),
            latency_ms=latency_ms,
        )


class ScriptedMockBackend:
    """Deterministic backend answering from a {prompt_key -> text} table.

    Unknown prompts fall back to default_text when given, otherwise raise
    BackendUnavailable. Responses longer than max_tokens words are truncated
    with finish_reason=length.
    """

    in_process = True

    def __init__(
        self,
        script: dict[str, str] | None = None,
        default_text: str | None = None,
        max_prompt_chars: int | None = None,
    ):
        self.script = dict(script or {})
        self.default_text = default_text
        self.max_prompt_chars = max_prompt_chars

    def generate(self, req: GenerationRequest) -> GenerationResponse:
        chars = _prompt_chars(req.messages)
        if self.max_prompt_chars is not None and chars > self.max_prompt_chars:
            raise PromptTooLong(f"prompt is {chars} chars, limit {self.max_prompt_chars}")
        key = prompt_key(req.messages)
        text = self.script.get(key, self.default_text)
        if text is None:
            raise BackendUnavailable(f"no scripted response for prompt {key[:12]}")
        text, finish = _truncate(text, req.max_tokens)
        return GenerationResponse(
            text=text,
            finish_reason=finish,
            usage=Usage(prompt_tokens=chars // 4, completion_tokens=len(text.split())),
        )


def generate_batch(backend, reqs, parallelism: int = 4) -> list[GenerationResponse]:
    """Run requests through the backend, at most `parallelism` in flight
    (one at a time, in the calling thread, for an in-process backend).

    Results come back in request order; a failing request becomes a response
    with finish_reason="error" carrying the exception, never a batch failure.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")

    def run(req: GenerationRequest) -> GenerationResponse:
        try:
            return backend.generate(req)
        except Exception as exc:
            return GenerationResponse(
                text="", finish_reason="error", error=f"{type(exc).__name__}: {exc}"
            )

    if getattr(backend, "in_process", False):
        return [run(req) for req in reqs]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(run, reqs))
