"""Generation backends: a chat-completions HTTP client and a scripted mock.

Both expose generate(request) -> response; generate_batch fans requests out
over a bounded thread pool, preserving request order and embedding per-item
failures instead of aborting the batch. A backend whose class sets
in_process = True computes its answers in this interpreter, so its requests
run inline: threads would only hand the interpreter lock back and forth.

JsonClient is the one HTTP client, shared by HttpBackend and the remote
scorer, and holds their one retry policy; it uses the standard library alone.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import logging
import math
import os
import random
import re
import ssl
import threading
import time
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

logger = logging.getLogger(__name__)

DEFAULT_TEMPERATURE = 0.7
DEFAULT_MAX_TOKENS = 1024
DEFAULT_TIMEOUT_S = 60.0
DEFAULT_PARALLELISM = 4
RETRY_BASE_DELAY_S = 1.0
RETRY_FACTOR = 2.0
MAX_ATTEMPTS = 5

# What a request can fail with on the way: refused, reset, timed out, TLS,
# or a reply that is not HTTP.
NETWORK_ERRORS = (OSError, http.client.HTTPException)
# How a kept-alive connection that the server closed while it sat idle fails
# (over TLS, a server that skips close_notify leaves an EOF error).
_CLOSED_WHILE_IDLE = (ConnectionError, ssl.SSLEOFError)


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
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")
        if not 0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")


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
    """Stable digest of a message list, which scripts and seeds the two mocks'
    replies: the SHA-256 of each message's role, \\x1f and content, joined by \\x1e."""
    joined = "\x1e".join(f"{m.get('role', '')}\x1f{m.get('content', '')}" for m in messages)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def check_prompt_length(messages, max_prompt_chars: int | None) -> int:
    """The prompt's length in characters; PromptTooLong above max_prompt_chars, if set."""
    chars = sum(len(m.get("content", "")) for m in messages)
    if max_prompt_chars is not None and chars > max_prompt_chars:
        raise PromptTooLong(f"prompt is {chars} chars, limit {max_prompt_chars}")
    return chars


def _mock_reply(text: str, max_tokens: int, prompt_chars: int) -> GenerationResponse:
    """A mock backend's answer: text cut after max_tokens words, word-count usage."""
    # Words stand in for tokens; good enough to exercise length handling.
    # The text is cut after the last kept word, so line breaks survive.
    n_words = len(text.split())
    finish = "stop"
    if n_words > max_tokens:
        words = list(re.finditer(r"\S+", text))
        text, finish = text[: words[max_tokens - 1].end()], "length"
        n_words = len(text.split())
    usage = Usage(prompt_tokens=prompt_chars // 4, completion_tokens=n_words)
    return GenerationResponse(text=text, finish_reason=finish, usage=usage)


def check_max_prompt_chars(max_prompt_chars: int | None) -> None:
    """Refuse a prompt limit under which every request fails as PromptTooLong."""
    if max_prompt_chars is not None and max_prompt_chars < 1:
        raise ValueError(f"backend option 'max_prompt_chars' must be at least 1, got {max_prompt_chars}")


def check_retry_limits(max_retries: int | None, timeout_s: float | None) -> None:
    """Refuse an HttpBackend setting under which every request fails: no
    attempt at all, or a socket timeout of zero (non-blocking) or below.
    None is an option not given, which is not checked."""
    if max_retries is not None and max_retries < 1:
        raise ValueError(f"http backend option 'max_retries' must be at least 1, got {max_retries}")
    if timeout_s is not None and not timeout_s > 0:
        raise ValueError(f"http backend option 'timeout_s' must be above 0, got {timeout_s}")


class JsonClient:
    """POSTs JSON to one http(s) URL over kept-alive connections.

    A 429, a 5xx or a network failure is retried with exponential backoff
    (base 1 s, factor 2, jittered by 0.5-1.5) up to max_attempts attempts.
    Idle connections wait in a lock-guarded list, not one per thread, so they
    outlive any thread pool, and there are never more of them than requests
    that were in flight at once. The proxy environment (HTTP_PROXY,
    HTTPS_PROXY, ALL_PROXY, NO_PROXY) and the TLS context are read once, here:
    an http URL goes through its proxy in absolute form, an https URL through
    a CONNECT tunnel. Certificates are checked against the system store (or
    SSL_CERT_FILE).
    """

    def __init__(
        self,
        url: str,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        max_attempts: int = MAX_ATTEMPTS,
        sleep=time.sleep,
        rng: random.Random | None = None,
    ):
        parts = urllib.parse.urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"not an http or https URL: {url!r}")
        self.url = url
        self._timeout_s = timeout_s
        self._max_attempts = max_attempts
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        https = parts.scheme == "https"
        self._context = ssl.create_default_context() if https else None
        # An explicit port: http.client would read one off a bare IPv6 host.
        self._address = (parts.hostname, parts.port or (443 if https else 80))
        path = parts.path or "/"
        self._target = f"{path}?{parts.query}" if parts.query else path
        self._headers = {"Content-Type": "application/json"}
        self._tunnel = None
        proxies = {} if urllib.request.proxy_bypass(parts.hostname) else urllib.request.getproxies()
        proxy = proxies.get(parts.scheme) or proxies.get("all")
        if proxy:
            via = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if via.scheme != "http" or not via.hostname:
                raise ValueError(f"unsupported proxy {proxy!r}: only http:// proxies are supported")
            auth = {}
            if via.username is not None:
                user = f"{urllib.parse.unquote(via.username)}:{urllib.parse.unquote(via.password or '')}"
                auth["Proxy-Authorization"] = "Basic " + base64.b64encode(user.encode()).decode()
            if https:
                self._tunnel = (*self._address, auth)
            else:
                self._target = f"{parts.scheme}://{parts.netloc}{self._target}"  # absolute form
                self._headers.update(auth)
            self._address = (via.hostname, via.port or 80)
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def post(self, body, headers: dict | None = None) -> bytes:
        """Send body as JSON; return the body of the 200 reply.

        Raises BackendUnavailable at once on a status other than 429 or 5xx,
        else once max_attempts attempts have failed. A kept-alive connection
        that the server closed meanwhile is reopened at once, at no attempt.
        """
        payload = json.dumps(body, allow_nan=False).encode("utf-8")
        headers = {**self._headers, **headers} if headers else self._headers
        last_failure = "no attempt made"
        for attempt in range(self._max_attempts):
            if attempt:
                delay = RETRY_BASE_DELAY_S * RETRY_FACTOR ** (attempt - 1)
                self._sleep(delay * self._rng.uniform(0.5, 1.5))
            try:
                status, data = self._send(payload, headers)
            except NETWORK_ERRORS as exc:
                last_failure = f"network error: {type(exc).__name__}: {exc}"
            else:
                if status == 200:
                    return data
                if status != 429 and not 500 <= status < 600:
                    raise BackendUnavailable(f"HTTP {status} from {self.url}")
                last_failure = f"HTTP {status}"
            logger.warning("attempt %d failed: %s", attempt + 1, last_failure)
        raise BackendUnavailable(f"giving up after {self._max_attempts} attempts: {last_failure}")

    def _send(self, payload: bytes, headers: dict) -> tuple[int, bytes]:
        # One attempt: the status and raw body, or one of NETWORK_ERRORS.
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is None:
            conn = self._connection()
        elif conn.sock is not None:
            try:
                return self._exchange(conn, payload, headers)
            except _CLOSED_WHILE_IDLE as exc:
                logger.debug("kept-alive connection to %s lost, reconnecting: %s", self.url, exc)
        return self._exchange(conn, payload, headers)

    def close(self) -> None:
        """Close the idle connections; a later post opens new ones."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _connection(self) -> http.client.HTTPConnection:
        # Not connected yet: http.client connects on the first request, and
        # again on the next after a close.
        host, port = self._address
        if self._context is None:
            return http.client.HTTPConnection(host, port, timeout=self._timeout_s)
        conn = http.client.HTTPSConnection(host, port, timeout=self._timeout_s, context=self._context)
        if self._tunnel is not None:
            conn.set_tunnel(*self._tunnel)
        return conn

    def _exchange(self, conn, payload: bytes, headers: dict) -> tuple[int, bytes]:
        try:
            conn.request("POST", self._target, payload, headers)
            resp = conn.getresponse()
            data = resp.read()
        except BaseException:
            conn.close()
            raise
        with self._lock:
            self._idle.append(conn)
        return resp.status, data


class HttpBackend:
    """Chat-completions client: POST {model, messages, temperature, max_tokens, seed}
    to base_url, the whole endpoint URL (nothing is appended to it).

    Requests are retried as JsonClient retries them, up to max_retries
    attempts. The API key is read from the environment variable named by
    api_key_env at request time and is never logged.
    """

    in_process = False

    def __init__(
        self,
        base_url: str,
        model: str = "",
        api_key_env: str | None = None,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        max_retries: int = MAX_ATTEMPTS,
        max_prompt_chars: int | None = None,
        sleep=time.sleep,
        rng: random.Random | None = None,
    ):
        check_retry_limits(max_retries, timeout_s)
        check_max_prompt_chars(max_prompt_chars)
        self.model = model
        self.timeout_s = timeout_s
        self.max_prompt_chars = max_prompt_chars
        self.api_key_env = api_key_env
        self._client = JsonClient(base_url, timeout_s, max_retries, sleep, rng)

    def close(self) -> None:
        self._client.close()

    def generate(self, req: GenerationRequest) -> GenerationResponse:
        check_prompt_length(req.messages, self.max_prompt_chars)
        body = {
            "model": req.model or self.model,
            "messages": list(req.messages),
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
            "seed": req.seed,
        }
        api_key = os.environ.get(self.api_key_env) if self.api_key_env else None
        headers = {"Authorization": f"Bearer {api_key}"} if api_key else None
        start = time.perf_counter()
        raw = self._client.post(body, headers)
        latency_ms = int((time.perf_counter() - start) * 1000)
        try:
            data = json.loads(raw)
        except ValueError as exc:
            raise MalformedResponse(f"response body is not JSON: {exc}") from exc
        try:
            choice = data["choices"][0]
            text = choice["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedResponse(f"missing choices[0].message.content: {exc}") from exc
        if not isinstance(text, str) or not text:
            raise MalformedResponse("empty or non-string completion text")
        finish = "length" if choice.get("finish_reason") == "length" else "stop"
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
        check_max_prompt_chars(max_prompt_chars)
        self.script = dict(script or {})
        self.default_text = default_text
        self.max_prompt_chars = max_prompt_chars

    def generate(self, req: GenerationRequest) -> GenerationResponse:
        chars = check_prompt_length(req.messages, self.max_prompt_chars)
        key = prompt_key(req.messages)
        text = self.script.get(key, self.default_text)
        if text is None:
            raise BackendUnavailable(f"no scripted response for prompt {key[:12]}")
        return _mock_reply(text, req.max_tokens, chars)


def generate_batch(backend, reqs, parallelism: int = DEFAULT_PARALLELISM) -> list[GenerationResponse]:
    """Run requests through the backend, at most `parallelism` in flight
    (one at a time, in the calling thread, for an in-process backend).

    An in-process backend takes each of reqs after answering the one before.
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
