"""Chat-completion access with deterministic generation settings.

Two backends share one interface: an OpenAI-compatible HTTP endpoint and a
scripted mock for offline runs and tests. The gateway in front of them retries
rate limits with exponential backoff but always surfaces context overflows —
recovering from those (by shrinking the prompt) is the pipeline's job, and the
two failure kinds must stay distinguishable for that to work.
"""

import json
import math
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

from .corpus import MalformedInput, read_json


class GatewayError(Exception):
    kind = "transport"

    def __init__(self, detail: str = ""):
        super().__init__(detail)
        self.detail = detail


class ContextOverflow(GatewayError):
    kind = "context_overflow"


class RateLimited(GatewayError):
    kind = "rate_limited"


class TransportFailure(GatewayError):
    kind = "transport"


class MalformedReply(GatewayError):
    kind = "malformed"


_SCRIPTED_ERRORS = {cls.kind: cls
                    for cls in (ContextOverflow, RateLimited, TransportFailure, MalformedReply)}

# body fragments that mean the request was too long, not over quota
_OVERFLOW_MARKERS = (
    "context length",
    "context_length",
    "maximum context",
    "too many tokens",
    "input length",
    "reduce the length",
    "reduce your message",
    "request too large",
    "payload too large",
)

API_KEY_ENV = "ZSLKEP_API_KEY"

# the first rate-limit retry waits BACKOFF_BASE_S, each further one twice as long, up to the cap
BACKOFF_BASE_S = 0.5
BACKOFF_MAX_S = 30.0

# most bytes of a reply body read (4 MiB): a longer 200 reply is refused, an error one cut
MAX_REPLY_BYTES = 4 << 20


@dataclass
class ChatRequest:
    system_message: str
    user_message: str
    temperature: float = 0.0
    top_p: float = 0.8
    max_new_tokens: int = 512

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not math.isfinite(self.temperature):  # json.dumps would write NaN, not JSON
            raise ValueError("temperature must be finite")
        if not 0 < self.top_p <= 1:
            raise ValueError("top_p must be in (0, 1]")
        if self.max_new_tokens <= 0:
            raise ValueError("max_new_tokens must be positive")


@dataclass
class ChatResponse:
    text: str
    finish_reason: str = "stop"  # stop | length | error


class MockBackend:
    """Replays scripted responses per claim, in call order.

    A script maps claim id -> list of entries. Each entry is either a
    response string or an object like ``{"error": "context_overflow",
    "detail": "..."}`` for fault injection. Every request is recorded for
    prompt-capture tests.
    """

    def __init__(self, scripts: dict):
        self._scripts: dict[int, list] = {}
        for key, entries in scripts.items():
            if not isinstance(entries, list):
                raise MalformedInput(f"script for claim {key} must be a list of entries")
            try:
                self._scripts[int(key)] = list(entries)
            except ValueError:
                raise MalformedInput(f"script key {key!r} is not a claim id") from None
        self._cursor: dict[int, int] = defaultdict(int)
        self._lock = threading.Lock()
        self.requests: list[tuple[int, ChatRequest]] = []

    @classmethod
    def from_file(cls, path) -> "MockBackend":
        scripts = read_json(path)
        if not isinstance(scripts, dict):
            raise MalformedInput(f"{path}: script must be an object")
        return cls(scripts)

    def calls_for(self, claim_id: int) -> list[ChatRequest]:
        with self._lock:
            return [req for cid, req in self.requests if cid == claim_id]

    def send(self, request: ChatRequest, claim_id: "int | None" = None) -> ChatResponse:
        if claim_id is None:
            raise MalformedReply("mock backend needs a claim id to pick its script")
        key = int(claim_id)
        with self._lock:
            self.requests.append((key, request))
            entries = self._scripts.get(key)
            if entries is None:
                raise MalformedReply(f"no script for claim {key}")
            cursor = self._cursor[key]
            if cursor >= len(entries):
                raise MalformedReply(f"script for claim {key} exhausted after {cursor} calls")
            self._cursor[key] = cursor + 1
            entry = entries[cursor]
        if isinstance(entry, str):
            return ChatResponse(text=entry, finish_reason="stop")
        if isinstance(entry, dict):
            if "error" in entry:
                exc = _SCRIPTED_ERRORS.get(entry["error"])
                if exc is None:
                    raise MalformedReply(f"unknown scripted error kind {entry['error']!r}")
                raise exc(entry.get("detail", "scripted failure"))
            if "text" in entry:
                return ChatResponse(text=entry["text"],
                                    finish_reason=entry.get("finish_reason", "stop"))
        raise MalformedReply(f"unusable script entry for claim {key}: {entry!r}")


class HttpBackend:
    """POSTs to ``{base_url}/chat/completions`` in the OpenAI chat format.

    ``transport`` stands in for ``urllib.request.urlopen``, the default. The
    HTTP modules are imported on the first send, so a mock run never loads
    them (or ``ssl``)."""

    def __init__(self, base_url: str, model_name: str, api_key: "str | None" = None,
                 timeout: float = 120.0, transport=None):
        self.base_url = base_url.rstrip("/")
        self.model_name = model_name
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.timeout = timeout
        self._urlopen = transport

    def send(self, request: ChatRequest, claim_id: "int | None" = None) -> ChatResponse:
        import http.client
        import urllib.error
        import urllib.request

        payload = {
            "model": self.model_name,
            "messages": [
                {"role": "system", "content": request.system_message},
                {"role": "user", "content": request.user_message},
            ],
            "temperature": request.temperature,
            "top_p": request.top_p,
            "max_tokens": request.max_new_tokens,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        urlopen = self._urlopen or urllib.request.urlopen
        try:
            http_request = urllib.request.Request(  # ValueError on a malformed base_url
                f"{self.base_url}/chat/completions", data=json.dumps(payload).encode("utf-8"),
                headers=headers, method="POST")
            try:
                resp = urlopen(http_request, timeout=self.timeout)
            except urllib.error.HTTPError as exc:
                resp = exc  # an error reply still carries its status and body
            with resp:
                status, body = resp.status, resp.read(MAX_REPLY_BYTES + 1)
        except (OSError, ValueError, http.client.HTTPException) as exc:
            raise TransportFailure(str(exc)) from exc

        if status != 200:
            body = body[:MAX_REPLY_BYTES].decode("utf-8", errors="replace")
            lowered = body.lower()
            if status == 413 or any(mark in lowered for mark in _OVERFLOW_MARKERS):
                raise ContextOverflow(f"HTTP {status}: {body[:300]}")
            if status == 429:
                raise RateLimited(f"HTTP 429: {body[:300]}")
            raise TransportFailure(f"HTTP {status}: {body[:300]}")
        if len(body) > MAX_REPLY_BYTES:
            raise MalformedReply(f"reply body longer than {MAX_REPLY_BYTES} bytes")

        try:
            data = json.loads(body)
            choice = data["choices"][0]
            text = choice["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise MalformedReply(f"unexpected response shape: {exc}") from exc
        finish = "length" if choice.get("finish_reason") == "length" else "stop"
        return ChatResponse(text="" if text is None else text, finish_reason=finish)


class Gateway:
    """Shared front door for all LLM calls.

    Prompt text passes through untouched. Rate limits are retried with exponential
    backoff, no wait over ``BACKOFF_MAX_S``, up to ``max_attempts`` total sends; context
    overflows (including ones raised preemptively by the client-side prompt budget) go
    straight to the caller, and a reply whose text is not a string is a
    ``MalformedReply``. Counters make both visible for diagnostics."""

    def __init__(self, backend, max_attempts: int = 5, prompt_budget: int = 8000,
                 sleep=time.sleep):
        self.backend = backend
        self.max_attempts = max_attempts
        self.prompt_budget = prompt_budget  # 0 turns the guard off
        self._sleep = sleep
        self._lock = threading.Lock()
        self.overflow_count = 0
        self.rate_limit_count = 0

    def complete(self, request: ChatRequest, claim_id: "int | None" = None) -> ChatResponse:
        if self.prompt_budget:
            estimate = len(request.system_message.split()) + len(request.user_message.split())
            if estimate > self.prompt_budget:
                with self._lock:
                    self.overflow_count += 1
                raise ContextOverflow(
                    f"prompt estimate {estimate} tokens exceeds budget {self.prompt_budget}"
                )

        failures, wait = 0, BACKOFF_BASE_S
        while True:
            try:
                response = self.backend.send(request, claim_id)
                if isinstance(response.text, str):
                    return response
                raise MalformedReply(f"reply text is {type(response.text).__name__}, not a string")
            except RateLimited:
                with self._lock:
                    self.rate_limit_count += 1
                failures += 1
                if failures >= self.max_attempts:
                    raise
                self._sleep(wait)
                wait = min(2 * wait, BACKOFF_MAX_S)
            except ContextOverflow:
                with self._lock:
                    self.overflow_count += 1
                raise
