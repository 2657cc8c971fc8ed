"""Chat-completion access with deterministic generation settings.

Two backends share one interface: an OpenAI-compatible HTTP endpoint and a
scripted mock for offline runs and tests. The gateway in front of them retries
rate limits with exponential backoff but always surfaces context overflows —
recovering from those (by shrinking the prompt) is the pipeline's job, and the
two failure kinds must stay distinguishable for that to work. Each call returns
the kinds of its failed attempts, and the caller carries them: no counter is kept.
"""

import io
import json
import math
import os
import threading
import time
from collections import defaultdict, namedtuple

from .corpus import MalformedInput, read_json


class GatewayError(Exception):
    kind = "transport"
    failures = ()  # set by Gateway.complete: the kinds of its failed attempts, this one last

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


class ChatRequest:
    __slots__ = ("system_message", "user_message", "temperature", "top_p", "max_new_tokens")

    def __init__(self, system_message: str, user_message: str, temperature: float = 0.0,
                 top_p: float = 0.8, max_new_tokens: int = 512):
        if temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not math.isfinite(temperature):  # json.dumps would write NaN, not JSON
            raise ValueError("temperature must be finite")
        if not 0 < top_p <= 1:
            raise ValueError("top_p must be in (0, 1]")
        if max_new_tokens <= 0:
            raise ValueError("max_new_tokens must be positive")
        self.system_message = system_message
        self.user_message = user_message
        self.temperature = temperature
        self.top_p = top_p
        self.max_new_tokens = max_new_tokens


# finish_reason: stop | length | error; failures: the kinds of the attempts that failed before it
ChatResponse = namedtuple("ChatResponse", "text finish_reason failures", defaults=("stop", ()))


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


def _urlopen_until(deadline: float):
    """``urlopen`` whose every socket read of the reply, status line and headers
    included, waits at most until ``deadline`` on the ``time.monotonic`` clock: the
    socket timeout is set to the time left before each read, and a read asked for
    once it has passed raises ``TimeoutError``."""
    import http.client
    import urllib.request

    class Reader(io.RawIOBase):
        def __init__(self, sock, raw):
            self.sock, self.raw = sock, raw

        def readable(self):
            return True

        def readinto(self, buffer):
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("deadline passed")
            self.sock.settimeout(left)
            return self.raw.readinto(buffer)

        def close(self):
            self.raw.close()
            super().close()

    class Response(http.client.HTTPResponse):
        def __init__(self, sock, *args, **kwargs):
            super().__init__(sock, *args, **kwargs)  # nothing is read yet
            self.fp = io.BufferedReader(Reader(sock, self.fp.detach()))

    class Timed:  # puts Response on each connection a handler opens
        def do_open(self, http_class, req, **kwargs):
            def connection(*args, **kw):
                conn = http_class(*args, **kw)
                conn.response_class = Response
                return conn
            return super().do_open(connection, req, **kwargs)

    handlers = [type("TimedHTTP", (Timed, urllib.request.HTTPHandler), {})]
    if hasattr(urllib.request, "HTTPSHandler"):  # Python built with ssl
        handlers.append(type("TimedHTTPS", (Timed, urllib.request.HTTPSHandler), {}))
    return urllib.request.build_opener(*handlers).open


class HttpBackend:
    """POSTs to ``{base_url}/chat/completions`` in the OpenAI chat format.

    ``transport`` stands in for ``urllib.request.urlopen``; the default is an
    opener whose every socket read of the reply, status line and headers
    included, waits no longer than what is left of ``timeout`` since the send
    began, so a reply that trickles in ends the send with a
    ``TransportFailure`` once ``timeout`` has passed. The HTTP modules are
    imported on the first send, so a mock run never loads them (or ``ssl``)."""

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
        urlopen = self._urlopen or _urlopen_until(time.monotonic() + self.timeout)
        try:
            http_request = urllib.request.Request(  # ValueError on a malformed base_url
                f"{self.base_url}/chat/completions", data=json.dumps(payload).encode("utf-8"),
                headers=headers, method="POST")
            try:
                resp = urlopen(http_request, timeout=self.timeout)
            except urllib.error.HTTPError as exc:
                resp = exc  # an error reply still carries its status and body
            with resp:
                status, body = resp.status, bytearray()
                while len(body) <= MAX_REPLY_BYTES and (
                        chunk := resp.read1(MAX_REPLY_BYTES + 1 - len(body))):
                    body += chunk
        except TimeoutError as exc:
            raise TransportFailure(f"timeout of {self.timeout} s passed while waiting for "
                                   "the reply") from exc
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
        except (ValueError, RecursionError, KeyError, IndexError, TypeError) as exc:
            raise MalformedReply(f"unexpected response shape: {exc}") from exc
        finish = "length" if choice.get("finish_reason") == "length" else "stop"
        return ChatResponse(text="" if text is None else text, finish_reason=finish)


class Gateway:
    """Shared front door for all LLM calls.

    Prompt text passes through untouched. Rate limits are retried with exponential
    backoff, no wait over ``BACKOFF_MAX_S``, up to ``max_attempts`` total sends; context
    overflows (including ones raised preemptively by the client-side prompt budget) go
    straight to the caller, and a reply whose text is not a string is a
    ``MalformedReply``. The ``kind`` of each failed attempt, a budget overflow included,
    goes in order into the reply's ``failures``, or into those of the error that ends it."""

    def __init__(self, backend, max_attempts: int = 5, prompt_budget: int = 8000,
                 sleep=time.sleep):
        self.backend = backend
        self.max_attempts = max_attempts
        self.prompt_budget = prompt_budget  # 0 turns the guard off
        self._sleep = sleep

    def complete(self, request: ChatRequest, claim_id: "int | None" = None) -> ChatResponse:
        estimate = len(request.system_message.split()) + len(request.user_message.split())
        failures, wait = [], BACKOFF_BASE_S
        while True:
            try:
                if self.prompt_budget and estimate > self.prompt_budget:  # nothing is sent
                    raise ContextOverflow(
                        f"prompt estimate {estimate} tokens exceeds budget {self.prompt_budget}")
                response = self.backend.send(request, claim_id)
                if isinstance(response.text, str):
                    return response._replace(failures=tuple(failures))
                raise MalformedReply(f"reply text is {type(response.text).__name__}, not a string")
            except GatewayError as exc:
                failures.append(exc.kind)
                if not isinstance(exc, RateLimited) or len(failures) >= self.max_attempts:
                    exc.failures = tuple(failures)
                    raise
                self._sleep(wait)
                wait = min(2 * wait, BACKOFF_MAX_S)
