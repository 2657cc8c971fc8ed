import http.server
import io
import json
import socket
import threading
import urllib.error
from pathlib import Path

import pytest

from zsl_kep import cli, llm_gateway
from zsl_kep.corpus import MalformedInput
from zsl_kep.llm_gateway import (ChatRequest, ChatResponse, ContextOverflow, Gateway,
                                 GatewayError, HttpBackend, MalformedReply, MockBackend,
                                 RateLimited, TransportFailure)


def _req(user="hello", system="sys", max_new_tokens=512):
    return ChatRequest(system_message=system, user_message=user,
                       max_new_tokens=max_new_tokens)


def test_chat_request_validation():
    with pytest.raises(ValueError):
        ChatRequest("s", "u", temperature=-0.1)
    for temperature in (float("nan"), float("inf")):  # json.dumps would write NaN / Infinity
        with pytest.raises(ValueError, match="temperature must be finite"):
            ChatRequest("s", "u", temperature=temperature)
    with pytest.raises(ValueError):
        ChatRequest("s", "u", top_p=0.0)
    with pytest.raises(ValueError):
        ChatRequest("s", "u", top_p=1.5)
    with pytest.raises(ValueError):
        ChatRequest("s", "u", max_new_tokens=0)
    req = ChatRequest("s", "u")
    assert req.temperature == 0.0
    assert req.top_p == 0.8


def test_mock_scripted_response():
    gateway = Gateway(MockBackend({0: ["KP: something"]}))
    resp = gateway.complete(_req(), 0)
    assert resp.text == "KP: something"
    assert resp.finish_reason == "stop"


def test_mock_determinism():
    script = {0: ["first", "second"]}
    g1 = Gateway(MockBackend(script))
    g2 = Gateway(MockBackend(script))
    for g in (g1, g2):
        assert g.complete(_req(), 0).text == "first"
        assert g.complete(_req(), 0).text == "second"


def test_mock_overflow_then_success():
    backend = MockBackend({0: [{"error": "context_overflow"}, "ok"]})
    gateway = Gateway(backend)
    with pytest.raises(ContextOverflow):
        gateway.complete(_req(), 0)
    assert gateway.complete(_req(), 0).text == "ok"
    assert gateway.overflow_count == 1


def test_mock_script_replay_and_exhaustion():
    backend = MockBackend({"0": ["only"]})
    gateway = Gateway(backend)
    assert gateway.complete(_req(), 0).text == "only"
    with pytest.raises(MalformedReply):
        gateway.complete(_req(), 0)
    with pytest.raises(MalformedReply):
        gateway.complete(_req(), 99)


@pytest.mark.parametrize("script, error, message", [
    ({"abc": ["r"]}, MalformedInput, "script key 'abc' is not a claim id"),
    ({"0": "r"}, MalformedInput, "must be a list of entries"),
    ([["r"]], MalformedInput, "script must be an object"),
], ids=["key_not_claim_id", "entries_not_list", "not_an_object"])
def test_mock_rejects_malformed_script(tmp_path, script, error, message):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script), encoding="utf-8")
    with pytest.raises(error, match=message):
        MockBackend.from_file(path)


@pytest.mark.parametrize("entry, message", [
    ({"error": "meteor_strike"}, "unknown scripted error kind 'meteor_strike'"),
    (5, "unusable script entry for claim 0: 5"),
    ({"finish_reason": "length"}, "unusable script entry for claim 0"),
], ids=["unknown_error_kind", "not_str_or_object", "object_without_text"])
def test_mock_rejects_unusable_entry(entry, message):
    with pytest.raises(MalformedReply, match=message):
        MockBackend({0: [entry]}).send(_req(), 0)


def test_mock_send_needs_claim_id():
    backend = MockBackend({0: ["r"]})
    with pytest.raises(MalformedReply, match="needs a claim id"):
        backend.send(_req())
    assert backend.requests == []


@pytest.mark.parametrize("kind", ["context_overflow", "rate_limited", "transport", "malformed"])
def test_mock_scripted_error_kinds_match_gateway_kinds(kind):
    with pytest.raises(GatewayError) as info:
        MockBackend({0: [{"error": kind, "detail": "d"}]}).send(_req(), 0)
    assert (info.value.kind, info.value.detail) == (kind, "d")


def test_prompt_text_passes_through_unmodified():
    backend = MockBackend({0: ["r"]})
    gateway = Gateway(backend)
    user = "line one\n  spaced\ttabbed <0_1> é"
    gateway.complete(_req(user=user), 0)
    recorded = backend.calls_for(0)[0]
    assert recorded.user_message == user
    assert recorded.system_message == "sys"


def test_rate_limit_backoff_then_success():
    backend = MockBackend({0: [{"error": "rate_limited"}, {"error": "rate_limited"}, "done"]})
    sleeps = []
    gateway = Gateway(backend, max_attempts=5, sleep=sleeps.append)
    assert gateway.complete(_req(), 0).text == "done"
    assert sleeps == [0.5, 1.0]
    assert gateway.rate_limit_count == 2


def test_rate_limit_exhausts_attempts():
    backend = MockBackend({0: [{"error": "rate_limited"}] * 10})
    sleeps = []
    gateway = Gateway(backend, max_attempts=3, sleep=sleeps.append)
    with pytest.raises(RateLimited):
        gateway.complete(_req(), 0)
    assert len(backend.calls_for(0)) == 3
    assert sleeps == [0.5, 1.0]


def test_rate_limit_wait_stops_doubling_at_the_cap():
    backend = MockBackend({0: [{"error": "rate_limited"}] * 10})
    sleeps = []
    gateway = Gateway(backend, max_attempts=10, sleep=sleeps.append)
    with pytest.raises(RateLimited):
        gateway.complete(_req(), 0)
    assert sleeps == [0.5, 1, 2, 4, 8, 16, 30, 30, 30]


def test_prompt_budget_preempts_call():
    backend = MockBackend({0: ["never sent"]})
    gateway = Gateway(backend, prompt_budget=5)
    with pytest.raises(ContextOverflow):
        gateway.complete(_req(user="one two three four five six"), 0)
    assert backend.calls_for(0) == []
    assert gateway.overflow_count == 1
    # under budget goes through
    assert gateway.complete(_req(user="short"), 0).text == "never sent"


def _stub(status, payload=None, text=""):
    """What ``urlopen`` does for a reply: return a readable response for 200,
    raise ``HTTPError`` carrying the body otherwise."""
    body = (text if text else (json.dumps(payload) if payload else "")).encode("utf-8")
    if status != 200:
        raise urllib.error.HTTPError("https://api.example/v1/chat/completions", status,
                                     "error", {}, io.BytesIO(body))
    resp = io.BytesIO(body)
    resp.status = status
    return resp


def _http(transport, api_key="k"):
    return HttpBackend("https://api.example/v1", "test-model", api_key=api_key,
                       transport=transport)


def test_http_success_and_payload_shape():
    captured = {}

    def transport(request, timeout=None):
        captured["url"] = request.full_url
        captured["method"] = request.get_method()
        captured["payload"] = json.loads(request.data)
        captured["auth"] = request.get_header("Authorization")
        return _stub(200, {"choices": [{"message": {"content": "hi"},
                                        "finish_reason": "stop"}]})

    resp = _http(transport).send(_req(max_new_tokens=1024))
    assert resp == ChatResponse("hi", "stop")
    assert captured["url"] == "https://api.example/v1/chat/completions"
    assert captured["method"] == "POST"
    assert captured["payload"]["model"] == "test-model"
    assert captured["payload"]["temperature"] == 0.0
    assert captured["payload"]["top_p"] == 0.8
    assert captured["payload"]["max_tokens"] == 1024
    roles = [m["role"] for m in captured["payload"]["messages"]]
    assert roles == ["system", "user"]
    assert captured["auth"] == "Bearer k"


def test_http_api_key_from_env(monkeypatch):
    monkeypatch.setenv("ZSLKEP_API_KEY", "env-secret")
    captured = {}

    def transport(request, timeout=None):
        captured["auth"] = request.get_header("Authorization")
        return _stub(200, {"choices": [{"message": {"content": "x"}}]})

    HttpBackend("https://api.example", "m", transport=transport).send(_req())
    assert captured["auth"] == "Bearer env-secret"


def test_http_error_mapping():
    def quota(request, **kw):
        return _stub(429, text="Rate limit reached for requests, try again soon")

    def too_long(request, **kw):
        return _stub(429, text="Request too large: reduce your message size")

    def bad_request(request, **kw):
        return _stub(400, text="This model's maximum context length is 8192 tokens")

    def entity(request, **kw):
        return _stub(413, text="payload too big")

    def server(request, **kw):
        return _stub(500, text="boom")

    def junk(request, **kw):
        return _stub(200, payload=None, text="<html>")

    def refused(request, **kw):
        raise urllib.error.URLError(ConnectionRefusedError(111, "Connection refused"))

    with pytest.raises(RateLimited):
        _http(quota).send(_req())
    with pytest.raises(ContextOverflow):
        _http(too_long).send(_req())
    with pytest.raises(ContextOverflow):
        _http(bad_request).send(_req())
    with pytest.raises(ContextOverflow):
        _http(entity).send(_req())
    with pytest.raises(TransportFailure):
        _http(server).send(_req())
    with pytest.raises(MalformedReply):
        _http(junk).send(_req())
    with pytest.raises(TransportFailure):
        _http(refused).send(_req())


@pytest.mark.parametrize("content", [[{"type": "text", "text": "hi"}], 5],
                         ids=["list", "number"])
def test_gateway_rejects_non_string_reply_text(content):
    def transport(request, **kw):
        return _stub(200, {"choices": [{"message": {"content": content}}]})

    with pytest.raises(MalformedReply, match="not a string"):
        Gateway(_http(transport)).complete(_req())


def test_gateway_null_content_is_empty_text():
    def transport(request, **kw):
        return _stub(200, {"choices": [{"message": {"content": None}}]})

    assert Gateway(_http(transport)).complete(_req()).text == ""


def test_http_length_finish_reason():
    def transport(request, **kw):
        return _stub(200, {"choices": [{"message": {"content": "cut"},
                                        "finish_reason": "length"}]})

    assert _http(transport).send(_req()).finish_reason == "length"


class _ChatHandler(http.server.BaseHTTPRequestHandler):
    """Answers every POST with the status and body queued on the server,
    and records what it was sent."""

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        self.server.received.append((self.path, dict(self.headers),
                                     json.loads(self.rfile.read(length))))
        status, body = self.server.replies.pop(0)
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")  # talk to 127.0.0.1 directly, whatever proxy is set
    server = http.server.HTTPServer(("127.0.0.1", 0), _ChatHandler)
    server.received, server.replies = [], []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _local_backend(server):
    host, port = server.server_address
    return HttpBackend(f"http://{host}:{port}/v1", "local-model", api_key="secret",
                       timeout=5)


def test_http_urlopen_against_local_server(chat_server):
    reply = {"choices": [{"message": {"content": "served"}, "finish_reason": "stop"}]}
    chat_server.replies = [(200, json.dumps(reply)),
                           (429, "Rate limit reached, try again soon"),
                           (413, "too big"),
                           (500, "internal error")]
    backend = _local_backend(chat_server)

    assert backend.send(_req(user="hello there", max_new_tokens=64)) == \
        ChatResponse("served", "stop")
    path, headers, payload = chat_server.received[0]
    assert path == "/v1/chat/completions"
    assert headers["Authorization"] == "Bearer secret"
    assert payload["model"] == "local-model"
    assert payload["max_tokens"] == 64
    assert payload["messages"] == [{"role": "system", "content": "sys"},
                                   {"role": "user", "content": "hello there"}]

    with pytest.raises(RateLimited):
        backend.send(_req())
    with pytest.raises(ContextOverflow):
        backend.send(_req())
    with pytest.raises(TransportFailure, match="HTTP 500"):
        backend.send(_req())
    assert len(chat_server.received) == 4


def test_http_reply_body_is_read_up_to_the_cap(chat_server, monkeypatch):
    reply = json.dumps({"choices": [{"message": {"content": "served"}, "finish_reason": "stop"}]})
    monkeypatch.setattr(llm_gateway, "MAX_REPLY_BYTES", len(reply))
    chat_server.replies = [(200, reply), (200, reply + " "), (500, "x" * 200),
                           (429, "y" * 200), (400, "z" * len(reply) + " context length")]
    backend = _local_backend(chat_server)

    assert backend.send(_req()).text == "served"  # exactly at the cap
    with pytest.raises(MalformedReply, match=f"longer than {len(reply)} bytes"):
        backend.send(_req())
    # an error reply is classified from its first MAX_REPLY_BYTES bytes
    with pytest.raises(TransportFailure) as failure:
        backend.send(_req())
    assert failure.value.detail == "HTTP 500: " + "x" * len(reply)
    with pytest.raises(RateLimited):
        backend.send(_req())
    with pytest.raises(TransportFailure, match="HTTP 400"):  # the marker lies past the cap
        backend.send(_req())
    assert chat_server.replies == []


def test_run_through_http_backend_against_local_server(chat_server, tmp_path, capsys, monkeypatch):
    # claim 0 is rate limited once, claim 1's prediction overflows once, claim 2's fails
    fixture = Path(__file__).parent / "fixtures" / "e2e"
    script = json.loads((fixture / "mock_script.json").read_text(encoding="utf-8"))

    def ok(text):
        return 200, json.dumps({"choices": [{"message": {"content": text},
                                             "finish_reason": "stop"}]})

    chat_server.replies = [
        (429, "Rate limit reached, try again soon"), ok(script["0"][0]), ok(script["0"][1]),
        ok(script["1"][0]), (413, "too big"), ok(script["1"][1]),
        ok(script["2"][0]), (500, "internal error"),
        ok(script["3"][0]), ok(script["3"][1]),
    ]
    host, port = chat_server.server_address
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "claims_path": str(fixture / "claims.json"), "store_dir": str(fixture / "stores"),
        "backend": "http", "base_url": f"http://{host}:{port}/v1", "model_name": "local-model",
        "workers": 1}), encoding="utf-8")
    sleeps = []
    gateway = cli.Gateway
    monkeypatch.setattr(cli, "Gateway", lambda *a, **kw: gateway(*a, sleep=sleeps.append, **kw))
    out = tmp_path / "pred.json"

    assert cli.main(["run", "--config", str(config), "--output", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "claims processed: 4", "truncated runs: 1", "parse fallbacks: 0", "failed claims: 1",
        "gateway overflows: 1", "gateway rate limits: 1", f"wrote predictions to {out}"]
    assert sleeps == [0.5]
    assert chat_server.replies == []
    first, second = (payload["messages"][1]["content"]
                     for _, _, payload in chat_server.received[4:6])
    assert len(second) < len(first)  # the retry went out at the truncation caps
    rows = json.loads(out.read_text(encoding="utf-8"))
    failed = [row["claim_id"] for row in rows
              if row["justification"].startswith("No verdict could be generated")]
    assert failed == [2]
    assert rows[2]["justification"].endswith("HTTP 500: internal error")


def test_http_urlopen_closed_port(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()  # nothing listens on the port now
    backend = HttpBackend(f"http://127.0.0.1:{port}/v1", "m", api_key="", timeout=5)
    with pytest.raises(TransportFailure):
        backend.send(_req())


def test_http_malformed_base_url():
    with pytest.raises(TransportFailure):
        HttpBackend("api.example/v1", "m", api_key="").send(_req())
