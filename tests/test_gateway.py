import json
import random
import string
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
import requests

from lsast.errors import ConfigurationError, GatewayError
from lsast.gateway import (
    ChatClient,
    ChatRequest,
    MockGateway,
    PredictedFinding,
    parse_scan_response,
    render_finding,
)
from lsast.index import HttpEmbedder
from lsast.prompts import ABSTRACTION_PROMPT, render_derivation_prompt
from lsast.transport import send


class _ChatHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        server = self.server
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        server.requests.append({"headers": dict(self.headers), "body": body})
        if server.drop_next:
            server.drop_next = False
            self.connection.close()
            return
        # a scripted response is (status, payload) or (status, payload, headers)
        status, payload, *headers = server.responses[min(len(server.requests) - 1,
                                                         len(server.responses) - 1)]
        data = json.dumps(payload).encode()
        self.send_response(status)
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler)
    server.requests = []
    server.responses = [(200, _ok_payload("hello"))]
    server.drop_next = False
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def _ok_payload(content, total_tokens=42):
    return {
        "choices": [{"message": {"role": "assistant", "content": content}}],
        "usage": {"prompt_tokens": 30, "completion_tokens": 12,
                  "total_tokens": total_tokens},
    }


def _endpoint(server):
    return f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"


class TestChatClient:
    def test_round_trip_and_payload_shape(self, chat_server, monkeypatch):
        monkeypatch.delenv("LSAST_API_KEY", raising=False)
        client = ChatClient(_endpoint(chat_server), "test-model",
                            temperature=0.5, max_tokens=321, retries=0)
        assert client.complete("say hello") == "hello"
        body = chat_server.requests[0]["body"]
        assert body["model"] == "test-model"
        assert body["messages"] == [{"role": "user", "content": "say hello"}]
        assert body["temperature"] == 0.5
        assert body["max_tokens"] == 321
        assert body["seed"] == 0
        assert client.total_tokens == 42
        assert client.last_usage["completion_tokens"] == 12

    def test_api_key_sent_as_bearer_header(self, chat_server, monkeypatch):
        monkeypatch.setenv("LSAST_API_KEY", "sk-test-123")
        client = ChatClient(_endpoint(chat_server), "m", retries=0)
        client.complete("x")
        assert chat_server.requests[0]["headers"]["Authorization"] == "Bearer sk-test-123"

    def test_no_key_no_header(self, chat_server, monkeypatch):
        monkeypatch.delenv("LSAST_API_KEY", raising=False)
        client = ChatClient(_endpoint(chat_server), "m", retries=0)
        client.complete("x")
        assert "Authorization" not in chat_server.requests[0]["headers"]

    def test_http_error_is_immediate_no_retry(self, chat_server, monkeypatch):
        monkeypatch.delenv("LSAST_API_KEY", raising=False)
        chat_server.responses = [(500, {"error": "overloaded"})]
        client = ChatClient(_endpoint(chat_server), "m", retries=3)
        with pytest.raises(GatewayError) as exc:
            client.complete("x")
        assert "500" in str(exc.value)
        assert len(chat_server.requests) == 1

    def test_malformed_body_raises(self, chat_server, monkeypatch):
        monkeypatch.delenv("LSAST_API_KEY", raising=False)
        chat_server.responses = [(200, {"unexpected": True})]
        client = ChatClient(_endpoint(chat_server), "m", retries=0)
        with pytest.raises(GatewayError):
            client.complete("x")

    def test_transport_failure_retries_then_succeeds(self, chat_server, monkeypatch):
        monkeypatch.delenv("LSAST_API_KEY", raising=False)
        chat_server.drop_next = True
        client = ChatClient(_endpoint(chat_server), "m", retries=1)
        assert client.complete("x") == "hello"
        assert len(chat_server.requests) == 2

    def test_unreachable_endpoint_exhausts_retries(self, monkeypatch):
        monkeypatch.delenv("LSAST_API_KEY", raising=False)
        client = ChatClient("http://127.0.0.1:9/v1/chat/completions", "m",
                            retries=1, timeout=0.5)
        with pytest.raises(GatewayError) as exc:
            client.complete("x")
        assert "2 attempts" in str(exc.value)

    def test_usage_accumulates_across_calls(self, chat_server, monkeypatch):
        monkeypatch.delenv("LSAST_API_KEY", raising=False)
        client = ChatClient(_endpoint(chat_server), "m", retries=0)
        client.complete("a")
        client.complete("b")
        assert client.total_tokens == 84


class TestHttpEmbedder:
    def test_both_response_shapes_unit_normalised(self, chat_server):
        chat_server.responses = [(200, {"vector": [3, 4]}),
                                 (200, {"data": [{"embedding": [0, -2]}]})]
        embedder = HttpEmbedder(_endpoint(chat_server), "e", 2)
        assert np.allclose(embedder.embed("a"), [0.6, 0.8])
        assert np.allclose(embedder.embed("b"), [0.0, -1.0])
        assert chat_server.requests[0]["body"] == {"model": "e", "input": "a"}

    def test_wrong_dimension_is_configuration_error(self, chat_server):
        chat_server.responses = [(200, {"vector": [1, 2, 3]})]
        with pytest.raises(ConfigurationError):
            HttpEmbedder(_endpoint(chat_server), "e", 2).embed("a")

    def test_zero_vector_is_gateway_error(self, chat_server):
        chat_server.responses = [(200, {"vector": [0, 0]})]
        with pytest.raises(GatewayError, match="zero vector"):
            HttpEmbedder(_endpoint(chat_server), "e", 2).embed("a")

    def test_transport_failure_retries_then_succeeds(self, chat_server):
        chat_server.drop_next = True
        chat_server.responses = [(200, {"vector": [1, 0]})]
        embedder = HttpEmbedder(_endpoint(chat_server), "e", 2, retries=1)
        assert np.allclose(embedder.embed("a"), [1.0, 0.0])
        assert len(chat_server.requests) == 2


_RATE_LIMITED = (429, {"error": "slow down"}, {"Retry-After": "0"})


class TestRetryPolicy:
    def test_chat_rate_limit_then_success(self, chat_server, monkeypatch):
        monkeypatch.delenv("LSAST_API_KEY", raising=False)
        chat_server.responses = [_RATE_LIMITED, (200, _ok_payload("hello"))]
        client = ChatClient(_endpoint(chat_server), "m", retries=1)
        assert client.complete("x") == "hello"
        assert len(chat_server.requests) == 2

    def test_embedding_rate_limit_then_success(self, chat_server):
        chat_server.responses = [_RATE_LIMITED, (200, {"vector": [0, 5]})]
        embedder = HttpEmbedder(_endpoint(chat_server), "e", 2, retries=1)
        assert np.allclose(embedder.embed("a"), [0.0, 1.0])
        assert len(chat_server.requests) == 2

    def test_rate_limit_every_try_exhausts_retries(self, chat_server, monkeypatch):
        monkeypatch.delenv("LSAST_API_KEY", raising=False)
        chat_server.responses = [_RATE_LIMITED]
        client = ChatClient(_endpoint(chat_server), "m", retries=2)
        with pytest.raises(GatewayError, match="after 3 attempts: rate limited"):
            client.complete("x")
        assert len(chat_server.requests) == 3

    def test_waits(self, monkeypatch):
        class Response:
            def __init__(self, status, retry_after=None):
                self.status_code = status
                self.headers = {} if retry_after is None else {"Retry-After": retry_after}
                self.text = ""

        script = [requests.ConnectionError("down"), requests.Timeout("slow"),
                  Response(429, "soon"), Response(429, "120"), Response(429),
                  requests.ConnectionError("down"), Response(200)]

        def get(url, **kwargs):
            item = script.pop(0)
            if isinstance(item, Exception):
                raise item
            return item

        sleeps = []
        monkeypatch.setattr("time.sleep", sleeps.append)
        session = type("Session", (), {"get": staticmethod(get)})
        assert send(session, "get", "u", "thing", GatewayError, 6).status_code == 200
        # backoff doubles from 0.5 s and caps at 4 s; a 429 waits its
        # Retry-After (1 s when unusable or absent, capped at 30 s)
        assert sleeps == [0.5, 1.0, 1.0, 30.0, 1.0, 4.0]


class TestChatRequest:
    def test_payload_includes_seed_only_when_set(self):
        with_seed = ChatRequest(model="m", messages=[{"role": "user", "content": "x"}],
                                temperature=0.0, max_tokens=10, seed=7)
        assert with_seed.to_payload()["seed"] == 7
        without = ChatRequest(model="m", messages=[{"role": "user", "content": "x"}],
                              temperature=0.0, max_tokens=10, seed=None)
        assert "seed" not in without.to_payload()

    def test_validation(self):
        with pytest.raises(ValueError):
            ChatRequest(model="m", messages=[], temperature=0.0, max_tokens=10)
        with pytest.raises(ValueError):
            ChatRequest(model="m", messages=[{"role": "robot", "content": "x"}],
                        temperature=0.0, max_tokens=10)
        with pytest.raises(ValueError):
            ChatRequest(model="m", messages=[{"role": "user", "content": "x"}],
                        temperature=-1.0, max_tokens=10)
        with pytest.raises(ValueError):
            ChatRequest(model="m", messages=[{"role": "user", "content": "x"}],
                        temperature=0.0, max_tokens=0)


class TestParseScanResponse:
    def test_none_found_sentence_as_prompted(self):
        response = parse_scan_response("no additional vulnerabilties found")
        assert response.none_found is True
        assert response.findings == []
        assert response.parse_degraded is False

    def test_none_found_correct_spelling_and_case(self):
        assert parse_scan_response("No additional vulnerabilities found.").none_found
        assert parse_scan_response("no vulnerabilties found").none_found

    def test_single_block(self):
        text = ("CWE-ID: CWE-79\n"
                "Reason: echoes input\n"
                "line: 12\n"
                "code-snippet: echo $x;")
        response = parse_scan_response(text)
        assert len(response.findings) == 1
        finding = response.findings[0]
        assert finding.cwe_id == "CWE-79"
        assert finding.reason == "echoes input"
        assert (finding.line_start, finding.line_end) == (12, 12)
        assert finding.code_snippet == "echo $x;"

    def test_quoted_schema_lines(self):
        text = ('"CWE-ID: CWE-89"\n'
                '"Reason: concatenated query"\n'
                '"Line: 4-7"\n'
                '"Code-Snippet: q = a + b"\n')
        finding = parse_scan_response(text).findings[0]
        assert finding.cwe_id == "CWE-89"
        assert finding.reason == "concatenated query"
        assert (finding.line_start, finding.line_end) == (4, 7)
        assert finding.code_snippet == "q = a + b"

    def test_multiple_blocks_with_prose_between(self):
        text = ("I found these issues.\n\n"
                "CWE-ID: CWE-78\nReason: shell exec\nline: 39-44\n"
                "code-snippet: exec(cmd)\n\n"
                "Additionally:\n"
                "CWE-ID: 89\nReason: sql\nline: 7\ncode-snippet: query(q)\n")
        findings = parse_scan_response(text).findings
        assert [f.cwe_id for f in findings] == ["CWE-78", "CWE-89"]

    def test_line_list_spans_min_to_max(self):
        text = "CWE-ID: CWE-22\nReason: r\nline: 39, 44, 41\ncode-snippet: x"
        finding = parse_scan_response(text).findings[0]
        assert (finding.line_start, finding.line_end) == (39, 44)

    def test_multiline_snippet_runs_to_block_end(self):
        text = ("CWE-ID: CWE-89\nReason: r\nline: 3\n"
                "code-snippet: var q = a +\n    b;\n")
        assert parse_scan_response(text).findings[0].code_snippet == "var q = a +\n    b;"

    def test_block_without_line_field_is_degraded(self):
        text = "CWE-ID: CWE-89\nReason: missing line info"
        response = parse_scan_response(text)
        assert response.findings == []
        assert response.none_found is False
        assert response.parse_degraded is True

    def test_good_block_survives_bad_sibling(self):
        text = ("CWE-ID: CWE-89\nReason: no line here\n\n"
                "CWE-ID: CWE-79\nReason: ok\nline: 5\ncode-snippet: x")
        response = parse_scan_response(text)
        assert [f.cwe_id for f in response.findings] == ["CWE-79"]
        assert response.parse_degraded is True

    def test_arbitrary_text_is_degraded_not_fatal(self):
        response = parse_scan_response("The code looks fine to me!")
        assert response.none_found is False
        assert response.parse_degraded is True
        assert response.raw_text == "The code looks fine to me!"

    def test_bytes_input(self):
        assert parse_scan_response(b"no vulnerabilties found").none_found


class TestRenderFinding:
    def test_layout(self):
        finding = PredictedFinding(cwe_id="CWE-79", reason="echoes input",
                                   line_start=3, line_end=5, code_snippet="echo $x;")
        assert render_finding(finding) == (
            "CWE-ID: CWE-79\n"
            "Reason: echoes input\n"
            "line: 3-5\n"
            "code-snippet: echo $x;"
        )

    def test_single_line_span(self):
        finding = PredictedFinding(cwe_id="CWE-79", reason="r", line_start=3,
                                   line_end=3, code_snippet="x")
        assert "line: 3\n" in render_finding(finding) + "\n"

    def test_newline_in_reason_rejected(self):
        finding = PredictedFinding(cwe_id="CWE-79", reason="a\nb", line_start=1,
                                   line_end=1, code_snippet="")
        with pytest.raises(ValueError):
            render_finding(finding)

    def test_round_trip_random(self):
        rng = random.Random(77)
        safe = string.ascii_letters + string.digits + " ()$+=*;.,_"
        for _ in range(1000):
            start = rng.randrange(1, 5000)
            findings = [
                PredictedFinding(
                    cwe_id=f"CWE-{rng.randrange(1, 1400)}",
                    reason="".join(rng.choice(safe) for _ in range(rng.randrange(1, 60))).strip() or "r",
                    line_start=start,
                    line_end=start + rng.randrange(0, 40),
                    code_snippet="\n".join(
                        "".join(rng.choice(safe) for _ in range(rng.randrange(1, 40))).rstrip() or "y"
                        for _ in range(rng.randrange(1, 4))
                    ),
                )
                for _ in range(rng.randrange(1, 4))
            ]
            text = "\n".join(render_finding(f) for f in findings)
            parsed = parse_scan_response(text)
            assert parsed.parse_degraded is False
            assert parsed.findings == findings


class TestMockGateway:
    def test_scan_prompt_with_scanner_vocabulary(self):
        gateway = MockGateway()
        reply = gateway.complete("You are a very efficient vulnerability scanner.\n"
                                 "... SAST Scanner ...")
        assert reply == "no additional vulnerabilties found"

    def test_scan_prompt_without_scanner_vocabulary(self):
        gateway = MockGateway()
        reply = gateway.complete("You are a very efficient vulnerability scanner.\n")
        assert reply == "no vulnerabilties found"

    def test_canned_scan_response_wins(self):
        gateway = MockGateway(scan_response="CWE-ID: CWE-1\nline: 1")
        reply = gateway.complete("You are a very efficient vulnerability scanner.")
        assert reply.startswith("CWE-ID")

    def test_scan_detection_beats_embedded_derivation_marker(self):
        # A scan prompt whose retrieved reports quote the derivation marker
        # must still be treated as a scan prompt.
        gateway = MockGateway()
        prompt = ("Code-Pattern:[xxxx] appears inside a report\n"
                  "You are a very efficient vulnerability scanner.\n")
        assert "vulnerabilties found" in gateway.complete(prompt)

    def test_abstraction_derivation_is_deterministic(self):
        gateway = MockGateway()
        prompt = render_derivation_prompt(ABSTRACTION_PROMPT, "var alpha = beta(gamma)")
        first = gateway.complete(prompt)
        second = gateway.complete(prompt)
        assert first == second
        assert first.startswith("Code-Pattern:[")
        assert "alpha" not in first

    def test_records_every_call(self):
        gateway = MockGateway()
        gateway.complete("anything")
        gateway.complete("else")
        assert gateway.calls == ["anything", "else"]
