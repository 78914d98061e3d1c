"""End-to-end tests of the HTTP front-end: real sockets, real JSON,
a real event stream -- plus the server's own crash recovery."""

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.serve.journal import Journal
from repro.serve.server import (
    MAX_BODY_BYTES,
    VerificationServer,
    serve_in_thread,
)

CAMPAIGN = {"banks": 1, "traffic": 6, "rtl_cycles": 100, "max_faults": 4}


def _http(method, url, payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(url, data=data, method=method)
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read().decode())


def _wait(base, job_id, timeout_s=120.0):
    import time
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        record = _http("GET", f"{base}/jobs/{job_id}")
        if record["status"] in ("done", "cached", "error", "interrupted"):
            return record
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished")


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("serve"))
    server, stop = serve_in_thread(root)
    yield server, f"http://127.0.0.1:{server.port}", root
    stop()


class TestHTTP:
    def test_healthz(self, server):
        __, base, ___ = server
        health = _http("GET", f"{base}/healthz")
        assert health["ok"] is True
        assert "store" in health and "jobs" in health

    def test_submit_run_fetch_and_dedupe(self, server):
        __, base, ___ = server
        submitted = _http("POST", f"{base}/jobs",
                          {"kind": "campaign", "spec": CAMPAIGN})
        assert submitted["status"] in ("queued", "running")
        record = _wait(base, submitted["id"])
        assert record["status"] == "done"
        assert record["result"]["counts"]
        assert len(record["result"]["faults"]) == 4
        # the result is addressable in the store
        stored = _http("GET", f"{base}/store/{submitted['key']}")
        assert stored == record["result"]
        # an identical resubmission is served from the store
        again = _http("POST", f"{base}/jobs",
                      {"kind": "campaign", "spec": dict(CAMPAIGN)})
        assert again["status"] == "cached"
        assert again["key"] == submitted["key"]
        assert again["result"] == record["result"]
        # and a semantically different one is not
        other = _http("POST", f"{base}/jobs", {
            "kind": "campaign", "spec": {**CAMPAIGN, "seed": 99}})
        assert other["status"] != "cached"
        _wait(base, other["id"])

    def test_event_stream_carries_verdicts_then_done(self, server):
        __, base, ___ = server
        submitted = _http("POST", f"{base}/jobs", {
            "kind": "campaign", "spec": {**CAMPAIGN, "seed": 31}})
        _wait(base, submitted["id"])
        lines = urllib.request.urlopen(
            f"{base}/jobs/{submitted['id']}/events",
            timeout=60).read().decode().splitlines()
        events = [json.loads(line) for line in lines]
        assert events[-1]["type"] == "done"
        assert events[-1]["status"] in ("done", "cached")
        assert sum(1 for e in events if e.get("type") == "verdict") == 4

    def test_jobs_listing(self, server):
        __, base, ___ = server
        listing = _http("GET", f"{base}/jobs")
        assert listing["jobs"]
        assert all("id" in j and "status" in j for j in listing["jobs"])

    def test_error_paths(self, server):
        __, base, ___ = server
        with pytest.raises(urllib.error.HTTPError) as exc:
            _http("POST", f"{base}/jobs", {"kind": "nope", "spec": {}})
        assert exc.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as exc:
            _http("GET", f"{base}/jobs/j999999")
        assert exc.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as exc:
            _http("GET", f"{base}/store/deadbeef")
        assert exc.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as exc:
            _http("POST", f"{base}/healthz", {})
        assert exc.value.code == 405
        # a job whose adapter raises mid-run lands in status=error
        # (with the traceback) without killing the server
        bad = _http("POST", f"{base}/jobs",
                    {"kind": "mc", "spec": {"banks": -1}})
        record = _wait(base, bad["id"])
        assert record["status"] == "error"
        assert "banks must be >= 1" in record["error"]
        assert _http("GET", f"{base}/healthz")["ok"] is True


def _raw(port, request: bytes):
    """Send raw request bytes; return (status, decoded JSON body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body.decode())


class TestHostileClients:
    def test_negative_content_length_is_400(self, server):
        srv, __, ___ = server
        status, body = _raw(srv.port, b"POST /jobs HTTP/1.1\r\n"
                            b"Content-Length: -5\r\n\r\n{}")
        assert status == 400
        assert "negative Content-Length" in body["error"]

    def test_non_integer_content_length_is_400(self, server):
        srv, __, ___ = server
        status, body = _raw(srv.port, b"POST /jobs HTTP/1.1\r\n"
                            b"Content-Length: abc\r\n\r\n{}")
        assert status == 400
        assert "invalid Content-Length 'abc'" in body["error"]

    def test_stalled_client_gets_408_and_is_closed(self, server,
                                                   monkeypatch):
        import repro.serve.server as server_module

        srv, __, ___ = server
        monkeypatch.setattr(server_module, "REQUEST_TIMEOUT_S", 0.2)
        with socket.create_connection(("127.0.0.1", srv.port),
                                      timeout=30) as sock:
            # stall mid-headers without half-closing: only the server's
            # deadline can end this request
            sock.sendall(b"POST /jobs HTTP/1.1\r\nContent-Le")
            data = b""
            while chunk := sock.recv(65536):
                data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
        assert "within 0.2 s" in json.loads(body.decode())["error"]

    def test_unknown_zoo_design_is_400(self, server):
        __, base, ___ = server
        with pytest.raises(urllib.error.HTTPError) as exc:
            _http("POST", f"{base}/jobs",
                  {"kind": "flow", "spec": {"design": "nope"}})
        assert exc.value.code == 400
        assert "unknown zoo design" in json.loads(exc.value.read())["error"]

    def test_oversized_body_is_413_before_reading_it(self, server):
        srv, __, ___ = server
        status, body = _raw(
            srv.port, b"POST /jobs HTTP/1.1\r\n"
            b"Content-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1))
        assert status == 413
        assert str(MAX_BODY_BYTES) in body["error"]

    def test_client_still_uploading_reads_413_not_reset(self, server):
        # the client sends part of an oversized body and reads the reply
        # without half-closing first; had the server closed with that body
        # unread, the kernel would answer with a reset that usually beats
        # the 413 to the client, so a few rounds make the race show
        srv, __, ___ = server
        for _ in range(3):
            with socket.create_connection(("127.0.0.1", srv.port),
                                          timeout=30) as sock:
                sock.sendall(b"POST /jobs HTTP/1.1\r\n"
                             b"Content-Length: %d\r\n\r\n"
                             % (2 * MAX_BODY_BYTES))
                sock.sendall(b"x" * (256 * 1024))
                data = b""
                while chunk := sock.recv(65536):
                    data += chunk
            assert data.startswith(b"HTTP/1.1 413 Payload Too Large\r\n")

    def test_internal_error_is_500_without_traceback(self, server,
                                                     monkeypatch, capsys):
        srv, __, ___ = server

        def boom(kind, spec):
            raise RuntimeError("adapter exploded")

        monkeypatch.setattr(srv, "submit", boom)
        payload = b'{"kind": "campaign", "spec": {}}'
        status, body = _raw(
            srv.port, b"POST /jobs HTTP/1.1\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(payload), payload))
        assert status == 500
        assert body == {"error": "RuntimeError: adapter exploded"}
        assert "Traceback" in capsys.readouterr().err


class TestRecovery:
    def test_interrupted_jobs_resurface_after_restart(self, tmp_path):
        # forge the durable state a killed server leaves behind: a
        # submission journaled without a matching completion
        root = str(tmp_path)
        with Journal(f"{root}/serve.journal") as journal:
            journal.append({"type": "submit", "id": "j1",
                            "kind": "campaign", "key": "abc",
                            "spec": CAMPAIGN})
            journal.append({"type": "finish", "id": "j1", "key": "abc",
                            "status": "done"})
            journal.append({"type": "submit", "id": "j2",
                            "kind": "campaign", "key": "def",
                            "spec": CAMPAIGN})
        server = VerificationServer(root)
        assert list(server.records) == ["j2"]
        assert server.records["j2"].status == "interrupted"
        # new ids never collide with journaled ones
        assert next(server._ids) == 3
        server.journal.close()

    def test_fresh_root_recovers_to_empty(self, tmp_path):
        server = VerificationServer(str(tmp_path))
        assert server.records == {}
        server.journal.close()
