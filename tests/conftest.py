"""Shared fixtures: tiny datasets sized for fast unit tests, a scripted
HTTP server standing in for the remote corrector, and a raw endpoint that
answers with bytes no HTTP server would send."""
import socketserver
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from signpipe import datagen, forest
from signpipe.rng import substream


@pytest.fixture(scope="session")
def tiny_landmarks():
    """3 well-separated classes, 20 samples each."""
    spec = datagen.LandmarkDatasetSpec(per_class=20, seed=7, classes=("A", "B", "C"))
    X, y = datagen.frames_to_arrays(datagen.synth_landmarks(spec), classes=("A", "B", "C"))
    return X, y


@pytest.fixture(scope="session")
def tiny_forest(tiny_landmarks):
    X, y = tiny_landmarks
    hp = forest.ForestHyperparams(n_estimators=15, max_depth=8)
    return forest.train_forest(X, y, hp, seed=3), X, y


@pytest.fixture()
def rng():
    return substream(123, "test")


def random_images(n: int, size: int, seed: int) -> np.ndarray:
    return substream(seed, "img").integers(0, 256, size=(n, size, size)).astype(np.uint8)


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Serves scripted responses in order; records request bodies/headers."""

    script = []
    seen = []
    lock = threading.Lock()

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        with self.lock:
            type(self).seen.append(
                {"body": body, "auth": self.headers.get("Authorization")}
            )
            step = self.script.pop(0) if self.script else {"status": 200, "body": "[]"}
        delay = step.get("delay", 0.0)
        if delay:
            time.sleep(delay)
        payload = step["body"].encode("utf-8")
        try:
            self.send_response(step["status"])
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            pass  # a delayed reply whose client already timed out and hung up

    def log_message(self, *args):
        pass


@pytest.fixture()
def server():
    handler = type("Handler", (_ScriptedHandler,), {"script": [], "seen": []})
    srv = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{srv.server_port}/correct", handler
    finally:
        srv.shutdown()
        srv.server_close()


# Replies a broken corrector might send, each answering one whole request.
MALFORMED_REPLIES = {
    "non-utf8-body": b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\n\xff\xfe\xfd\xfc",
    "bad-status-line": b"HELLO THERE\r\n\r\n",
    "short-body": b'HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n["A"',
    "deep-nesting": b"HTTP/1.1 200 OK\r\nContent-Length: 100000\r\n\r\n" + b"[" * 100_000,
}


class _RawHandler(socketserver.StreamRequestHandler):
    """Reads one request, writes the server's fixed reply bytes, hangs up."""

    def handle(self):
        length = 0
        while (line := self.rfile.readline()) not in (b"\r\n", b""):
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        self.rfile.read(length)
        with self.server.lock:
            self.server.requests += 1
        self.wfile.write(self.server.reply)


@pytest.fixture()
def raw_server():
    """(url, server): every request gets `server.reply`, verbatim; the
    server counts the requests it answered."""
    srv = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _RawHandler)
    srv.daemon_threads = True
    srv.reply, srv.requests, srv.lock = b"", 0, threading.Lock()
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{srv.server_address[1]}/correct", srv
    finally:
        srv.shutdown()
        srv.server_close()
