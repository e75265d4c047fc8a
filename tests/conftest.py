"""Shared fixtures: tiny datasets sized for fast unit tests, and a scripted
HTTP server standing in for the remote corrector."""
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
