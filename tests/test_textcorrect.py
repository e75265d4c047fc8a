import functools
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signpipe import textcorrect
from signpipe.datagen import PHRASES


def reference_osa(a: str, b: str) -> int:
    """Textbook optimal-string-alignment DP, full matrix, no cap."""
    la, lb = len(a), len(b)
    d = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la + 1):
        d[i][0] = i
    for j in range(lb + 1):
        d[0][j] = j
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                d[i][j] = min(d[i][j], d[i - 2][j - 2] + 1)
    return d[la][lb]


def recursive_osa(a: str, b: str) -> int:
    """Optimal-string-alignment distance straight from its recursive definition."""
    @functools.cache
    def d(i: int, j: int) -> int:
        if i == 0 or j == 0:
            return i + j
        best = min(d(i - 1, j) + 1, d(i, j - 1) + 1, d(i - 1, j - 1) + (a[i - 1] != b[j - 1]))
        if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
            best = min(best, d(i - 2, j - 2) + 1)
        return best

    return d(len(a), len(b))


@pytest.fixture(scope="module")
def lexicon():
    return textcorrect.Lexicon.from_phrases(list(PHRASES))


# ------------------------------------------------------------- distance


def test_distance_pinned_values():
    dl = textcorrect.damerau_levenshtein
    assert dl("", "") == 0
    assert dl("ABC", "ABC") == 0
    assert dl("ABC", "") == 3
    assert dl("CA", "AC") == 1  # one transposition
    assert dl("CA", "ABC") == 3  # OSA, not unrestricted Damerau (which gives 2)
    assert dl("BOK", "BOOK") == 1
    assert dl("KITTEN", "SITTING") == 3


def test_distance_matches_reference(rng):
    alphabet = "ABC"
    for _ in range(300):
        a = "".join(alphabet[i] for i in rng.integers(0, 3, rng.integers(0, 7)))
        b = "".join(alphabet[i] for i in rng.integers(0, 3, rng.integers(0, 7)))
        assert textcorrect.damerau_levenshtein(a, b) == reference_osa(a, b)


def test_distance_symmetry(rng):
    for _ in range(100):
        a = "".join("AB"[i] for i in rng.integers(0, 2, 5))
        b = "".join("AB"[i] for i in rng.integers(0, 2, 6))
        assert textcorrect.damerau_levenshtein(a, b) == textcorrect.damerau_levenshtein(b, a)


def test_distance_cap():
    dl = textcorrect.damerau_levenshtein
    assert dl("AAAA", "BBBB", cap=2) == 3  # true distance 4, reported as cap+1
    assert dl("BOK", "BOOK", cap=2) == 1  # within cap: exact
    assert dl("A", "ABCDEF", cap=2) == 3  # length gap alone exceeds the cap


words = st.text(alphabet="ABCD", max_size=9)


@settings(max_examples=500, deadline=None)
@given(a=words, b=words, cap=st.one_of(st.none(), st.integers(0, 5)))
def test_distance_equals_recursive_definition(a, b, cap):
    # with a cap, the distance is exact up to the cap and cap + 1 beyond it
    expected = recursive_osa(a, b)
    if cap is not None:
        expected = min(expected, cap + 1)
    assert textcorrect.damerau_levenshtein(a, b, cap=cap) == expected


# ------------------------------------------------------------- lexicon


def test_lexicon_from_phrases(lexicon):
    assert lexicon.words["THE"] >= 1
    assert lexicon.words["BOOK"] >= 1
    assert ("THANK", "YOU") in lexicon.bigrams
    assert all(w.isupper() for w in lexicon.words)
    assert all(f >= 1 for f in lexicon.words.values())


def test_lexicon_validation():
    with pytest.raises(ValueError):
        textcorrect.Lexicon(words={}, bigrams={})
    with pytest.raises(ValueError):
        textcorrect.Lexicon(words={"low": 1}, bigrams={})
    with pytest.raises(ValueError):
        textcorrect.Lexicon(words={"OK": 0}, bigrams={})


def test_word_candidates_ranking(lexicon):
    cands = textcorrect.word_candidates("BOK", lexicon)
    assert 1 <= len(cands) <= 4
    assert cands[0][0] == "BOOK"
    dists = [d for _, d in cands]
    assert dists == sorted(dists)


def test_word_candidates_exact_match_first(lexicon):
    cands = textcorrect.word_candidates("BOOK", lexicon)
    assert cands[0] == ("BOOK", 0)


def test_word_candidates_unknown_word(lexicon):
    cands = textcorrect.word_candidates("XQZWJVK", lexicon)
    assert cands == [("XQZWJVK", 3)]


# ------------------------------------------------------------- offline


def test_correct_offline_toy_bok(lexicon):
    result = textcorrect.correct_offline("TOY BOK", lexicon)
    assert "TOY BOOK" in result.candidates
    assert result.source == "offline"
    assert len(result.candidates) == 3


def test_correct_offline_identity_when_clean(lexicon):
    result = textcorrect.correct_offline("THE BOOK", lexicon)
    assert result.candidates[0] == "THE BOOK"


def test_correct_offline_reorders_you_thank(lexicon):
    result = textcorrect.correct_offline("YOU THANK", lexicon)
    assert "THANK YOU" in result.candidates
    # lowercase input is normalized before correction
    result2 = textcorrect.correct_offline("you thank", lexicon)
    assert result2.candidates == result.candidates


def test_correct_offline_deterministic(lexicon):
    a = textcorrect.correct_offline("GOOD MRNING", lexicon)
    b = textcorrect.correct_offline("GOOD MRNING", lexicon)
    assert a == b


def test_correct_offline_pads_to_three():
    lex = textcorrect.Lexicon(words={"ZIPZAP": 5}, bigrams={})
    result = textcorrect.correct_offline("ZIPZAP", lex)
    assert result.candidates == ("ZIPZAP", "ZIPZAP", "ZIPZAP")


def test_correct_offline_empty_errors(lexicon):
    with pytest.raises(ValueError):
        textcorrect.correct_offline("   ", lexicon)


def test_correct_offline_whitespace_normalization(lexicon):
    a = textcorrect.correct_offline("  THE   BOOK ", lexicon)
    b = textcorrect.correct_offline("THE BOOK", lexicon)
    assert a == b


# ------------------------------------------------------------- evaluate


def test_evaluate_corrector_rank_sensitivity():
    def always_first(text):
        return textcorrect.CorrectionResult(("CLEAN", "X", "Y"), "offline")

    def only_third(text):
        return textcorrect.CorrectionResult(("X", "Y", "CLEAN"), "offline")

    pairs = [("noisy", "CLEAN")] * 4
    m = textcorrect.evaluate_corrector(always_first, pairs)
    assert m == {"top1_accuracy": 1.0, "top3_accuracy": 1.0}
    m = textcorrect.evaluate_corrector(only_third, pairs)
    assert m["top1_accuracy"] == 0.0
    assert m["top3_accuracy"] == 1.0


def test_evaluate_corrector_top3_at_least_top1(lexicon):
    pairs = [("TOY BOK", "TOY BOOK"), ("THE BOK", "THE BOOK"), ("XZQ", "XZQ")]
    m = textcorrect.evaluate_corrector(
        lambda t: textcorrect.correct_offline(t, lexicon), pairs
    )
    assert m["top3_accuracy"] >= m["top1_accuracy"]


def test_evaluate_corrector_empty_errors():
    with pytest.raises(ValueError):
        textcorrect.evaluate_corrector(lambda t: None, [])


# ------------------------------------------------------------- remote


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


def ok_body(cands=("HELLO WORLD", "WORLD HELLO", "HELLO")):
    return json.dumps(list(cands))


def test_remote_success(server):
    url, handler = server
    handler.script.append({"status": 200, "body": ok_body()})
    cfg = textcorrect.RemoteCorrectorConfig(endpoint=url)
    result = textcorrect.correct_remote("helo wrld", cfg)
    assert result.source == "remote"
    assert result.candidates == ("HELLO WORLD", "WORLD HELLO", "HELLO")
    sent = json.loads(handler.seen[0]["body"])
    assert sent["input"] == "HELO WRLD"
    assert "HELO WRLD" in sent["prompt"]


def test_remote_sends_bearer_token(server, monkeypatch):
    url, handler = server
    handler.script.append({"status": 200, "body": ok_body()})
    monkeypatch.setenv("CORRECTOR_TOKEN", "sekrit")
    cfg = textcorrect.RemoteCorrectorConfig(endpoint=url, token_env="CORRECTOR_TOKEN")
    textcorrect.correct_remote("HI THERE", cfg)
    assert handler.seen[0]["auth"] == "Bearer sekrit"


def test_remote_missing_token_env(server, monkeypatch):
    url, _ = server
    monkeypatch.delenv("NO_SUCH_TOKEN_VAR", raising=False)
    cfg = textcorrect.RemoteCorrectorConfig(endpoint=url, token_env="NO_SUCH_TOKEN_VAR")
    with pytest.raises(ValueError):
        textcorrect.correct_remote("HI", cfg)


def test_remote_two_candidates_is_protocol_error(server):
    url, handler = server
    handler.script.append({"status": 200, "body": json.dumps(["A", "B"])})
    cfg = textcorrect.RemoteCorrectorConfig(endpoint=url)
    with pytest.raises(textcorrect.ProtocolError):
        textcorrect.correct_remote("HI", cfg)


def test_remote_malformed_json_is_protocol_error(server):
    url, handler = server
    handler.script.append({"status": 200, "body": "not json"})
    cfg = textcorrect.RemoteCorrectorConfig(endpoint=url)
    with pytest.raises(textcorrect.ProtocolError):
        textcorrect.correct_remote("HI", cfg)


def test_remote_4xx_is_protocol_error_no_retry(server):
    url, handler = server
    handler.script.append({"status": 404, "body": "nope"})
    cfg = textcorrect.RemoteCorrectorConfig(endpoint=url, max_retries=2)
    with pytest.raises(textcorrect.ProtocolError):
        textcorrect.correct_remote("HI", cfg)
    assert len(handler.seen) == 1  # not transient: one attempt only


def test_remote_5xx_retries_then_succeeds(server):
    url, handler = server
    handler.script.extend(
        [
            {"status": 500, "body": "boom"},
            {"status": 429, "body": "slow down"},
            {"status": 200, "body": ok_body(("OK GOOD", "GOOD OK", "OK"))},
        ]
    )
    cfg = textcorrect.RemoteCorrectorConfig(
        endpoint=url, max_retries=2, timeout_ms=2000, backoff_ms=10
    )
    result = textcorrect.correct_remote("HI", cfg)
    assert result.candidates[0] == "OK GOOD"
    assert len(handler.seen) == 3


def test_remote_timeout_twice_then_succeeds(server):
    url, handler = server
    handler.script.extend(
        [
            {"status": 200, "body": ok_body(), "delay": 0.5},
            {"status": 200, "body": ok_body(), "delay": 0.5},
            {"status": 200, "body": ok_body(("FINE DAY", "DAY FINE", "FINE"))},
        ]
    )
    cfg = textcorrect.RemoteCorrectorConfig(
        endpoint=url, max_retries=2, timeout_ms=250, backoff_ms=10
    )
    result = textcorrect.correct_remote("HI", cfg)
    assert result.candidates[0] == "FINE DAY"
    assert len(handler.seen) == 3


def test_remote_exhausted_retries_is_transport_error(server):
    url, handler = server
    handler.script.extend([{"status": 503, "body": "down"}] * 3)
    cfg = textcorrect.RemoteCorrectorConfig(
        endpoint=url, max_retries=2, timeout_ms=500, backoff_ms=10
    )
    with pytest.raises(textcorrect.TransportError):
        textcorrect.correct_remote("HI", cfg)
    assert len(handler.seen) == 3


def test_remote_connection_refused_is_transport_error():
    cfg = textcorrect.RemoteCorrectorConfig(
        endpoint="http://127.0.0.1:9/none", max_retries=1, timeout_ms=200, backoff_ms=10
    )
    with pytest.raises(textcorrect.TransportError):
        textcorrect.correct_remote("HI", cfg)


def test_remote_never_blocks_past_budget(server):
    url, handler = server
    handler.script.extend([{"status": 200, "body": ok_body(), "delay": 5.0}] * 3)
    cfg = textcorrect.RemoteCorrectorConfig(
        endpoint=url, max_retries=2, timeout_ms=200, backoff_ms=400
    )
    start = time.monotonic()
    with pytest.raises(textcorrect.TransportError):
        textcorrect.correct_remote("HI", cfg)
    elapsed = time.monotonic() - start
    # bound is (retries+1) * timeout = 0.6 s; allow a little scheduling slack
    assert elapsed < 0.6 + 0.25


def test_remote_config_validation():
    with pytest.raises(ValueError):
        textcorrect.RemoteCorrectorConfig(endpoint="http://x", timeout_ms=0)
    with pytest.raises(ValueError):
        textcorrect.RemoteCorrectorConfig(endpoint="http://x", max_retries=-1)
