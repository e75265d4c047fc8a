"""Text correction: offline edit-distance corrector and remote HTTP client.

The offline path retrieves per-word lexicon candidates within Damerau-
Levenshtein distance 2, beams over whole-string combinations scored by word
frequency and bigram counts, and proposes adjacent-word swaps that raise the
bigram score. The remote path POSTs to a hosted corrector and enforces the
three-candidate response contract; both return exactly three candidates.
"""
from __future__ import annotations

import json
import math
import os
import time
import urllib.error
import urllib.request
from dataclasses import dataclass

# Ranking/scoring constants, fixed for determinism.
MAX_WORD_DISTANCE = 2
UNKNOWN_WORD_DISTANCE = 3
CANDIDATES_PER_WORD = 4
BEAM_WIDTH = 8
BIGRAM_WEIGHT = 2.0
# What the remote corrector is asked; {text} is the normalized input.
PROMPT_TEMPLATE = (
    "Correct this recognized sign text, reply with a JSON array of exactly 3 candidate strings: {text}"
)


class TransportError(Exception):
    """Network-level failure that persisted through all retries."""


class ProtocolError(Exception):
    """Server answered, but not with a valid three-candidate payload."""


@dataclass(frozen=True)
class Lexicon:
    """Uppercase vocabulary with word and ordered-bigram frequencies."""

    words: dict[str, int]
    bigrams: dict[tuple[str, str], int]

    def __post_init__(self):
        if not self.words:
            raise ValueError("lexicon must be non-empty")
        for w, f in self.words.items():
            if not w or w != w.upper() or f < 1:
                raise ValueError(f"bad lexicon entry {w!r}: {f}")

    @staticmethod
    def from_phrases(phrases: list[str]) -> "Lexicon":
        words: dict[str, int] = {}
        bigrams: dict[tuple[str, str], int] = {}
        for phrase in phrases:
            ws = phrase.upper().split()
            for w in ws:
                words[w] = words.get(w, 0) + 1
            for pair in zip(ws, ws[1:]):
                bigrams[pair] = bigrams.get(pair, 0) + 1
        return Lexicon(words=words, bigrams=bigrams)


def damerau_levenshtein(a: str, b: str, cap: int | None = None) -> int:
    """Optimal-string-alignment distance (substitute/insert/delete/transpose).

    With a cap, returns cap+1 for any distance above it, as soon as that is certain.
    """
    la, lb = len(a), len(b)
    if cap is not None and abs(la - lb) > cap:
        return cap + 1
    prev2: list[int] | None = None
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            best = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                best = min(best, prev2[j - 2] + 1)
            cur[j] = best
        if cap is not None and min(cur) > cap:
            return cap + 1
        prev2, prev = prev, cur
    return prev[lb] if cap is None else min(prev[lb], cap + 1)


@dataclass(frozen=True)
class CorrectionResult:
    candidates: tuple[str, str, str]
    source: str  # "offline" | "remote"

    def __post_init__(self):
        if len(self.candidates) != 3 or any(not c for c in self.candidates):
            raise ValueError(f"exactly 3 non-empty candidates required, got {self.candidates}")


def word_candidates(word: str, lexicon: Lexicon) -> list[tuple[str, int]]:
    """Lexicon words within distance 2, ranked (distance, -frequency, alpha).

    A word with no candidate in range stands for itself at a penalty distance.
    """
    found: list[tuple[int, int, str]] = []
    for cand, freq in lexicon.words.items():
        d = damerau_levenshtein(word, cand, cap=MAX_WORD_DISTANCE)
        if d <= MAX_WORD_DISTANCE:
            found.append((d, -freq, cand))
    if not found:
        return [(word, UNKNOWN_WORD_DISTANCE)]
    found.sort()
    return [(cand, d) for d, _, cand in found[:CANDIDATES_PER_WORD]]


def _bigram_score(words: list[str], lexicon: Lexicon) -> float:
    return sum(math.log1p(lexicon.bigrams.get(pair, 0)) for pair in zip(words, words[1:]))


def _string_score(words: list[str], lexicon: Lexicon) -> float:
    """Higher is better: log1p word frequencies plus weighted bigram counts."""
    score = sum(math.log1p(lexicon.words.get(w, 0)) for w in words)
    return score + BIGRAM_WEIGHT * _bigram_score(words, lexicon)


def correct_offline(text: str, lexicon: Lexicon) -> CorrectionResult:
    """Top-3 whole-string corrections; deterministic for a given lexicon."""
    norm = " ".join(text.strip().upper().split())
    if not norm:
        raise ValueError("cannot correct empty text")
    per_word = [word_candidates(w, lexicon) for w in norm.split()]

    # Beam over the per-word candidate lists, keyed by (distance sum, -score).
    beam: list[tuple[int, list[str]]] = [(0, [])]
    for choices in per_word:
        grown = [(dist + d, words + [cand]) for dist, words in beam for cand, d in choices]
        grown.sort(key=lambda s: (s[0], -_string_score(s[1], lexicon), " ".join(s[1])))
        beam = grown[:BEAM_WIDTH]

    # Reorder pass: adjacent swaps that strictly raise the bigram score.
    pool: dict[str, tuple[int, float]] = {}
    for dist, words in beam:
        variants = [words]
        base = _bigram_score(words, lexicon)
        for i in range(len(words) - 1):
            swapped = words[:i] + [words[i + 1], words[i]] + words[i + 2 :]
            if _bigram_score(swapped, lexicon) > base:
                variants.append(swapped)
        for v in variants:
            s = " ".join(v)
            entry = (dist, _string_score(v, lexicon))
            if s not in pool or entry < pool[s]:
                pool[s] = entry

    ranked = sorted(pool.items(), key=lambda kv: (kv[1][0], -kv[1][1], kv[0]))
    top = [s for s, _ in ranked[:3]]
    while len(top) < 3:
        top.append(top[0])
    return CorrectionResult(candidates=tuple(top), source="offline")


@dataclass(frozen=True)
class RemoteCorrectorConfig:
    """The auth token is named by environment variable, never stored."""

    endpoint: str
    token_env: str = ""
    timeout_ms: int = 1000
    max_retries: int = 2
    backoff_ms: int = 100

    def __post_init__(self):
        if self.timeout_ms <= 0:
            raise ValueError(f"timeout_ms must be > 0, got {self.timeout_ms}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")


def correct_remote(text: str, cfg: RemoteCorrectorConfig) -> CorrectionResult:
    """POST the text, parse exactly 3 candidates; retry transient failures.

    Transient = timeout, connection failure, HTTP 429 or 5xx; retried with
    exponential backoff. Total time never exceeds (retries+1) * timeout: the
    budget pays for both attempts and backoff sleeps. Anything else from the
    server is a ProtocolError.
    """
    norm = " ".join(text.strip().upper().split())
    if not norm:
        raise ValueError("cannot correct empty text")
    body = json.dumps({"input": norm, "prompt": PROMPT_TEMPLATE.format(text=norm)}).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if cfg.token_env:
        token = os.environ.get(cfg.token_env)
        if token is None:
            raise ValueError(f"auth environment variable {cfg.token_env} is not set")
        headers["Authorization"] = f"Bearer {token}"

    timeout_s = cfg.timeout_ms / 1000.0
    deadline = time.monotonic() + (cfg.max_retries + 1) * timeout_s
    last_error: Exception | None = None
    for attempt in range(cfg.max_retries + 1):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        req = urllib.request.Request(cfg.endpoint, data=body, headers=headers, method="POST")
        try:
            with urllib.request.urlopen(req, timeout=min(timeout_s, remaining)) as resp:
                payload = resp.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            if exc.code == 429 or exc.code >= 500:
                last_error = exc
            else:
                raise ProtocolError(f"corrector returned HTTP {exc.code}") from exc
        except (urllib.error.URLError, ConnectionError, TimeoutError, OSError) as exc:
            last_error = exc
        else:
            return _parse_remote(payload)
        if attempt < cfg.max_retries:
            pause = min(
                (cfg.backoff_ms / 1000.0) * (2**attempt),
                max(0.0, deadline - time.monotonic()),
            )
            if pause > 0:
                time.sleep(pause)
    raise TransportError(
        f"corrector unreachable after {cfg.max_retries + 1} attempts: {last_error}"
    ) from last_error


def _parse_remote(payload: str) -> CorrectionResult:
    try:
        data = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"corrector response is not JSON: {exc}") from exc
    if not isinstance(data, list) or len(data) != 3 or not all(isinstance(c, str) for c in data):
        raise ProtocolError(f"expected a JSON array of exactly 3 strings, got {data!r}")
    cands = tuple(" ".join(c.strip().upper().split()) for c in data)
    if any(not c for c in cands):
        raise ProtocolError(f"empty candidate in corrector response: {data!r}")
    return CorrectionResult(candidates=cands, source="remote")


def evaluate_corrector(corrector, pairs: list[tuple[str, str]]) -> dict[str, float]:
    """Top-1/top-3 exact-match accuracy of corrector(text) over (noisy, clean)."""
    if not pairs:
        raise ValueError("need at least one evaluation pair")
    top1 = top3 = 0
    for noisy, clean in pairs:
        cands = corrector(noisy).candidates
        if cands[0] == clean:
            top1 += 1
        if clean in cands:
            top3 += 1
    return {"top1_accuracy": top1 / len(pairs), "top3_accuracy": top3 / len(pairs)}
