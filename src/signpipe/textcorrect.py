"""Text correction: offline edit-distance corrector and remote HTTP client.

The offline path retrieves per-word lexicon candidates within Damerau-
Levenshtein distance 2 from a symmetric-delete index (every string within two
deletions of a lexicon word of at most 20 letters), which is exact for that
distance; longer lexicon words are measured directly, and a query word too
long for the index is compared with those alone. Every distance is one
bit-vector recurrence, at any word length, that stops once its lower bound
exceeds 2. A word with no candidate in range stands for itself. The path
beams over whole-string combinations scored by word frequency and bigram
counts, whose running sums each beam entry carries, and proposes adjacent-word
swaps that raise the bigram score. The remote path POSTs to a hosted corrector
and enforces the three-candidate response contract; both return exactly three
candidates.
"""
from __future__ import annotations

import functools
import json
import math
import os
import time
from dataclasses import dataclass

from .labels import SIGNABLE, ascii_words, upper_ascii

# Ranking/scoring constants, fixed for determinism.
MAX_WORD_DISTANCE = 2
UNKNOWN_WORD_DISTANCE = 3
CANDIDATES_PER_WORD = 4
BEAM_WIDTH = 8
BIGRAM_WEIGHT = 2.0
# Longest word the deletion index holds: a word of length L adds about L*L/2
# keys of about L characters, so longer words are measured directly instead.
MAX_INDEXED_LENGTH = 20
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
            ws = ascii_words(phrase.upper())
            for w in ws:
                words[w] = words.get(w, 0) + 1
            for pair in zip(ws, ws[1:]):
                bigrams[pair] = bigrams.get(pair, 0) + 1
        return Lexicon(words=words, bigrams=bigrams)

    @functools.cached_property
    def deletes(self) -> dict[str, tuple[str, ...]]:
        """Every string within MAX_WORD_DISTANCE deletions of a word of at most
        MAX_INDEXED_LENGTH letters -> those words.

        Built on first use; a cached property stores it beside the fields.
        """
        index: dict[str, tuple[str, ...]] = {}
        for word in self.words:
            if len(word) <= MAX_INDEXED_LENGTH:
                for key in _deletes(word):  # a tuple: nearly every key has one word
                    index[key] = index.get(key, ()) + (word,)
        return index

    @functools.cached_property
    def unindexed(self) -> list[str]:
        """The words longer than MAX_INDEXED_LENGTH, which every lookup measures."""
        return [w for w in self.words if len(w) > MAX_INDEXED_LENGTH]


def _deletes(word: str) -> set[str]:
    """The word and every string made by deleting up to MAX_WORD_DISTANCE of its characters."""
    found = frontier = {word}
    for _ in range(MAX_WORD_DISTANCE):
        frontier = {w[:i] + w[i + 1 :] for w in frontier for i in range(len(w))}
        found = found | frontier
    return found


def damerau_levenshtein(a: str, b: str, cap: int | None = None) -> int:
    """Optimal-string-alignment distance (substitute/insert/delete/transpose).

    With a cap (at least 0), returns cap+1 for any distance above it. The
    shorter string is the pattern of Hyyrö's bit-vector recurrence (Myers'
    algorithm with a transposition term): one integer per DP column holds its
    vertical +1 and -1 steps, so a character of the other string costs a
    dozen integer operations on integers as wide as the pattern. Each
    character moves the last row's value by at most one, so that value less
    the characters still to come is a lower bound on the distance: it starts
    at the length difference, rises by 2, 1 or 0 as the last row rises, holds
    or falls, ends equal to the distance, and stops the loop once it exceeds
    the cap. Unrelated strings stop within a few characters; near-identical
    long strings run through, in time that grows with the square of their
    length.
    """
    if cap is not None and cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    if len(a) > len(b):  # the distance is symmetric; the shorter string is the pattern
        a, b = b, a
    la, lb = len(a), len(b)
    if cap is None:
        cap = lb
    elif lb - la > cap:
        return cap + 1
    if not a:
        return lb
    peq: dict[str, int] = {}
    for i, ch in enumerate(a):
        peq[ch] = peq.get(ch, 0) | 1 << i
    mask, top = (1 << la) - 1, 1 << (la - 1)
    vp, vn, d0, pm_prev, bound = mask, 0, 0, 0, la - lb
    for ch in b:
        pm = peq.get(ch, 0)
        d0 = (((pm & vp) + vp) ^ vp | pm | vn | ((~d0 & pm) << 1 & pm_prev)) & mask
        hp = (vn | ~(d0 | vp)) & mask
        hn = d0 & vp
        if hp & top:
            bound += 2
        elif not hn & top:
            bound += 1
        if bound > cap:
            return cap + 1
        hp = (hp << 1 | 1) & mask
        hn = hn << 1 & mask
        vp = (hn | ~(d0 | hp)) & mask
        vn = d0 & hp
        pm_prev = pm
    return bound


@dataclass(frozen=True)
class CorrectionResult:
    candidates: tuple[str, str, str]
    source: str  # "offline" | "remote"

    def __post_init__(self):
        if len(self.candidates) != 3 or any(not c for c in self.candidates):
            raise ValueError(f"exactly 3 non-empty candidates required, got {self.candidates}")


def word_candidates(word: str, lexicon: Lexicon) -> list[tuple[str, int]]:
    """Lexicon words within distance 2, ranked (distance, -frequency, word).

    Ties in distance and frequency go to the alphabetically first word. A word
    in range shares a key of `lexicon.deletes` with the query, since a distance
    d <= 2 needs at most d deletions from each string (a substitution or a
    transposition is one from each, an insertion one from the longer), so the
    lookup misses none. The words too long for the index are measured for
    every query. A query longer than MAX_INDEXED_LENGTH + 2 is out of range of
    every indexed word, so it generates no deletion and is measured against
    the long words alone. A word with no candidate in range stands for itself
    at a penalty distance.
    """
    pool = set(lexicon.unindexed)
    if len(word) <= MAX_INDEXED_LENGTH + MAX_WORD_DISTANCE:
        index = lexicon.deletes
        pool.update(*(index.get(key, ()) for key in _deletes(word)))
    found: list[tuple[int, int, str]] = []
    for cand in pool:
        d = damerau_levenshtein(word, cand, cap=MAX_WORD_DISTANCE)
        if d <= MAX_WORD_DISTANCE:
            found.append((d, -lexicon.words[cand], cand))
    if not found:
        return [(word, UNKNOWN_WORD_DISTANCE)]
    found.sort()
    return [(cand, d) for d, _, cand in found[:CANDIDATES_PER_WORD]]


def _running_sums(words: list[str], lexicon: Lexicon, freq: float = 0.0, bigram: float = 0.0,
                  prev: str | None = None) -> tuple[float, float]:
    """The log1p word-frequency and bigram-count sums of `words`, added left to
    right onto `freq` and `bigram`, the sums of a string ending in `prev`.

    The one definition of the score's sums: the beam carries them and adds
    one word's terms per step, which gives the same bits as summing a whole
    string from the start.
    """
    for w in words:
        freq += math.log1p(lexicon.words.get(w, 0))
        if prev is not None:
            bigram += math.log1p(lexicon.bigrams.get((prev, w), 0))
        prev = w
    return freq, bigram


def _bigram_score(words: list[str], lexicon: Lexicon) -> float:
    return _running_sums(words, lexicon)[1]


def _string_score(words: list[str], lexicon: Lexicon) -> float:
    """Higher is better: log1p word frequencies plus weighted bigram counts."""
    freq, bigram = _running_sums(words, lexicon)
    return freq + BIGRAM_WEIGHT * bigram


def normalize(text: str) -> str:
    """The text's words, uppercased and joined by single spaces; only ASCII
    whitespace separates words."""
    return " ".join(ascii_words(text.upper()))


def correct_offline(text: str, lexicon: Lexicon) -> CorrectionResult:
    """Top-3 whole-string corrections; deterministic for a given lexicon.

    Each distinct string keeps its least beam distance and ranks by
    (distance, -score, string). With fewer than three strings the best repeats.
    """
    norm = normalize(text)
    if not norm:
        raise ValueError("cannot correct empty text")
    per_word = [word_candidates(w, lexicon) for w in norm.split(" ")]

    # Beam over the per-word candidate lists, keyed by (distance sum, -score);
    # each entry carries its string's running sums, so a grown string adds
    # one word's terms.
    beam: list[tuple[int, list[str], float, float]] = [(0, [], 0.0, 0.0)]
    for choices in per_word:
        grown = [(dist + d, words + [cand],
                  *_running_sums([cand], lexicon, freq, bigram, words[-1] if words else None))
                 for dist, words, freq, bigram in beam for cand, d in choices]
        grown.sort(key=lambda s: (s[0], -(s[2] + BIGRAM_WEIGHT * s[3]), " ".join(s[1])))
        beam = grown[:BEAM_WIDTH]

    # Reorder pass: adjacent swaps that strictly raise the bigram score.
    least: dict[str, int] = {}
    for dist, words, _, _ in beam:
        variants = [words]
        base = _bigram_score(words, lexicon)
        for i in range(len(words) - 1):
            swapped = words[:i] + [words[i + 1], words[i]] + words[i + 2 :]
            if _bigram_score(swapped, lexicon) > base:
                variants.append(swapped)
        for v in variants:
            s = " ".join(v)
            least[s] = min(dist, least.get(s, dist))

    ranked = sorted(least, key=lambda s: (least[s], -_string_score(s.split(" "), lexicon), s))
    return CorrectionResult(candidates=tuple((ranked + ranked[:1] * 2)[:3]), source="offline")


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
    import urllib.error  # here, so that ssl and http.client load only for a remote corrector
    import urllib.request

    norm = normalize(text)
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
    cands = tuple(" ".join(ascii_words(upper_ascii(c))) for c in data)  # not normalize: ß -> SS
    if any(not c for c in cands):
        raise ProtocolError(f"empty candidate in corrector response: {data!r}")
    bad = sorted(set("".join(cands)) - SIGNABLE)
    if bad:
        raise ProtocolError(f"unsignable characters {bad} in corrector response: {data!r}")
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
