import functools
import json
import os
import resource
import string
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signpipe import datagen, textcorrect
from signpipe.datagen import PHRASES
from signpipe.rng import substream

from conftest import MALFORMED_REPLIES


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
    # patterns of 1-150 characters span several integer digits of the bit
    # vector; a base word with 0-3 random edits keeps the distance near the
    # caps, where the lower bound stops the loop or just fails to
    letters = list("ABCDE")
    for _ in range(200):
        a = "".join(rng.choice(letters, rng.integers(1, 151)))
        b = list(a)
        for _ in range(rng.integers(0, 4)):
            op, i = rng.integers(0, 4), int(rng.integers(0, len(b)))
            if op == 0:
                b.insert(i, str(rng.choice(letters)))
            elif op == 1:
                del b[i]
            elif op == 2:
                b[i] = str(rng.choice(letters))
            elif i + 1 < len(b):
                b[i], b[i + 1] = b[i + 1], b[i]
        b = "".join(b)
        want = reference_osa(a, b)
        for cap in (None, 0, 2, 3):
            expected = want if cap is None else min(want, cap + 1)
            assert textcorrect.damerau_levenshtein(a, b, cap=cap) == expected, (a, b, cap)
            assert textcorrect.damerau_levenshtein(b, a, cap=cap) == expected, (b, a, cap)


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
    # long pairs of equal length: the lower bound exceeds the cap within a few letters
    letters = list(string.ascii_uppercase)
    a, b = ("".join(substream(seed, "thirty").choice(letters, 30)) for seed in (1, 2))
    word = "".join(substream(3, "sixty-four").choice(letters, 64))
    for x, y in ((a, b), (word, word[::-1])):
        assert reference_osa(x, y) > 2
        assert dl(x, y, cap=2) == dl(y, x, cap=2) == 3
    with pytest.raises(ValueError, match="cap must be >= 0"):
        dl("AB", "CD", cap=-1)
    with pytest.raises(ValueError, match="cap must be >= 0"):
        dl("", "", cap=-3)


def one_letter_changed(word: str, at: int) -> str:
    return word[:at] + ("A" if word[at] != "A" else "B") + word[at + 1 :]


def test_capped_distance_of_long_words_fills_only_the_band():
    word = "".join(substream(5, "long-word").choice(list(string.ascii_uppercase), 20_000))
    # a near pair runs through: 20,000 steps on 20,000-bit integers
    start = time.perf_counter()
    assert textcorrect.damerau_levenshtein(word, one_letter_changed(word, 10_000), cap=2) == 1
    assert time.perf_counter() - start < 1.0
    # a word against its reverse: the lower bound exceeds the cap within a few letters
    start = time.perf_counter()
    assert textcorrect.damerau_levenshtein(word, word[::-1], cap=2) == 3
    assert time.perf_counter() - start < 1.0


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


def test_lexicon_splits_phrases_as_normalize_splits_text():
    # only ASCII whitespace separates words, in the lexicon as in a query
    lex = textcorrect.Lexicon.from_phrases(["HI\u00a0THERE\tYOU"])
    assert lex.words == {"HI\u00a0THERE": 1, "YOU": 1}
    assert lex.bigrams == {("HI\u00a0THERE", "YOU"): 1}
    assert textcorrect.correct_offline("hi\u00a0there you", lex).candidates[0] == "HI\u00a0THERE YOU"


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


def reference_word_candidates(word, lexicon):
    """word_candidates as a scan over every lexicon word, kept as an oracle."""
    found = []
    for cand, freq in lexicon.words.items():
        d = textcorrect.damerau_levenshtein(word, cand, cap=textcorrect.MAX_WORD_DISTANCE)
        if d <= textcorrect.MAX_WORD_DISTANCE:
            found.append((d, -freq, cand))
    if not found:
        return [(word, textcorrect.UNKNOWN_WORD_DISTANCE)]
    found.sort()
    return [(cand, d) for d, _, cand in found[: textcorrect.CANDIDATES_PER_WORD]]


CORPUS_WORDS = sorted(textcorrect.Lexicon.from_phrases(list(PHRASES)).words)


@st.composite
def edited(draw, word, alphabet):
    """A drawn word with 0-3 random deletions, insertions, substitutions or transpositions."""
    chars = list(draw(word))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["delete", "insert", "substitute", "transpose"]))
        if op == "insert":
            chars.insert(draw(st.integers(0, len(chars))), draw(st.sampled_from(alphabet)))
        elif chars:
            i = draw(st.integers(0, len(chars) - 1))
            if op == "delete":
                del chars[i]
            elif op == "substitute":
                chars[i] = draw(st.sampled_from(alphabet))
            elif i + 1 < len(chars):
                chars[i], chars[i + 1] = chars[i + 1], chars[i]
    return "".join(chars)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(word=edited(st.sampled_from(CORPUS_WORDS), string.ascii_uppercase)
       | st.text(alphabet=string.ascii_uppercase + "'-1\u00c9", max_size=12))
def test_word_candidates_match_scan(lexicon, word):
    assert textcorrect.word_candidates(word, lexicon) == reference_word_candidates(word, lexicon)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_word_candidates_match_scan_on_small_lexicons(data):
    # a three-letter alphabet and frequencies 1-2 make equal distances and
    # equal frequencies common, so the alphabetical tie rule decides often;
    # a drawn index bound splits the lexicon into indexed and measured words
    words = data.draw(st.dictionaries(st.text("ABC", min_size=1, max_size=6), st.integers(1, 2),
                                      min_size=1, max_size=12))
    word = data.draw(edited(st.sampled_from(sorted(words)), "ABCD") | st.text("ABCD", max_size=9))
    with mock.patch.object(textcorrect, "MAX_INDEXED_LENGTH", data.draw(st.integers(0, 6))):
        lex = textcorrect.Lexicon(words=words, bigrams={})
        assert textcorrect.word_candidates(word, lex) == reference_word_candidates(word, lex)


def test_word_candidates_checks_few_words(lexicon, monkeypatch):
    calls = []
    distance = textcorrect.damerau_levenshtein

    def counted(a, b, cap=None):
        calls.append(b)
        return distance(a, b, cap)

    want = reference_word_candidates("HELLO", lexicon)
    monkeypatch.setattr(textcorrect, "damerau_levenshtein", counted)
    assert textcorrect.word_candidates("HELLO", lexicon) == want
    # the scan measures all 386 lexicon words; the index hands over a dozen
    assert len(lexicon.words) == 386
    assert len(calls) <= 36


def no_deletes(word):
    raise AssertionError(f"deletions generated for a {len(word)}-letter word")


def test_over_long_word_returns_before_any_deletion(lexicon, monkeypatch):
    word = "".join(substream(5, "long-word").choice(list(string.ascii_uppercase), 20_000))
    monkeypatch.setattr(textcorrect, "_deletes", no_deletes)
    start = time.perf_counter()
    assert textcorrect.word_candidates(word, lexicon) == [(word, textcorrect.UNKNOWN_WORD_DISTANCE)]
    assert time.perf_counter() - start < 1.0


def test_index_bound_splits_indexed_and_measured_words(monkeypatch):
    letters = list("ABCDEFGH")
    indexed = "".join(substream(7, "indexed").choice(letters, textcorrect.MAX_INDEXED_LENGTH))
    long = indexed + "XYZ"
    lex = textcorrect.Lexicon(words={indexed: 1, long: 1}, bigrams={})
    assert lex.unindexed == [long]
    assert long not in {w for ws in lex.deletes.values() for w in ws}
    # two letters longer than the longest indexed word still reach it
    assert textcorrect.word_candidates(indexed + "XY", lex) == [(long, 1), (indexed, 2)]
    # one letter more and only the measured long word is compared
    monkeypatch.setattr(textcorrect, "_deletes", no_deletes)
    assert textcorrect.word_candidates(long + "Q", lex) == [(long, 1)]
    over = indexed + "QQQ"
    assert textcorrect.word_candidates(over, lex) == [(over, textcorrect.UNKNOWN_WORD_DISTANCE)]


def _limit_memory():
    # deleting from a long word unbounded builds millions of long strings:
    # this process fails on its own address-space limit instead of filling
    # the machine
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def run_correct(*args):
    """`signpipe correct` in a subprocess under a time and memory limit: its exit code and lines."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-m", "signpipe.cli", "correct", *args],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
    )
    return result.returncode, result.stdout.splitlines(), result.stderr[-2000:]


LONG_WORD = "".join(substream(6, "long-word").choice(list(string.ascii_uppercase), 20_000))


def test_importing_the_cli_loads_no_http_or_ssl():
    # urllib.request pulls in ssl, http.client and email; only a remote
    # corrector needs them.
    root = Path(__file__).resolve().parents[1]
    code = "import sys, signpipe.cli; print([m for m in ('ssl', 'urllib.request') if m in sys.modules])"
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(root / "src")),
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def test_correct_cli_with_an_over_long_word_exits_0():
    assert run_correct("--text", LONG_WORD) == (0, [f"{i}. {LONG_WORD}" for i in (1, 2, 3)], "")


def test_correct_cli_with_an_over_long_lexicon_word_exits_0(tmp_path):
    other = "".join(substream(7, "long-word").choice(list(string.ascii_uppercase), 20_000))
    phrases = tmp_path / "phrases.txt"
    phrases.write_text(f"HELLO WORLD\n{other}\n")
    assert run_correct("--phrases", str(phrases), "--text", f"HELO {LONG_WORD}") == (
        0, [f"{i}. HELLO {LONG_WORD}" for i in (1, 2, 3)], "")


def test_correct_cli_with_a_long_word_near_a_long_lexicon_word_exits_0(tmp_path):
    phrases = tmp_path / "phrases.txt"
    phrases.write_text(f"HELLO WORLD\n{LONG_WORD}\n")
    near = one_letter_changed(LONG_WORD, 10_000)
    start = time.perf_counter()
    assert run_correct("--phrases", str(phrases), "--text", near) == (
        0, [f"{i}. {LONG_WORD}" for i in (1, 2, 3)], "")
    assert time.perf_counter() - start < 20.0


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


def reference_correct_offline(text, lexicon):
    """correct_offline with its earlier ranking, kept as an oracle: a
    (distance, score) pair per string, the least pair kept, and padding by a
    loop."""
    norm = " ".join(text.strip().upper().split())
    per_word = [textcorrect.word_candidates(w, lexicon) for w in norm.split()]
    beam = [(0, [])]
    for choices in per_word:
        grown = [(dist + d, words + [cand]) for dist, words in beam for cand, d in choices]
        grown.sort(key=lambda s: (s[0], -textcorrect._string_score(s[1], lexicon), " ".join(s[1])))
        beam = grown[: textcorrect.BEAM_WIDTH]
    pool = {}
    for dist, words in beam:
        variants = [words]
        base = textcorrect._bigram_score(words, lexicon)
        for i in range(len(words) - 1):
            swapped = words[:i] + [words[i + 1], words[i]] + words[i + 2 :]
            if textcorrect._bigram_score(swapped, lexicon) > base:
                variants.append(swapped)
        for v in variants:
            s = " ".join(v)
            entry = (dist, textcorrect._string_score(v, lexicon))
            if s not in pool or entry < pool[s]:
                pool[s] = entry
    ranked = sorted(pool.items(), key=lambda kv: (kv[1][0], -kv[1][1], kv[0]))
    top = [s for s, _ in ranked[:3]]
    while len(top) < 3:
        top.append(top[0])
    return tuple(top)


def test_correct_offline_matches_reference_ranking(lexicon):
    rng = substream(11, "ranking-oracle")
    texts = [datagen.corrupt_text(c, datagen.ErrorMix(), rng)[0]
             for c in datagen.sample_phrases(150, rng)]
    # two errors: the first corruption's output corrupted again, so two
    # misspelled words or a misspelling plus a word swap
    texts += [datagen.corrupt_text(datagen.corrupt_text(c, datagen.ErrorMix(), rng)[0],
                                   datagen.ErrorMix(), rng)[0]
              for c in datagen.sample_phrases(100, rng)]
    texts += ["HELLO WORLD", "ZEBRA CROSSING", "you thank", "  toy   bok ", "THANK YOU",
              "CONGRATULATONS DEAR SITSER", "HELO FREIND", "YOU THNAK", "ZEBRA BOK",
              "BOK", "HELO", "ZEBRA"]
    for text in texts:
        assert textcorrect.correct_offline(text, lexicon).candidates == \
            reference_correct_offline(text, lexicon), text
    # two distinct strings: the best one pads the third slot
    tiny = textcorrect.Lexicon(words={"CAT": 2, "CAR": 1}, bigrams={})
    assert textcorrect.correct_offline("CAX", tiny).candidates == ("CAT", "CAR", "CAT")
    assert reference_correct_offline("CAX", tiny) == ("CAT", "CAR", "CAT")


@pytest.mark.parametrize("text, norm", [
    ("  helo \t wrld\n", "HELO WRLD"), ("HI", "HI"), (" \n ", ""), ("caf\u00e9", "CAF\u00c9"),
    ("hi\u00a0you", "HI\u00a0YOU"),  # only ASCII whitespace separates words
])
def test_normalize(text, norm):
    assert textcorrect.normalize(text) == norm


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
    assert handler.seen[0]["body"] == (
        b'{"input": "HELO WRLD", "prompt": "Correct this recognized sign text, reply with '
        b'a JSON array of exactly 3 candidate strings: HELO WRLD"}'
    )


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


@pytest.mark.parametrize("cands", [
    ("HELLO 2 YOU!", "HI", "HEY"), ("HI", "HEY", "CAF\u00c9"),
    # non-ASCII that str.upper turns into letters: ß -> SS, ﬁ -> FI, ı -> I, ſ -> S
    ("HI", "STRA\u00dfE", "HEY"), ("\ufb01SH", "HI", "HEY"), ("HI", "HEY", "\u0131T"),
    ("HI", "\u017fEE", "HEY"),
    # non-ASCII spaces, which str.split takes as word breaks
    ("HI", "HELLO\u00a0WORLD", "HEY"), ("HELLO\u3000WORLD", "HI", "HEY"),
], ids=["digit-and-bang", "non-ascii", "sharp-s", "fi-ligature", "dotless-i", "long-s",
        "no-break-space", "ideographic-space"])
def test_remote_unsignable_candidate_is_protocol_error(server, cands):
    url, handler = server
    handler.script.append({"status": 200, "body": ok_body(cands)})
    cfg = textcorrect.RemoteCorrectorConfig(endpoint=url)
    with pytest.raises(textcorrect.ProtocolError, match="unsignable"):
        textcorrect.correct_remote("HI", cfg)


def test_remote_lowercase_candidates_are_uppercased(server):
    url, handler = server
    handler.script.append({"status": 200, "body": ok_body(("hello  world", " hi", "Hey"))})
    result = textcorrect.correct_remote("HI", textcorrect.RemoteCorrectorConfig(endpoint=url))
    assert result.candidates == ("HELLO WORLD", "HI", "HEY")


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


@pytest.mark.parametrize("reply, error", [
    ("non-utf8-body", textcorrect.ProtocolError),
    ("bad-status-line", textcorrect.TransportError),
    ("short-body", textcorrect.TransportError),
    ("deep-nesting", textcorrect.ProtocolError),
])
def test_remote_malformed_reply(raw_server, reply, error):
    # A reply that is not HTTP is a transport failure and is retried; an HTTP
    # reply whose body is not UTF-8 JSON is a protocol error, tried once.
    url, srv = raw_server
    srv.reply = MALFORMED_REPLIES[reply]
    cfg = textcorrect.RemoteCorrectorConfig(
        endpoint=url, max_retries=1, timeout_ms=1000, backoff_ms=10
    )
    with pytest.raises(error):
        textcorrect.correct_remote("HI", cfg)
    assert srv.requests == (2 if error is textcorrect.TransportError else 1)


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
