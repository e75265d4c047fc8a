import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signpipe import ensemble
from signpipe.labels import (
    BLANK,
    CNN_CLASSES,
    DELETE,
    LETTERS,
    RFC_CLASSES,
    SHARED_CLASSES,
    SHARED_INDEX,
    SPACE,
)
from signpipe.rng import substream


def test_label_spaces():
    assert len(LETTERS) == 26
    assert RFC_CLASSES == LETTERS + (SPACE, DELETE)
    assert CNN_CLASSES == LETTERS + (BLANK,)
    assert SHARED_CLASSES == LETTERS + (SPACE, DELETE, BLANK)
    assert len(set(SHARED_CLASSES)) == 29
    assert list(LETTERS) == sorted(LETTERS)


def dist(n, hot, p=1.0):
    out = np.zeros(n)
    out[hot] = p
    rest = (1.0 - p) / (n - 1)
    out[np.arange(n) != hot] = rest
    return out


def test_projections_zero_pad_without_renormalizing():
    p28 = dist(28, 3, 0.7)
    proj = ensemble.project_rfc(p28[None])[0]
    assert proj.shape == (29,)
    assert np.array_equal(proj[:28], p28)
    assert proj[28] == 0.0  # BLANK gets no RFC mass

    p27 = dist(27, 26, 0.9)  # CNN BLANK slot
    proj = ensemble.project_cnn(p27[None])[0]
    assert proj.shape == (29,)
    assert np.array_equal(proj[:26], p27[:26])
    assert proj[26] == 0.0 and proj[27] == 0.0  # SPACE/DELETE get no CNN mass
    assert proj[SHARED_INDEX[BLANK]] == p27[26]


def test_combine_hand_oracle():
    # w=(0.6,0.4), P_RFC(A)=0.5, P_CNN(A)=0.25 -> P(A)=0.40
    p_rfc = np.full((1, 29), (1 - 0.5) / 28)
    p_rfc[0, 0] = 0.5
    p_cnn = np.full((1, 29), (1 - 0.25) / 28)
    p_cnn[0, 0] = 0.25
    out = ensemble.combine(p_rfc, p_cnn, ensemble.EnsembleWeights(0.6, 0.4))
    assert out[0, 0] == pytest.approx(0.40)
    assert out.sum() == pytest.approx(1.0)


def test_combine_endpoints(rng):
    p_rfc = rng.dirichlet(np.ones(29), size=4)
    p_cnn = rng.dirichlet(np.ones(29), size=4)
    assert np.allclose(
        ensemble.combine(p_rfc, p_cnn, ensemble.EnsembleWeights(1.0, 0.0)), p_rfc
    )
    assert np.allclose(
        ensemble.combine(p_rfc, p_cnn, ensemble.EnsembleWeights(0.0, 1.0)), p_cnn
    )


def test_combine_identical_inputs_fixed_point(rng):
    p = rng.dirichlet(np.ones(29), size=3)
    for w in (0.0, 0.3, 1.0):
        out = ensemble.combine(p, p, ensemble.EnsembleWeights(w, 1.0 - w))
        assert np.allclose(out, p)


def test_combine_swap_symmetry(rng):
    p_a = rng.dirichlet(np.ones(29), size=5)
    p_b = rng.dirichlet(np.ones(29), size=5)
    w = ensemble.EnsembleWeights(0.7, 0.3)
    w_swapped = ensemble.EnsembleWeights(0.3, 0.7)
    a = ensemble.combine(p_a, p_b, w)
    b = ensemble.combine(p_b, p_a, w_swapped)
    assert np.allclose(a, b)


def test_combine_rejects_mismatched_spaces(rng):
    with pytest.raises(ValueError):
        ensemble.combine(np.ones((1, 28)) / 28, np.ones((1, 29)) / 29,
                         ensemble.EnsembleWeights(0.5, 0.5))


def test_weights_validation():
    with pytest.raises(ValueError):
        ensemble.EnsembleWeights(0.6, 0.6)
    with pytest.raises(ValueError):
        ensemble.EnsembleWeights(-0.1, 1.1)


def test_optimize_weights_dominant_model(rng):
    # optimize_weights takes raw (N, 28) and (N, 27) model outputs
    n = 40
    y = rng.integers(0, 28, n)  # RFC-expressible shared classes
    p_rfc = np.zeros((n, 28))
    p_rfc[np.arange(n), y] = 1.0  # RFC perfect
    p_cnn = rng.dirichlet(np.ones(27), size=n)  # CNN noise
    w, accs = ensemble.optimize_weights(p_rfc, p_cnn, y)
    assert w.w_rfc == 1.0
    assert len(accs) == 21
    assert accs[-1] == 1.0


def test_optimize_weights_all_tie_prefers_rfc(rng):
    # letter-only mass makes both projections identical, so every w ties
    q = rng.dirichlet(np.ones(26), size=10)
    p_rfc = np.concatenate([q, np.zeros((10, 2))], axis=1)
    p_cnn = np.concatenate([q, np.zeros((10, 1))], axis=1)
    y = np.argmax(q, axis=1)
    w, accs = ensemble.optimize_weights(p_rfc, p_cnn, y)
    assert w.w_rfc == 1.0
    assert all(a == 1.0 for a in accs)


def test_optimize_weights_never_below_endpoints(rng):
    for trial in range(5):
        r = substream(50, "opt", trial)
        y = r.integers(0, 29, 30)
        p_rfc = r.dirichlet(np.ones(28), size=30)
        p_cnn = r.dirichlet(np.ones(27), size=30)
        w, accs = ensemble.optimize_weights(p_rfc, p_cnn, y)
        best = ensemble.combine(ensemble.project_rfc(p_rfc), ensemble.project_cnn(p_cnn), w)
        acc = float(np.mean(np.argmax(best, axis=1) == y))
        assert acc >= max(accs[0], accs[-1])


def reference_optimize_weights(p_rfc, p_cnn, y_true):
    """optimize_weights as a running best over the grid, kept as an oracle."""
    y_true = np.asarray(y_true, dtype=np.int64)
    accuracies = []
    best_w = ensemble.WEIGHT_GRID[0]
    best_acc = -1.0
    for w_rfc in ensemble.WEIGHT_GRID:
        w = ensemble.EnsembleWeights(w_rfc=w_rfc, w_cnn=round(1.0 - w_rfc, 2))
        acc = float(np.mean(ensemble.recognize(p_rfc, p_cnn, w) == y_true))
        accuracies.append(acc)
        if acc >= best_acc:  # >= so later (larger) w_rfc wins ties
            best_acc = acc
            best_w = w_rfc
    return ensemble.EnsembleWeights(w_rfc=best_w, w_cnn=round(1.0 - best_w, 2)), accuracies


# Coarse masses make many frames flip at the same weight, and at most 8 frames
# give at most 9 distinct accuracies, so every 21-point grid holds ties.
coarse_mass = st.sampled_from([0.0, 0.25, 0.5, 1.0])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_optimize_weights_matches_running_best(data):
    n = data.draw(st.integers(1, 8))
    p_rfc = np.array(data.draw(st.lists(st.lists(coarse_mass, min_size=28, max_size=28),
                                        min_size=n, max_size=n)))
    p_cnn = np.array(data.draw(st.lists(st.lists(coarse_mass, min_size=27, max_size=27),
                                        min_size=n, max_size=n)))
    y = np.array(data.draw(st.lists(st.integers(0, 28), min_size=n, max_size=n)))
    got = ensemble.optimize_weights(p_rfc, p_cnn, y)
    assert len(set(got[1])) < len(got[1])
    assert got == reference_optimize_weights(p_rfc, p_cnn, y)


def test_optimize_weights_empty_errors():
    with pytest.raises(ValueError):
        ensemble.optimize_weights(np.zeros((0, 28)), np.zeros((0, 27)), np.zeros(0, dtype=int))


def head_distributions(n_classes: int):
    """Rows of forest-style vote fractions k/n_trees, where exact ties are
    common, or of normalized floats."""
    votes = st.integers(1, 8).flatmap(
        lambda n_trees: st.lists(st.integers(0, n_classes - 1), min_size=n_trees, max_size=n_trees)
        .map(lambda v: np.bincount(v, minlength=n_classes) / n_trees)
    )
    floats = (
        st.lists(st.floats(0.0, 1.0), min_size=n_classes, max_size=n_classes)
        .filter(lambda v: sum(v) > 0)
        .map(lambda v: np.array(v) / sum(v))
    )
    return st.one_of(votes, floats)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n=st.integers(1, 4),
       w_rfc=st.one_of(st.sampled_from(ensemble.WEIGHT_GRID), st.floats(0.0, 1.0)))
def test_recognize_equals_project_combine_argmax(data, n, w_rfc):
    # the open-coded chain that single-row live recognition and criterion 6 keep
    p_rfc = np.stack([data.draw(head_distributions(len(RFC_CLASSES))) for _ in range(n)])
    p_cnn = np.stack([data.draw(head_distributions(len(CNN_CLASSES))) for _ in range(n)])
    w = ensemble.EnsembleWeights(w_rfc, 1.0 - w_rfc)
    chain = np.argmax(
        ensemble.combine(ensemble.project_rfc(p_rfc), ensemble.project_cnn(p_cnn), w), axis=1
    )
    got = ensemble.recognize(p_rfc, p_cnn, w)
    assert got.shape == (n,) and got.dtype == np.int64
    assert np.array_equal(got, chain)


@pytest.mark.parametrize("rfc_class, cnn_class, winner", [
    ("C", "B", "B"),
    (SPACE, BLANK, SPACE),  # a space frame: the forest sees SPACE, the CNN BLANK
])
def test_recognize_breaks_ties_toward_the_lowest_index(rfc_class, cnn_class, winner):
    p_rfc = np.zeros((1, len(RFC_CLASSES)))
    p_rfc[0, RFC_CLASSES.index(rfc_class)] = 1.0
    p_cnn = np.zeros((1, len(CNN_CLASSES)))
    p_cnn[0, CNN_CLASSES.index(cnn_class)] = 1.0
    got = ensemble.recognize(p_rfc, p_cnn, ensemble.EnsembleWeights(0.5, 0.5))
    assert got.tolist() == [SHARED_INDEX[winner]]


def test_weight_grid():
    assert ensemble.WEIGHT_GRID[0] == 0.0
    assert ensemble.WEIGHT_GRID[-1] == 1.0
    assert len(ensemble.WEIGHT_GRID) == 21
    steps = np.diff(ensemble.WEIGHT_GRID)
    assert np.allclose(steps, 0.05)


K3 = ensemble.StreamDecodeConfig(k=3)


def test_decode_single_stabilization():
    assert ensemble.decode_stream(["A", "A", "A"], K3) == "A"


def test_decode_space_separates():
    frames = ["A"] * 3 + [SPACE] * 3 + ["B"] * 3
    assert ensemble.decode_stream(frames, K3) == "A B"


def test_decode_delete_removes_last():
    frames = ["A"] * 3 + ["B"] * 3 + [DELETE] * 3
    assert ensemble.decode_stream(frames, K3) == "A"


def test_decode_repeat_suppression():
    # a held gesture stabilizes repeatedly but emits once
    assert ensemble.decode_stream(["A"] * 12, K3) == "A"
    # BLANK resets suppression, allowing a double letter
    frames = ["A"] * 3 + [BLANK] * 3 + ["A"] * 3
    assert ensemble.decode_stream(frames, K3) == "AA"
    # an intervening different letter also re-arms the repeat
    frames = ["A"] * 3 + ["B"] * 3 + ["A"] * 3
    assert ensemble.decode_stream(frames, K3) == "ABA"


def test_decode_short_runs_ignored():
    frames = ["A", "A", "B", "B", "A", "A"]  # nothing reaches k=3
    assert ensemble.decode_stream(frames, K3) == ""


def test_decode_delete_on_empty_is_noop():
    assert ensemble.decode_stream([DELETE] * 6, K3) == ""
    frames = [DELETE] * 3 + ["C"] * 3
    assert ensemble.decode_stream(frames, K3) == "C"


def test_decode_blank_emits_nothing():
    frames = [BLANK] * 9 + ["X"] * 3
    assert ensemble.decode_stream(frames, K3) == "X"


def test_decode_length_bound(rng):
    for trial in range(20):
        r = substream(60, "decode", trial)
        frames = [SHARED_CLASSES[i] for i in r.integers(0, 29, 50)]
        k = int(r.integers(1, 5))
        out = ensemble.decode_stream(frames, ensemble.StreamDecodeConfig(k=k))
        assert len(out) <= len(frames) // k


def test_decode_k1_every_frame_counts():
    out = ensemble.decode_stream(["A", "B", SPACE, "C"], ensemble.StreamDecodeConfig(k=1))
    assert out == "AB C"


def test_decode_rejects_unknown_class():
    with pytest.raises(ValueError):
        ensemble.decode_stream(["A", "??", "A"], K3)


def test_decode_config_validation():
    with pytest.raises(ValueError):
        ensemble.StreamDecodeConfig(k=0)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(SHARED_CLASSES), max_size=60), st.integers(1, 8))
def test_decode_any_stream_stays_in_alphabet_and_bound(frames, k):
    out = ensemble.decode_stream(frames, ensemble.StreamDecodeConfig(k=k))
    assert set(out) <= set(LETTERS) | {" "}
    assert len(out) <= len(frames) // k


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=LETTERS + (" ",), max_size=20), st.integers(1, 5))
def test_decode_round_trips_held_characters(text, k):
    # each character held k frames, k BLANK frames between characters;
    # the BLANKs re-arm repeat suppression, so doubled letters survive
    frames = []
    for i, ch in enumerate(text):
        if i:
            frames += [BLANK] * k
        frames += [SPACE if ch == " " else ch] * k
    assert ensemble.decode_stream(frames, ensemble.StreamDecodeConfig(k=k)) == text
