import multiprocessing
import os
import signal
from collections import Counter
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signpipe import forest, io
from signpipe.rng import substream

NODE_ARRAYS = ("feature", "threshold", "left", "right", "leaf_class")


@pytest.fixture(scope="module")
def deep_forest(tiny_landmarks):
    """No depth cap and no bootstrap: trees grow until leaves are pure or tiny."""
    X, y = tiny_landmarks
    hp = forest.ForestHyperparams(n_estimators=9, max_depth=None, min_samples_split=2,
                                  min_samples_leaf=1, bootstrap=False)
    return forest.train_forest(X, y, hp, seed=4), X, y


def walk(model: forest.Forest, X: np.ndarray, rows: np.ndarray, node: int, depth: int = 0):
    """Yield (node, rows, depth) for every node below `node` with the samples routed to it."""
    yield node, rows, depth
    if model.feature[node] >= 0:
        go_left = X[rows, model.feature[node]] <= model.threshold[node]
        yield from walk(model, X, rows[go_left], model.left[node], depth + 1)
        yield from walk(model, X, rows[~go_left], model.right[node], depth + 1)


def reference_votes(model: forest.Forest, X: np.ndarray) -> np.ndarray:
    """(N, n_trees) votes from a scalar walk of one row down one tree at a time."""
    votes = np.empty((len(X), len(model.trees)), dtype=np.int64)
    for i, x in enumerate(X):
        for t, root in enumerate(model.trees):
            node = root
            while model.feature[node] >= 0:
                go_left = x[model.feature[node]] <= model.threshold[node]
                node = model.left[node] if go_left else model.right[node]
            votes[i, t] = model.leaf_class[node]
    return votes


def reference_best_split(Xn: np.ndarray, yn: np.ndarray, n_classes: int, min_leaf: int):
    """The one-hot split search: per-class counts left of every cut, cumsummed directly."""
    n, m = Xn.shape
    order = np.argsort(Xn, axis=0, kind="stable")
    V = np.take_along_axis(Xn, order, axis=0)
    L = yn[order]
    onehot = np.zeros((n, m, n_classes), dtype=np.int64)
    onehot[np.arange(n)[:, None], np.arange(m)[None, :], L] = 1
    left = np.cumsum(onehot, axis=0, dtype=np.int64)
    total = left[-1]
    right = total[None, :, :] - left
    nl = np.arange(1, n + 1, dtype=np.float64)[:, None]
    nr = np.float64(n) - nl
    gl = 1.0 - (left.astype(np.float64) ** 2).sum(axis=2) / nl**2
    with np.errstate(divide="ignore", invalid="ignore"):
        gr = 1.0 - (right.astype(np.float64) ** 2).sum(axis=2) / nr**2
    weighted = (nl * gl + nr * gr) / n
    cut_ok = V[1:] > V[:-1]
    cut_ok &= (nl[:-1] >= min_leaf) & (nr[:-1] >= min_leaf)
    if not cut_ok.any():
        return None
    costs = np.where(cut_ok, weighted[:-1], np.inf)
    flat = np.argmin(costs.T.ravel())  # column-major: earliest column wins ties
    col, pos = divmod(flat, n - 1)
    return int(col), float((V[pos, col] + V[pos + 1, col]) / 2.0), float(costs[pos, col])


def reference_train_forest(X: np.ndarray, y: np.ndarray, hp: forest.ForestHyperparams,
                           seed: int) -> forest.Forest:
    """The serial loop: every tree appended to one node table in the calling process."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    table = {k: [] for k in NODE_ARRAYS}
    roots = [
        forest._grow_tree(X, y, int(y.max()) + 1, hp, substream(seed, "tree", i), table)
        for i in range(hp.n_estimators)
    ]
    return forest.Forest(
        hyperparams=hp, n_classes=int(y.max()) + 1, n_features=X.shape[1],
        trees=np.array(roots, dtype=np.int64),
        **{k: np.array(v, dtype=forest._NODE_DTYPES[k]) for k, v in table.items()},
    )


def majority_vote(votes: np.ndarray, n_classes: int | None = None) -> int:
    """Mode of a vote multiset; ties go to the lowest class index."""
    counts = np.bincount(np.asarray(votes, dtype=np.int64), minlength=n_classes or 0)
    return int(np.argmax(counts))


def test_structural_invariants(tiny_landmarks):
    X, y = tiny_landmarks
    hp = forest.ForestHyperparams(
        n_estimators=6, max_depth=4, min_samples_split=6, min_samples_leaf=2, bootstrap=False
    )
    model = forest.train_forest(X, y, hp, seed=1)
    assert len(model.trees) == 6 and model.trees[0] == 0
    ends = list(model.trees[1:]) + [len(model.feature)]
    for root, end in zip(model.trees, ends):
        seen = []
        for node, rows, depth in walk(model, X, np.arange(len(X)), root):
            seen.append(node)
            assert depth <= 4
            if model.feature[node] >= 0:
                # internal nodes split legally; children are later nodes of this tree
                assert node < model.left[node] < end and node < model.right[node] < end
                go_left = X[rows, model.feature[node]] <= model.threshold[node]
                assert go_left.sum() >= 2 and (~go_left).sum() >= 2
                assert len(rows) >= 6
            else:
                hist = np.bincount(y[rows], minlength=model.n_classes)
                assert model.leaf_class[node] == int(np.argmax(hist))
        assert sorted(seen) == list(range(root, end))  # each tree is one contiguous block


def test_pure_nodes_stop_splitting():
    X = np.array([[0.0], [0.1], [0.9], [1.0]])
    y = np.array([0, 0, 1, 1])
    hp = forest.ForestHyperparams(n_estimators=1, max_depth=None, min_samples_split=2,
                                  min_samples_leaf=1, bootstrap=False)
    model = forest.train_forest(X, y, hp, seed=0)
    # one split separates the classes; both children are pure leaves
    assert (model.feature >= 0).sum() == 1
    assert (model.feature == -1).sum() == 2


def test_single_leaf_when_no_legal_cut():
    # min_samples_leaf=2 outlaws every cut of 3 samples -> root stays a leaf
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0, 1, 1])
    hp = forest.ForestHyperparams(n_estimators=1, min_samples_split=2,
                                  min_samples_leaf=2, bootstrap=False)
    model = forest.train_forest(X, y, hp, seed=0)
    assert len(model.feature) == 1 and model.feature[0] == -1
    assert model.leaf_class[0] == 1  # mode of y
    assert np.array_equal(forest.predict_class(model, X), [1, 1, 1])


def test_best_split_prefers_earliest_feature():
    # both columns separate the classes perfectly; the tie must go to column 0
    X = np.array([[0.0, 0.0], [0.2, 0.2], [0.8, 0.8], [1.0, 1.0]])
    y = np.array([0, 0, 1, 1])
    col, thr, cost = forest._best_split(X, y, 2, 1)
    assert col == 0
    assert thr == pytest.approx(0.5)
    assert cost == pytest.approx(0.0)


def test_best_split_threshold_is_midpoint():
    X = np.array([[1.0], [3.0]])
    y = np.array([0, 1])
    col, thr, _ = forest._best_split(X, y, 2, 1)
    assert thr == pytest.approx(2.0)


def test_best_split_respects_min_leaf():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 1, 1])
    # min_leaf=2 forbids the perfect 1-vs-3 cut; best legal cut is 2-vs-2
    out = forest._best_split(X, y, 2, 2)
    assert out is not None
    _, thr, _ = out
    assert thr == pytest.approx(1.5)


@st.composite
def split_nodes(draw):
    """A node as _grow_tree hands it over: (Xn, yn, n_classes, min_leaf).

    Values are floats or small integers (many ties), rows may repeat as
    bootstrap repeats them, and the labels may miss any of the classes.
    """
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, 6))
    n_classes = draw(st.integers(2, 30))
    present = draw(st.lists(st.integers(0, n_classes - 1), min_size=1, unique=True))
    distinct = draw(st.integers(1, n))
    if draw(st.booleans()):
        values = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    else:
        values = st.integers(0, 3).map(float)
    X = np.array(draw(st.lists(st.lists(values, min_size=m, max_size=m),
                               min_size=distinct, max_size=distinct)))
    y = np.array(draw(st.lists(st.sampled_from(present), min_size=distinct, max_size=distinct)))
    rows = np.array(draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n)))
    return X[rows], y[rows], n_classes, draw(st.integers(1, 4))


@settings(max_examples=400, deadline=None)
@given(split_nodes())
@example((np.array([[1.0], [3.0]]), np.array([0, 1]), 2, 1))  # n = 2, m = 1
@example((np.array([[1.0], [3.0]]), np.array([0, 1]), 2, 2))  # no legal cut: leaves too small
@example((np.ones((5, 3)), np.array([0, 1, 0, 1, 2]), 4, 1))  # no legal cut: constant columns
@example((np.array([[0.0], [0.0], [1.0], [1.0]]), np.array([3, 3, 3, 3]), 5, 1))  # one class
def test_best_split_equals_one_hot_reference(node):
    Xn, yn, n_classes, min_leaf = node
    expected = reference_best_split(Xn, yn, n_classes, min_leaf)
    assert forest._best_split(Xn, yn, n_classes, min_leaf) == expected
    hist = np.bincount(yn, minlength=n_classes)
    assert forest._best_split(Xn, yn, n_classes, min_leaf, hist) == expected


@pytest.mark.parametrize("hp", [
    forest.ForestHyperparams(),
    forest.ForestHyperparams(n_estimators=9, max_depth=None, min_samples_split=2,
                             min_samples_leaf=1, bootstrap=False),  # deep_forest's
], ids=["default", "deep"])
def test_forest_equals_one_hot_reference_forest(monkeypatch, tiny_landmarks, hp):
    X, y = tiny_landmarks
    model = forest.train_forest(X, y, hp, seed=4)
    monkeypatch.setattr(forest, "_best_split",
                        lambda Xn, yn, n_classes, min_leaf, hist: reference_best_split(
                            Xn, yn, n_classes, min_leaf))
    expected = forest.train_forest(X, y, hp, seed=4)
    for k in ("trees",) + NODE_ARRAYS:
        assert np.array_equal(getattr(model, k), getattr(expected, k))


@pytest.mark.parametrize("cpus", [None, 1, 3], ids=["usable-cpus", "1-cpu", "3-cpus"])
@pytest.mark.parametrize("n_estimators", [1, 2, 3, 7])
@pytest.mark.parametrize("bootstrap", [True, False], ids=["bootstrap", "no-bootstrap"])
def test_forest_equals_serial_reference(monkeypatch, tmp_path, tiny_landmarks, cpus,
                                        n_estimators, bootstrap):
    # 7 trees over 3 ranges are uneven (2, 2, 3); 1 or 2 trees get fewer ranges than CPUs
    X, y = tiny_landmarks
    if cpus is not None:
        monkeypatch.setattr(forest, "_usable_cpus", lambda: cpus)
    hp = forest.ForestHyperparams(n_estimators=n_estimators, max_depth=None,
                                  min_samples_split=2, min_samples_leaf=1, bootstrap=bootstrap)
    model = forest.train_forest(X, y, hp, seed=6)
    expected = reference_train_forest(X, y, hp, seed=6)
    for k in ("trees",) + NODE_ARRAYS:
        assert getattr(model, k).dtype == getattr(expected, k).dtype
        assert np.array_equal(getattr(model, k), getattr(expected, k))
    forest.save_forest(tmp_path / "a.blk", model)
    forest.save_forest(tmp_path / "b.blk", expected)
    assert (tmp_path / "a.blk").read_bytes() == (tmp_path / "b.blk").read_bytes()
    assert multiprocessing.active_children() == []


def _failing_tree(monkeypatch, seed, bad_tree, fail):
    """Make _grow_tree call fail() on tree bad_tree of a forest grown with seed."""
    grow = forest._grow_tree
    bad_state = substream(seed, "tree", bad_tree).bit_generator.state

    def grow_or_fail(X, y, n_classes, hp, rng, table):
        if rng.bit_generator.state == bad_state:
            fail()
        return grow(X, y, n_classes, hp, rng, table)

    monkeypatch.setattr(forest, "_grow_tree", grow_or_fail)


def _raise():
    raise ArithmeticError("tree failed")


@pytest.mark.parametrize("bad_tree", [0, 2, 6], ids=["parent-range", "worker-range", "last-tree"])
def test_failing_tree_raises_its_exception_and_leaves_no_children(monkeypatch, tiny_landmarks,
                                                                  bad_tree):
    # three ranges over 7 trees: 0-1 in this process, 2-3 and 4-6 in workers
    X, y = tiny_landmarks
    monkeypatch.setattr(forest, "_usable_cpus", lambda: 3)
    _failing_tree(monkeypatch, 5, bad_tree, _raise)
    with pytest.raises(ArithmeticError, match="tree failed"):
        forest.train_forest(X, y, forest.ForestHyperparams(n_estimators=7), seed=5)
    assert multiprocessing.active_children() == []


def test_killed_worker_raises_instead_of_hanging(monkeypatch, tiny_landmarks):
    X, y = tiny_landmarks
    parent = os.getpid()

    def exit_in_worker():
        if os.getpid() != parent:
            os._exit(1)

    monkeypatch.setattr(forest, "_usable_cpus", lambda: 2)
    _failing_tree(monkeypatch, 5, 3, exit_in_worker)  # trees 2-3 grow in the worker

    def expire(signum, frame):
        raise TimeoutError("train_forest did not return within 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 30)
    try:
        with pytest.raises(BrokenProcessPool):
            forest.train_forest(X, y, forest.ForestHyperparams(n_estimators=4), seed=5)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


def test_majority_vote_brute_force(rng):
    for _ in range(1000):
        votes = rng.integers(0, 5, size=int(rng.integers(1, 12)))
        counts = Counter(votes.tolist())
        top = max(counts.values())
        expected = min(c for c, v in counts.items() if v == top)
        assert majority_vote(votes) == expected


def test_predict_proba_is_vote_fraction(tiny_forest, deep_forest):
    for model, X, _ in (tiny_forest, deep_forest):
        proba = forest.predict_proba(model, X)
        assert proba.shape == (len(X), model.n_classes)
        assert np.allclose(proba.sum(axis=1), 1.0)
        votes = reference_votes(model, X)
        expected = np.stack([np.bincount(v, minlength=model.n_classes) for v in votes])
        assert np.array_equal(proba, expected / len(model.trees))
        assert np.array_equal(forest.predict_proba(model, X[0]), proba[:1])


def test_predict_class_matches_vote(tiny_forest, deep_forest):
    for model, X, y in (tiny_forest, deep_forest):
        preds = forest.predict_class(model, X)
        votes = reference_votes(model, X)
        expected = np.array([majority_vote(v, model.n_classes) for v in votes])
        assert np.array_equal(preds, expected)
        assert (preds == y).mean() == 1.0  # separable clusters


def test_threshold_goes_left_and_ties_go_to_lowest_class():
    # two stumps over one feature: x <= 0.5 -> 2 else 1, and x <= 0.25 -> 1 else 2
    model = forest.Forest(
        hyperparams=forest.ForestHyperparams(n_estimators=2),
        n_classes=3,
        n_features=1,
        trees=np.array([0, 3]),
        feature=np.array([0, -1, -1, 0, -1, -1], dtype=np.int32),
        threshold=np.array([0.5, 0, 0, 0.25, 0, 0]),
        left=np.array([1, -1, -1, 4, -1, -1], dtype=np.int32),
        right=np.array([2, -1, -1, 5, -1, -1], dtype=np.int32),
        leaf_class=np.array([-1, 2, 1, -1, 1, 2], dtype=np.int32),
    )
    X = np.array([[0.0], [0.5], [1.0]])
    expected = [[0, 0.5, 0.5], [0, 0, 1], [0, 0.5, 0.5]]
    assert np.array_equal(forest.predict_proba(model, X), expected)
    assert np.array_equal(forest.predict_class(model, X), [1, 2, 1])


def test_training_determinism(tiny_landmarks):
    X, y = tiny_landmarks
    hp = forest.ForestHyperparams(n_estimators=5, max_depth=6)
    a = forest.train_forest(X, y, hp, seed=11)
    b = forest.train_forest(X, y, hp, seed=11)
    for k in ("trees",) + NODE_ARRAYS:
        assert np.array_equal(getattr(a, k), getattr(b, k))
    c = forest.train_forest(X, y, hp, seed=12)
    assert not np.array_equal(a.feature, c.feature)


def test_tree_streams_are_prefix_stable(tiny_landmarks):
    # tree i depends only on (seed, i): a bigger forest's table extends a smaller one's
    X, y = tiny_landmarks
    small = forest.train_forest(X, y, forest.ForestHyperparams(n_estimators=3), seed=2)
    big = forest.train_forest(X, y, forest.ForestHyperparams(n_estimators=6), seed=2)
    n = len(small.feature)
    assert np.array_equal(big.trees[:3], small.trees) and big.trees[3] == n
    for k in NODE_ARRAYS:
        assert np.array_equal(getattr(big, k)[:n], getattr(small, k))


def test_train_input_validation(tiny_landmarks):
    X, y = tiny_landmarks
    hp = forest.ForestHyperparams(n_estimators=2)
    with pytest.raises(ValueError):
        forest.train_forest(X[:5], np.zeros(5, dtype=np.int64), hp, seed=0)
    with pytest.raises(ValueError):
        forest.train_forest(X[:3], y[:3], forest.ForestHyperparams(min_samples_split=10), seed=0)


def test_hyperparam_validation():
    with pytest.raises(ValueError):
        forest.ForestHyperparams(n_estimators=0)
    with pytest.raises(ValueError):
        forest.ForestHyperparams(min_samples_leaf=0)
    with pytest.raises(ValueError):
        forest.ForestHyperparams(max_depth=0)
    assert forest.ForestHyperparams(max_depth=None).max_depth is None


def test_save_load_roundtrip(tmp_path, tiny_forest):
    model, X, _ = tiny_forest
    path = tmp_path / "f.blk"
    forest.save_forest(path, model)
    loaded = forest.load_forest(path)
    assert loaded.n_classes == model.n_classes
    assert loaded.n_features == model.n_features
    assert loaded.hyperparams == model.hyperparams
    for k in ("trees",) + NODE_ARRAYS:
        assert getattr(loaded, k).dtype == getattr(model, k).dtype
        assert np.array_equal(getattr(loaded, k), getattr(model, k))
    assert np.array_equal(forest.predict_class(loaded, X), forest.predict_class(model, X))
    proba_a = forest.predict_proba(loaded, X)
    proba_b = forest.predict_proba(model, X)
    assert np.array_equal(proba_a, proba_b)


def test_save_deterministic_bytes(tmp_path, tiny_forest):
    model, _, _ = tiny_forest
    forest.save_forest(tmp_path / "a.blk", model)
    forest.save_forest(tmp_path / "b.blk", model)
    assert (tmp_path / "a.blk").read_bytes() == (tmp_path / "b.blk").read_bytes()


def test_save_load_save_is_byte_identical(tmp_path, deep_forest):
    model, _, _ = deep_forest
    forest.save_forest(tmp_path / "a.blk", model)
    forest.save_forest(tmp_path / "b.blk", forest.load_forest(tmp_path / "a.blk"))
    assert (tmp_path / "a.blk").read_bytes() == (tmp_path / "b.blk").read_bytes()


def test_file_layout_is_the_node_table(tmp_path, tiny_forest):
    model, _, _ = tiny_forest
    forest.save_forest(tmp_path / "f.blk", model)
    meta, arrays = io.read_blocks(tmp_path / "f.blk")
    assert meta["schema"] == "forest/2" and meta["n_trees"] == len(model.trees)
    assert set(arrays) == {"offsets", *NODE_ARRAYS}
    assert np.array_equal(arrays["offsets"], [*model.trees, len(model.feature)])
    for k in NODE_ARRAYS:
        assert np.array_equal(arrays[k], getattr(model, k))


def test_load_rejects_forest_v1(tmp_path, tiny_forest):
    # the old layout: same arrays, but children counted from their tree's root
    model, _, _ = tiny_forest
    forest.save_forest(tmp_path / "f.blk", model)
    meta, arrays = io.read_blocks(tmp_path / "f.blk")
    roots = np.repeat(model.trees, np.diff(arrays["offsets"]))
    split = model.feature >= 0
    for k in ("left", "right"):
        arrays[k] = np.where(split, arrays[k] - roots, -1).astype(np.int32)
    arrays["leaf_count"] = np.zeros(len(model.feature), dtype=np.int64)
    meta["schema"] = "forest/1"
    io.write_blocks(tmp_path / "v1.blk", meta, arrays)
    with pytest.raises(ValueError, match="forest/1"):
        forest.load_forest(tmp_path / "v1.blk")


def test_load_rejects_child_in_another_tree(tmp_path, tiny_forest):
    # a later node, but the next tree's root: a tree-local bound would miss it
    model, _, _ = tiny_forest
    forest.save_forest(tmp_path / "f.blk", model)
    meta, arrays = io.read_blocks(tmp_path / "f.blk")
    assert arrays["feature"][0] >= 0
    arrays["left"][0] = model.trees[1]
    io.write_blocks(tmp_path / "bad.blk", meta, arrays)
    with pytest.raises(ValueError, match="left child of node 0"):
        forest.load_forest(tmp_path / "bad.blk")


def test_grid_search_reduced_space(tiny_landmarks):
    X, y = tiny_landmarks
    space = {
        "n_estimators": (2, 4),
        "max_depth": (None, 4),
        "min_samples_split": (2,),
        "min_samples_leaf": (1,),
        "bootstrap": (True,),
    }
    best, rows = forest.grid_search(X, y, search_space=space, k=3, seed=5)
    assert len(rows) == 4
    for row in rows:
        assert set(row) >= {"n_estimators", "max_depth", "mean_accuracy", "fold_accuracies"}
        assert len(row["fold_accuracies"]) == 3
        assert row["mean_accuracy"] == pytest.approx(
            float(np.mean(row["fold_accuracies"]))
        )
    best_mean = max(r["mean_accuracy"] for r in rows)
    # ties break to the earliest enumerated config
    first = next(r for r in rows if r["mean_accuracy"] == best_mean)
    assert best.n_estimators == first["n_estimators"]
    assert best.max_depth == first["max_depth"]


def test_grid_search_default_space_is_pinned():
    space = forest.SEARCH_SPACE
    sizes = [len(v) for v in space.values()]
    assert sorted(sizes) == [2, 3, 3, 3, 4]
    assert int(np.prod(sizes)) == 216
    assert space["n_estimators"] == (100, 200, 300)
    assert space["max_depth"] == (None, 10, 20, 30)
    assert space["min_samples_split"] == (2, 5, 10)
    assert space["min_samples_leaf"] == (1, 2, 4)
    assert space["bootstrap"] == (True, False)


def test_grid_search_validation(tiny_landmarks):
    X, y = tiny_landmarks
    with pytest.raises(ValueError):
        forest.grid_search(X, y, k=1)
    with pytest.raises(ValueError):
        forest.grid_search(X[:2], y[:2], k=3)


def test_default_hyperparams_are_tuned_best():
    hp = forest.ForestHyperparams()
    assert (hp.n_estimators, hp.max_depth, hp.min_samples_split,
            hp.min_samples_leaf, hp.bootstrap) == (200, 20, 5, 2, True)


def test_grid_search_prefix_scores_equal_separate_forests(tiny_landmarks):
    # scoring the first s trees of the largest forest == growing an s-tree forest
    X, y = tiny_landmarks
    space = {"n_estimators": (1, 3), "max_depth": (2,)}
    _, rows = forest.grid_search(X, y, search_space=space, k=3, seed=8)
    folds = np.array_split(substream(8, "cv").permutation(len(X)), 3)
    for row in rows:
        hp = forest.ForestHyperparams(n_estimators=row["n_estimators"], max_depth=2)
        accs = []
        for fold in folds:
            mask = np.ones(len(X), dtype=bool)
            mask[fold] = False
            model = forest.train_forest(X[mask], y[mask], hp, seed=8)
            accs.append(float(np.mean(forest.predict_class(model, X[fold]) == y[fold])))
        assert row["fold_accuracies"] == accs
