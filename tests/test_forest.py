import itertools
import multiprocessing
import os
import re
import signal
import tempfile
import tracemalloc
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signpipe import datagen, forest, io
from signpipe.forest import _NODE_ARRAYS, ForestHyperparams
from signpipe.rng import substream

NODE_ARRAYS = ("feature", "threshold", "right", "leaf_class")


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
        yield from walk(model, X, rows[go_left], model.right[node] - 1, depth + 1)
        yield from walk(model, X, rows[~go_left], model.right[node], depth + 1)


def reference_votes(model: forest.Forest, X: np.ndarray) -> np.ndarray:
    """(N, n_trees) votes from a scalar walk of one row down one tree at a time."""
    votes = np.empty((len(X), len(model.trees)), dtype=np.int64)
    for i, x in enumerate(X):
        for t, root in enumerate(model.trees):
            node = root
            while model.feature[node] >= 0:
                go_left = x[model.feature[node]] <= model.threshold[node]
                node = model.right[node] - 1 if go_left else model.right[node]
            votes[i, t] = model.leaf_class[node]
    return votes


def reference_leaf_classes(model: forest.Forest, X: np.ndarray) -> np.ndarray:
    """(N, n_trees) votes from the walk that drops finished pairs on every level."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n_trees = len(model.trees)
    node = np.tile(model.trees, len(X))
    live = np.arange(len(node))
    while len(live):
        cur = node[live]
        feat = model.feature[cur]
        split = feat >= 0
        live, cur, feat = live[split], cur[split], feat[split]
        go_left = X[live // n_trees, feat] <= model.threshold[cur]
        node[live] = np.where(go_left, model.right[cur] - 1, model.right[cur])
    return model.leaf_class[node].reshape(len(X), n_trees)


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


# The serial oracle: forest.py's per-node split search and one-tree-at-a-time
# growth from before trees grew in lockstep, kept verbatim.
def _best_split(Xn: np.ndarray, yn: np.ndarray, n_classes: int, min_leaf: int, hist: np.ndarray):
    """Best (column, threshold, weighted Gini) over the given feature columns.

    Ties resolve to the earliest column, then the lowest threshold. Returns
    None when no split satisfies the leaf-size constraint. `hist` is the
    node's class histogram T, np.bincount(yn, minlength=n_classes).

    Gini needs only the sum of squared class counts on each side of a cut.
    In value order, the i-th sample's class already has k_i samples before
    it, so taking it in raises the left sum by 2*k_i + 1. With l the left
    class counts, the right sum is sum((T - l)^2) = sum(T^2) - 2*sum(T*l)
    + sum(l^2), and sum(T*l) is a running sum of T[label]. Both sums are
    integers far below 2**53, so in float64 they equal the summed squares
    of per-class counts exactly: every cost, and so every tie, is the one
    a per-class count table gives.
    """
    n, m = Xn.shape
    cols = np.arange(m)
    # The order among equal values is free: a legal cut falls between two
    # distinct values, so the samples left of it are the same set either way.
    order = np.argsort(Xn, axis=0)
    V = Xn[order, cols]
    L = yn[order]
    # k: earlier samples in the same column with the same class. A stable
    # sort by class keeps each class's samples in value order, and every
    # column holds all the node's samples, so in class order the r-th
    # sample of every column has k = r - (samples of lower classes). The
    # smallest unsigned key type makes this sort a radix sort.
    by_class = np.argsort(L.astype(np.min_scalar_type(n_classes - 1)), axis=0, kind="stable")
    k = np.empty((n, m), dtype=np.int64)
    k[by_class, cols] = (np.arange(n) - np.repeat(np.cumsum(hist) - hist, hist))[:, None]
    sq_left = np.cumsum(2 * k + 1, axis=0)
    sq_right = np.dot(hist, hist) - 2 * np.cumsum(hist[L], axis=0) + sq_left
    nl = np.arange(1, n + 1, dtype=np.float64)[:, None]
    nr = np.float64(n) - nl
    gl = 1.0 - sq_left.astype(np.float64) / nl**2
    with np.errstate(divide="ignore", invalid="ignore"):
        gr = 1.0 - sq_right.astype(np.float64) / nr**2
    weighted = (nl * gl + nr * gr) / n
    cut_ok = V[1:] > V[:-1]
    cut_ok &= (nl[:-1] >= min_leaf) & (nr[:-1] >= min_leaf)
    if not cut_ok.any():
        return None
    costs = np.where(cut_ok, weighted[:-1], np.inf)
    flat = np.argmin(costs.T.ravel())  # column-major: earliest column wins ties
    col, pos = divmod(flat, n - 1)
    return int(col), float((V[pos, col] + V[pos + 1, col]) / 2.0), float(costs[pos, col])


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    hp: ForestHyperparams,
    rng: np.random.Generator,
    table: dict[str, list],
) -> int:
    """Append one tree's nodes to the given node lists; returns its root index."""
    n, d = X.shape
    m = int(np.ceil(np.sqrt(d)))
    if hp.bootstrap:
        idx = rng.integers(0, n, size=n)
    else:
        idx = np.arange(n)

    feature, threshold, right, leaf_class = (table[k] for k in _NODE_ARRAYS)

    def new_node() -> int:
        """A leaf: its own right child, with a NaN threshold."""
        right.append(len(feature))
        feature.append(-1)
        threshold.append(np.nan)
        leaf_class.append(-1)
        return len(feature) - 1

    # Preorder DFS with an explicit stack; RNG draws happen in pop order, so
    # the structure is reproducible without recursion-depth limits.
    root = new_node()
    stack: list[tuple[int, np.ndarray, int]] = [(root, idx, 0)]
    while stack:
        node, rows, depth = stack.pop()
        yn = y[rows]
        hist = np.bincount(yn, minlength=n_classes)
        splittable = (
            len(rows) >= hp.min_samples_split
            and (hp.max_depth is None or depth < hp.max_depth)
            and hist.max() < len(rows)  # not pure
        )
        split = None
        if splittable:
            feats = rng.choice(d, size=min(m, d), replace=False)
            split = _best_split(X[np.ix_(rows, feats)], yn, n_classes, hp.min_samples_leaf, hist)
        if split is None:
            leaf_class[node] = int(np.argmax(hist))
            continue
        col, thr, _ = split
        feature[node] = int(feats[col])
        threshold[node] = thr
        go_left = X[rows, feature[node]] <= thr
        lnode, rnode = new_node(), new_node()
        right[node] = rnode
        stack.append((rnode, rows[~go_left], depth + 1))
        stack.append((lnode, rows[go_left], depth + 1))
    return root


def reference_train_forest(X: np.ndarray, y: np.ndarray, hp: forest.ForestHyperparams,
                           seed: int) -> forest.Forest:
    """The serial oracle of forest.train_forest: one tree at a time, one split
    search per node, every tree appended to one node table in the calling process."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n_classes = int(y.max()) + 1
    table = {k: [] for k in NODE_ARRAYS}
    roots = [
        _grow_tree(X, y, n_classes, hp, substream(seed, "tree", i), table)
        for i in range(hp.n_estimators)
    ]
    return forest.Forest(hyperparams=hp, n_classes=n_classes, n_features=X.shape[1],
                         trees=np.array(roots, dtype=np.int64),
                         **{k: np.array(v, dtype=forest._NODE_DTYPES[k]) for k, v in table.items()})


def best_split(Xn: np.ndarray, yn: np.ndarray, n_classes: int, min_leaf: int):
    """_best_split's answer from forest._search_splits on a group of one node.

    Repeated (row, label) pairs become one row with their count as its
    multiplicity, as a bootstrap sample's repeats do; the node may cut on
    every column.
    """
    pairs, w = np.unique(np.column_stack([Xn, yn]), axis=0, return_counts=True)
    X, y = pairs[:, :-1], pairs[:, -1].astype(np.int64)
    hist = np.bincount(y, weights=w, minlength=n_classes).astype(np.int64)
    col, thr, cost = forest._search_splits(
        X, forest._value_ranks(X), y, min_leaf, np.arange(len(X)), w, np.array([len(X)]),
        np.arange(X.shape[1])[None, :], hist[None, :],
    )
    return None if col[0] < 0 else (int(col[0]), float(thr[0]), float(cost[0]))


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
                assert node < model.right[node] - 1 and model.right[node] < end
                go_left = X[rows, model.feature[node]] <= model.threshold[node]
                assert go_left.sum() >= 2 and (~go_left).sum() >= 2
                assert len(rows) >= 6
            else:
                hist = np.bincount(y[rows], minlength=model.n_classes)
                assert model.leaf_class[node] == int(np.argmax(hist))
                assert model.right[node] == node and np.isnan(model.threshold[node])
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
    col, thr, cost = best_split(X, y, 2, 1)
    assert col == 0
    assert thr == pytest.approx(0.5)
    assert cost == pytest.approx(0.0)


def test_best_split_threshold_is_midpoint():
    X = np.array([[1.0], [3.0]])
    y = np.array([0, 1])
    col, thr, _ = best_split(X, y, 2, 1)
    assert thr == pytest.approx(2.0)


def test_best_split_respects_min_leaf():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 1, 1])
    # min_leaf=2 forbids the perfect 1-vs-3 cut; best legal cut is 2-vs-2
    out = best_split(X, y, 2, 2)
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
    assert best_split(Xn, yn, n_classes, min_leaf) == expected


@pytest.mark.parametrize("hp", [
    forest.ForestHyperparams(),
    forest.ForestHyperparams(n_estimators=9, max_depth=None, min_samples_split=2,
                             min_samples_leaf=1, bootstrap=False),  # deep_forest's
], ids=["default", "deep"])
def test_forest_equals_one_hot_reference_forest(monkeypatch, tiny_landmarks, hp):
    X, y = tiny_landmarks
    model = forest.train_forest(X, y, hp, seed=4)
    monkeypatch.setitem(globals(), "_best_split",
                        lambda Xn, yn, n_classes, min_leaf, hist: reference_best_split(
                            Xn, yn, n_classes, min_leaf))
    expected = reference_train_forest(X, y, hp, seed=4)
    for k in ("trees",) + NODE_ARRAYS:
        assert np.array_equal(getattr(model, k), getattr(expected, k), equal_nan=True)


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
        assert np.array_equal(getattr(model, k), getattr(expected, k), equal_nan=True)
    forest.save_forest(tmp_path / "a.blk", model)
    forest.save_forest(tmp_path / "b.blk", expected)
    assert (tmp_path / "a.blk").read_bytes() == (tmp_path / "b.blk").read_bytes()
    assert multiprocessing.active_children() == []


@st.composite
def growth_cases(draw):
    """(X, y, hp, seed, cpus) for a small forest grown over up to cpus ranges.

    Columns draw from a few levels, so values repeat, and some are constant.
    The first two labels are 0 and the top class, so the forest sees them all.
    """
    n_classes = draw(st.integers(2, 6))
    n = draw(st.integers(5, 60))
    d = draw(st.integers(1, 8))
    levels = draw(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=6))
    X = np.array(draw(st.lists(st.lists(st.sampled_from(levels), min_size=d, max_size=d),
                               min_size=n, max_size=n)))
    X[:, draw(st.lists(st.integers(0, d - 1), max_size=2))] = draw(st.sampled_from(levels))
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
    y[:2] = 0, n_classes - 1
    hp = forest.ForestHyperparams(
        n_estimators=draw(st.integers(1, 12)),
        max_depth=draw(st.sampled_from([None, 1, 2, 5])),
        min_samples_split=draw(st.integers(2, min(6, n))),
        min_samples_leaf=draw(st.integers(1, 4)),
        bootstrap=draw(st.booleans()),
    )
    return X, y, hp, draw(st.integers(0, 2**16)), draw(st.integers(1, 3))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(growth_cases())
def test_lockstep_growth_equals_serial_oracle(case):
    # A cap of 7 rows splits most steps into several searches, and leaves
    # nodes larger than the cap to be searched alone. With more than one
    # range, forked workers grow trees whose nodes the join places.
    X, y, hp, seed, cpus = case
    with mock.patch.object(forest, "_SEARCH_ROWS", 7), \
            mock.patch.object(forest, "_usable_cpus", lambda: cpus):
        model = forest.train_forest(X, y, hp, seed)
    want = reference_train_forest(X, y, hp, seed)
    for k in ("trees",) + NODE_ARRAYS:
        assert getattr(model, k).dtype == getattr(want, k).dtype
        assert np.array_equal(getattr(model, k), getattr(want, k), equal_nan=True), k
    assert multiprocessing.active_children() == []


def test_lockstep_growth_memory_is_bounded():
    # The bench corpus's training split: 20 rows per class, 448 of 560 rows.
    X, y = datagen.frames_to_arrays(datagen.synth_landmarks(
        datagen.LandmarkDatasetSpec(per_class=20, seed=31)))
    train = substream(31, "rfc-split").permutation(len(X))[:448]
    hp = forest.ForestHyperparams(n_estimators=100)
    tracemalloc.start()
    try:
        forest._grow_trees(X[train], y[train], int(y.max()) + 1, hp, 31, 0, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def hook_grow_trees(monkeypatch, hook):
    """Replace forest._grow_trees with hook, in this process and in forked workers.

    The pool pickles the function it runs by module and name; the hook takes
    the name it replaces, so a worker unpickles it from its copy of the
    patched module.
    """
    hook.__module__, hook.__qualname__ = forest.__name__, "_grow_trees"
    monkeypatch.setattr(forest, "_grow_trees", hook)


def _failing_tree(monkeypatch, seed, bad_tree, fail):
    """Make _grow_trees call fail() on the range that holds tree bad_tree of a forest grown with seed."""
    grow = forest._grow_trees

    def grow_or_fail(X, y, n_classes, hp, range_seed, start, stop):
        if range_seed == seed and start <= bad_tree < stop:
            fail()
        return grow(X, y, n_classes, hp, range_seed, start, stop)

    hook_grow_trees(monkeypatch, grow_or_fail)


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
        threshold=np.array([0.5, np.nan, np.nan, 0.25, np.nan, np.nan]),
        right=np.array([2, 1, 2, 5, 4, 5]),
        leaf_class=np.array([-1, 2, 1, -1, 1, 2], dtype=np.int32),
    )
    X = np.array([[0.0], [0.5], [1.0]])
    expected = [[0, 0.5, 0.5], [0, 0, 1], [0, 0.5, 0.5]]
    assert np.array_equal(forest.predict_proba(model, X), expected)
    assert np.array_equal(forest.predict_class(model, X), [1, 2, 1])


LEVELS = (-1.0, -0.5, 0.0, 0.5, 1.0)  # every threshold, and most row values


def two_stumps() -> forest.Forest:
    """x <= 0.5 -> 2 else 1, and x <= 0.25 -> 1 else 2."""
    return forest.Forest(
        hyperparams=forest.ForestHyperparams(n_estimators=2), n_classes=3, n_features=1,
        trees=np.array([0, 3]),
        feature=np.array([0, -1, -1, 0, -1, -1], dtype=np.int32),
        threshold=np.array([0.5, np.nan, np.nan, 0.25, np.nan, np.nan]),
        right=np.array([2, 1, 2, 5, 4, 5]),
        leaf_class=np.array([-1, 2, 1, -1, 1, 2], dtype=np.int32),
    )


@st.composite
def forests_and_rows(draw):
    """A random node table in the writer's order, and rows to route.

    A split numbers its two children together, left then right, before
    either grows. Thresholds come from LEVELS, so many row values sit
    exactly on one; rows also hold other floats and NaN, and there may be
    none.
    """
    n_features = draw(st.integers(1, 3))
    n_classes = draw(st.integers(2, 4))
    table = {k: [] for k in NODE_ARRAYS}

    def new_node() -> int:
        node = len(table["feature"])
        for k, v in zip(NODE_ARRAYS, (-1, np.nan, node, -1)):
            table[k].append(v)
        return node

    def grow(node: int, depth: int) -> int:
        if depth < 7 and draw(st.booleans()):
            table["feature"][node] = draw(st.integers(0, n_features - 1))
            table["threshold"][node] = draw(st.sampled_from(LEVELS))
            left, table["right"][node] = new_node(), new_node()
            grow(left, depth + 1)
            grow(table["right"][node], depth + 1)
        else:
            table["leaf_class"][node] = draw(st.integers(0, n_classes - 1))
        return node

    roots = [grow(new_node(), 0) for _ in range(draw(st.integers(1, 4)))]
    model = forest.Forest(
        hyperparams=forest.ForestHyperparams(n_estimators=len(roots)),
        n_classes=n_classes, n_features=n_features, trees=np.array(roots, dtype=np.int64),
        **{k: np.array(v, dtype=forest._NODE_DTYPES[k]) for k, v in table.items()},
    )
    values = st.sampled_from(LEVELS + (np.nan,)) | st.floats(-2, 2)
    rows = draw(st.lists(st.lists(values, min_size=n_features, max_size=n_features), max_size=6))
    return model, np.array(rows, dtype=np.float64).reshape(len(rows), n_features)


@settings(max_examples=300, deadline=None)
@given(forests_and_rows())
@example((two_stumps(), np.empty((0, 1))))
@example((two_stumps(), np.array([[0.5]])))  # on the first stump's threshold
@example((two_stumps(), np.array([[0.25], [np.nan]])))
def test_leaf_classes_equal_compressing_walk(case):
    model, X = case
    want = reference_leaf_classes(model, X)
    assert np.array_equal(want, reference_votes(model, X).reshape(want.shape))
    assert np.array_equal(forest._leaf_classes(model, X), want)
    with tempfile.TemporaryDirectory() as tmp:
        forest.save_forest(Path(tmp) / "f.blk", model)
        loaded = forest.load_forest(Path(tmp) / "f.blk")
    assert np.array_equal(forest._leaf_classes(loaded, X), want)
    if len(X):
        assert np.array_equal(forest._leaf_classes(model, X[0]), want[:1])


def test_leaf_classes_on_thresholds_equal_compressing_walk(tmp_path, deep_forest):
    # one row per split of a trained forest, holding that split's threshold;
    # also NaN rows, and each row alone as live recognition walks it, on the
    # built and on the loaded forest
    model, X, _ = deep_forest
    split = np.flatnonzero(model.feature >= 0)
    on = np.repeat(X[:1], len(split), axis=0)
    on[np.arange(len(split)), model.feature[split]] = model.threshold[split]
    nan = X[::7].copy()
    nan[:, ::3] = np.nan
    forest.save_forest(tmp_path / "f.blk", model)
    for m in (model, forest.load_forest(tmp_path / "f.blk")):
        for rows in (on, X, nan, X[:0]):
            want = reference_leaf_classes(model, rows)
            assert np.array_equal(forest._leaf_classes(m, rows), want)
            for i, row in enumerate(rows):
                assert np.array_equal(forest._leaf_classes(m, row), want[i : i + 1])


def test_training_determinism(tiny_landmarks):
    X, y = tiny_landmarks
    hp = forest.ForestHyperparams(n_estimators=5, max_depth=6)
    a = forest.train_forest(X, y, hp, seed=11)
    b = forest.train_forest(X, y, hp, seed=11)
    for k in ("trees",) + NODE_ARRAYS:
        assert np.array_equal(getattr(a, k), getattr(b, k), equal_nan=True)
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
        assert np.array_equal(getattr(big, k)[:n], getattr(small, k), equal_nan=True)


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
        assert np.array_equal(getattr(loaded, k), getattr(model, k), equal_nan=True)
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
    assert meta["schema"] == "forest/3" and meta["n_trees"] == len(model.trees)
    assert set(arrays) == {"offsets", *NODE_ARRAYS}
    assert np.array_equal(arrays["offsets"], [*model.trees, len(model.feature)])
    for k in NODE_ARRAYS:
        assert np.array_equal(arrays[k], getattr(model, k), equal_nan=True)


def test_load_rejects_forest_v1(tmp_path, tiny_forest):
    # the older layouts: forest/2 stored int32 left and right children, -1 on
    # a leaf, whose threshold was 0; forest/1 counted them from their tree's
    # root and stored leaf counts as well
    model, _, _ = tiny_forest
    forest.save_forest(tmp_path / "f.blk", model)
    meta, arrays = io.read_blocks(tmp_path / "f.blk")
    split = model.feature >= 0
    arrays["left"] = np.where(split, arrays["right"] - 1, -1).astype(np.int32)
    arrays["right"] = np.where(split, arrays["right"], -1).astype(np.int32)
    arrays["threshold"] = np.where(split, arrays["threshold"], 0.0)
    meta["schema"] = "forest/2"
    io.write_blocks(tmp_path / "v2.blk", meta, arrays)
    with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'v2.blk'}: ") + ".*'forest/2'"):
        forest.load_forest(tmp_path / "v2.blk")
    roots = np.repeat(model.trees, np.diff(arrays["offsets"]))
    for k in ("left", "right"):
        arrays[k] = np.where(split, arrays[k] - roots, -1).astype(np.int32)
    arrays["leaf_count"] = np.zeros(len(model.feature), dtype=np.int64)
    meta["schema"] = "forest/1"
    io.write_blocks(tmp_path / "v1.blk", meta, arrays)
    with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'v1.blk'}: ") + ".*'forest/1'"):
        forest.load_forest(tmp_path / "v1.blk")


def test_load_rejects_child_in_another_tree(tmp_path, tiny_forest):
    # the next tree's root: the left child, right - 1, is still a later node
    # of this tree, so a check of the left child alone would miss it
    model, _, _ = tiny_forest
    forest.save_forest(tmp_path / "f.blk", model)
    meta, arrays = io.read_blocks(tmp_path / "f.blk")
    assert arrays["feature"][0] >= 0
    arrays["right"][0] = model.trees[1]
    io.write_blocks(tmp_path / "bad.blk", meta, arrays)
    with pytest.raises(ValueError, match="right child of node 0"):
        forest.load_forest(tmp_path / "bad.blk")


def _first_leaf(arrays: dict) -> int:
    return int(np.flatnonzero(arrays["feature"] < 0)[0])


@pytest.mark.parametrize("mutate, message", [
    # its left child would be the node itself
    (lambda a: a["right"].__setitem__(0, 1), "right child of node 0"),
    # the walk would leave the leaf for the next node instead of voting
    (lambda a: a["right"].__setitem__(_first_leaf(a), _first_leaf(a) + 1), "leaf"),
    # values at or below 0, then every value but NaN, would go back to
    # right - 1, an earlier node, from where a walk can come round again
    (lambda a: a["threshold"].__setitem__(_first_leaf(a), 0.0), "NaN threshold"),
    (lambda a: a["threshold"].__setitem__(_first_leaf(a), np.inf), "NaN threshold"),
], ids=["split-left-child-is-itself", "leaf-points-elsewhere", "leaf-finite-threshold",
        "leaf-infinite-threshold"])
def test_load_rejects_a_walk_that_would_not_end(tmp_path, tiny_forest, mutate, message):
    model, _, _ = tiny_forest
    forest.save_forest(tmp_path / "f.blk", model)
    meta, arrays = io.read_blocks(tmp_path / "f.blk")
    assert arrays["feature"][0] >= 0
    mutate(arrays)
    io.write_blocks(tmp_path / "bad.blk", meta, arrays)
    with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'bad.blk'}: ") + ".*" + message):
        forest.load_forest(tmp_path / "bad.blk")


def reference_grid_search(
    X: np.ndarray,
    y: np.ndarray,
    search_space: dict[str, tuple] | None = None,
    k: int = 5,
    seed: int = 0,
) -> tuple[forest.ForestHyperparams, list[dict]]:
    """forest.grid_search as it was before it looped over structural configs:
    every configuration enumerated, duplicates skipped through a cache.

    Exhaustive k-fold CV over the hyperparameter cross-product.

    Returns the accuracy maximizer (ties to earliest enumeration order) and
    one result row per configuration. Because tree i depends only on
    (seed, i), forests over the same data that differ only in n_estimators
    share their tree prefix; the evaluation exploits that by growing the
    largest forest once per fold and scoring the vote matrix's first
    columns for each size.
    """
    space = search_space or forest.SEARCH_SPACE
    if not space:
        raise ValueError("search space must be non-empty")
    if k < 2:
        raise ValueError(f"need k >= 2 folds, got {k}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(X) < k:
        raise ValueError(f"fewer samples ({len(X)}) than folds ({k})")
    keys = list(space.keys())
    configs = [dict(zip(keys, combo)) for combo in itertools.product(*(space[k] for k in keys))]

    perm = substream(seed, "cv").permutation(len(X))
    folds = np.array_split(perm, k)
    sizes = sorted(set(cfg.get("n_estimators", forest.ForestHyperparams().n_estimators) for cfg in configs))
    max_size = max(sizes)

    # Accuracy per (structural config, fold, forest size); structural config
    # is everything except n_estimators.
    cache: dict[tuple, dict[int, list[float]]] = {}
    for cfg in configs:
        struct = tuple((kk, vv) for kk, vv in sorted(cfg.items()) if kk != "n_estimators")
        if struct in cache:
            continue
        hp_full = forest.ForestHyperparams(**{**cfg, "n_estimators": max_size})
        by_size: dict[int, list[float]] = {s: [] for s in sizes}
        for fold in folds:
            mask = np.ones(len(X), dtype=bool)
            mask[fold] = False
            model = forest.train_forest(X[mask], y[mask], hp_full, seed)
            leaf = forest._leaf_classes(model, X[fold])
            for s in sizes:
                pred = np.argmax(forest._class_counts(leaf[:, :s], model.n_classes), axis=1)
                by_size[s].append(float(np.mean(pred == y[fold])))
        cache[struct] = by_size

    rows: list[dict] = []
    best_cfg: dict | None = None
    best_acc = -1.0
    for cfg in configs:
        struct = tuple((kk, vv) for kk, vv in sorted(cfg.items()) if kk != "n_estimators")
        fold_accs = cache[struct][cfg.get("n_estimators", forest.ForestHyperparams().n_estimators)]
        mean_acc = float(np.mean(fold_accs))
        rows.append({**cfg, "fold_accuracies": fold_accs, "mean_accuracy": mean_acc})
        if mean_acc > best_acc:
            best_acc = mean_acc
            best_cfg = cfg
    assert best_cfg is not None
    return forest.ForestHyperparams(**best_cfg), rows


@pytest.mark.parametrize("space", [
    {"max_depth": (None, 3), "n_estimators": (3, 1), "min_samples_split": (2, 8),
     "min_samples_leaf": (1, 4), "bootstrap": (True, False)},
    {"max_depth": (2, None), "bootstrap": (False, True)},
    {"n_estimators": (2, 5, 1)},
    {"n_estimators": (1, 4), "max_depth": (6, None)},  # rows 3 and 4 tie at the top
    {"n_estimators": (2, 2), "max_depth": (3, 3)},
], ids=["all-keys-unsorted-sizes", "no-n-estimators", "only-n-estimators", "tied-rows",
        "repeated-values"])
def test_grid_search_matches_reference(tiny_landmarks, space):
    X, y = tiny_landmarks
    expected = reference_grid_search(X, y, search_space=space, k=3, seed=6)
    assert forest.grid_search(X, y, search_space=space, k=3, seed=6) == expected


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
