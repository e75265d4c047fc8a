"""Random forest built from scratch: CART trees, Gini splits, mode voting.

Trees grow on bootstrap resamples with a random ceil(sqrt(d))-feature subset
per node; candidate thresholds are midpoints between consecutive distinct
sorted values. A node keeps each distinct row of its sample once, with the
number of times the bootstrap drew it as a weight. Each cut's Gini comes
from running class counts: integer cumsums give the sums of squared class
counts left and right of every cut, with no per-class count table.
Prediction is the mode of per-tree votes and the probability of a class is
the fraction of trees voting for it. Tree i draws only from substream
(seed, "tree", i), so forests with the same seed share a tree prefix
whatever their size; grid_search scores every forest size from one grown
forest on that basis.

The whole forest is one flat node table, used alike by training, by
prediction (every row walks every tree together, one vectorized step per
depth level) and by the model file. The file (schema forest/3) stores the
node arrays as they are, with children as table indices, plus `offsets`:
the root of each tree followed by the node count.

Training splits the trees into contiguous index ranges, one per CPU the
process may use; the parent grows the first range while forked workers grow
the rest. A range returns one record per node, numbered within its tree,
and the table is written once from every range's records: tree i's nodes
start after the nodes of trees 0..i-1. Within a range the trees grow in
lockstep: each step takes the next node of every tree and scores all of
them in batched split searches of at most _SEARCH_ROWS rows each. Since
tree i depends only on its substream, and draws and numbers its nodes in
its own order, the table is the one a single loop over the trees, one node
at a time, builds.
"""
from __future__ import annotations

import itertools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .io import read_blocks, write_blocks
from .rng import substream


@dataclass(frozen=True)
class ForestHyperparams:
    """Defaults are the tuned values; see SEARCH_SPACE for the full grid."""

    n_estimators: int = 200
    max_depth: int | None = 20
    min_samples_split: int = 5
    min_samples_leaf: int = 2
    bootstrap: bool = True

    def __post_init__(self):
        if self.n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {self.n_estimators}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1 or None, got {self.max_depth}")
        if self.min_samples_split < 2:
            raise ValueError(f"min_samples_split must be >= 2, got {self.min_samples_split}")
        if self.min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")


# Enumeration order fixes grid-search tie-breaks: earliest wins.
SEARCH_SPACE: dict[str, tuple] = {
    "n_estimators": (100, 200, 300),
    "max_depth": (None, 10, 20, 30),
    "min_samples_split": (2, 5, 10),
    "min_samples_leaf": (1, 2, 4),
    "bootstrap": (True, False),
}

_NODE_DTYPES = {
    "feature": np.int32,
    "threshold": np.float64,
    "right": np.int64,  # the native index type: a gather by it needs no conversion
    "leaf_class": np.int32,
}
_NODE_ARRAYS = tuple(_NODE_DTYPES)


@dataclass
class Forest:
    """All trees in one flat node table; feature == -1 marks a leaf.

    Tree i occupies the nodes from trees[i] (its root) up to the next root.
    right indexes the whole table and a split's left child is right - 1,
    both after their parent. A leaf holds the majority class of its training
    samples (histogram argmax, lowest class index on ties), right pointing
    to itself and a NaN threshold, so a step from node k goes to
    right[k] - (x <= threshold[k]): x <= NaN is False, and a leaf stays put.
    """

    hyperparams: ForestHyperparams
    n_classes: int
    n_features: int
    trees: np.ndarray  # (n_trees,) root node indices
    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    leaf_class: np.ndarray


# Most rows one batched split search takes in. A step's splittable nodes are
# searched in consecutive groups whose rows fit under it, and a node with
# more rows is searched alone, so a search's arrays stay a few MB whatever
# the number of trees.
_SEARCH_ROWS = 2048


def _value_ranks(X: np.ndarray) -> np.ndarray:
    """(d, n) table whose [f, i] is the dense rank of X[i, f] in column f.

    Equal values share a rank, so two entries of a column differ in rank
    exactly where a cut between them is legal.
    """
    order = np.argsort(X.T, axis=1)
    V = np.take_along_axis(X.T, order, axis=1)
    in_order = np.zeros(V.shape, dtype=np.int64)
    np.cumsum(V[:, 1:] > V[:, :-1], axis=1, out=in_order[:, 1:])
    rank = np.empty_like(in_order)
    np.put_along_axis(rank, order, in_order, axis=1)
    return rank


def _search_splits(
    X: np.ndarray, rank: np.ndarray, y: np.ndarray, min_leaf: int, rows: np.ndarray,
    w: np.ndarray, sizes: np.ndarray, feats: np.ndarray, hist: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best (column, threshold, weighted Gini) of each node of a group.

    Node j holds the next sizes[j] entries of rows, distinct row indices of
    X with multiplicities w, may cut on the columns feats[j], and has the
    weighted class histogram hist[j]; rank is _value_ranks(X). Returns, per
    node, the index into feats[j] of the best column (-1 where no cut
    satisfies the leaf-size constraint), its threshold (NaN where none) and
    its cost. Ties resolve to the earliest column, then the lowest threshold.

    Each (column, node) pair is one segment of a transposed (m, rows)
    layout, and one sort by segment * n + rank puts every segment in value
    order. The order among equal values is free: a legal cut falls between
    two distinct values, so the rows left of it are the same set either way.
    Gini needs only the sum of squared class counts on each side of a cut.
    In value order, a row of multiplicity w whose class already has k
    samples before it raises the left sum by (k + w)^2 - k^2 = (2k + w) * w.
    With l the left class counts, the right sum is sum((T - l)^2) = sum(T^2)
    - 2*sum(T*l) + sum(l^2), and sum(T*l) is a running sum of w * T[label].
    All sums are integers far below 2**53, so in float64 they equal the
    summed squares of per-class counts exactly: every cost, and so every
    tie, is the one a per-class count table over the node's samples gives.
    """
    n_nodes, m = feats.shape
    n_rows, n_classes = len(rows), hist.shape[1]
    node = np.repeat(np.arange(n_nodes), sizes)
    seg_size = np.tile(sizes, m)  # segments run over (column, node), column-major
    seg_start = np.cumsum(seg_size) - seg_size
    seg = np.repeat(np.arange(m * n_nodes), seg_size)

    def running(a: np.ndarray) -> np.ndarray:
        """a's inclusive running sum within each segment, in place."""
        head = a[seg_start]
        np.cumsum(a, out=a)
        a -= np.repeat(a[seg_start] - head, seg_size)
        return a

    def per_segment(per_node: np.ndarray) -> np.ndarray:
        return np.repeat(np.tile(per_node, m), seg_size)

    # Temporaries are dropped or overwritten once spent: a search's arrays
    # are fresh memory on every call, and a lower peak faults in fewer pages.
    # The sort key is segment * n + rank with the entry's position in rows in
    # the low bits; segment * n + rank rises exactly where a cut is legal.
    bits = n_rows.bit_length()
    key = np.take(rank, feats[node].T * len(X) + rows).ravel()
    key += seg * len(X)
    key <<= bits
    key |= np.tile(np.arange(n_rows), m)
    key.sort()
    u = key & ((1 << bits) - 1)
    key >>= bits
    # A segment's last entry has nr == 0 below, so its comparison with the
    # next segment's first key never makes a legal cut.
    cut_ok = np.zeros(len(key), dtype=bool)
    cut_ok[:-1] = key[1:] > key[:-1]
    del key
    W = np.take(w, u)
    label = np.take(y[rows], u)
    # k: the weight of the segment's earlier entries of the same class. A
    # stable sort by class (a radix sort) orders the entries by (class,
    # segment, value), and k is the weight taken in that order since the
    # first entry of the (class, segment) group.
    by_class = np.argsort(label.astype(np.min_scalar_type(n_classes - 1)), kind="stable")
    group = np.take(seg * n_classes + label, by_class)
    first = np.ones(len(group), dtype=bool)
    np.not_equal(group[1:], group[:-1], out=first[1:])
    Wc = np.take(W, by_class)
    k = np.cumsum(Wc)
    k -= Wc
    k -= np.maximum.accumulate(np.where(first, k, 0))
    sq_left = np.empty_like(k)
    sq_left[by_class] = (2 * k + Wc) * Wc
    del group, first, by_class, Wc, k
    running(sq_left)
    tl = np.take(hist, np.take(node * n_classes, u) + label)  # T[label]
    tl *= W
    running(tl)
    sq_right = per_segment((hist * hist).sum(axis=1)) - 2 * tl + sq_left
    del label, tl
    nl = running(W).astype(np.float64)
    n = per_segment(hist.sum(axis=1).astype(np.float64))
    nr = n - nl
    cut_ok &= (nl >= min_leaf) & (nr >= min_leaf)
    # (nl * gl + nr * gr) / n. Ties compare exact floats, so this order of
    # float operations is part of the result.
    gl = 1.0 - sq_left.astype(np.float64) / nl**2
    del sq_left, W
    with np.errstate(divide="ignore", invalid="ignore"):
        gr = 1.0 - sq_right.astype(np.float64) / nr**2
    del sq_right
    gl *= nl
    gr *= nr
    gl += gr
    gl /= n
    costs = np.where(cut_ok, gl, np.inf)
    del gl, gr, cut_ok, nl, nr, n
    seg_min = np.minimum.reduceat(costs, seg_start)
    best_col = np.argmin(seg_min.reshape(m, n_nodes), axis=0)  # earliest column wins ties
    best = best_col * n_nodes + np.arange(n_nodes)
    cost = seg_min[best]
    found = cost < np.inf
    # The lowest position of each chosen segment's minimum, and the next one.
    at_min = np.flatnonzero(costs == np.repeat(seg_min, seg_size))
    split = np.flatnonzero(found)
    pos = at_min[np.searchsorted(at_min, seg_start[best[split]])]
    col = feats[split, best_col[split]]
    threshold = np.full(n_nodes, np.nan)
    threshold[split] = (X[rows[u[pos]], col] + X[rows[u[pos + 1]], col]) / 2.0
    return np.where(found, best_col, -1), threshold, cost


def _capped_groups(sizes: np.ndarray):
    """Consecutive (lo, hi) index ranges whose sizes sum to at most _SEARCH_ROWS.

    A size above the cap makes a range of its own.
    """
    lo, total = 0, 0
    for i, size in enumerate(sizes.tolist()):
        if i > lo and total + size > _SEARCH_ROWS:
            yield lo, i
            lo, total = i, 0
        total += size
    if len(sizes):
        yield lo, len(sizes)


def _grow_trees(
    X: np.ndarray, y: np.ndarray, n_classes: int, hp: ForestHyperparams, seed: int,
    start: int, stop: int,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Grow trees start..stop-1: (node count per tree, node records).

    The records are the arrays (tree, node, feature, threshold, right,
    leaf_class), one entry per node, as the node table holds them but with
    tree the global tree index, and node and right numbering the nodes
    within their tree, root 0.

    The trees grow in lockstep. Each keeps its own preorder DFS stack and
    substream, and every step pops the next node of every unfinished tree,
    draws each splittable node's candidate columns from its tree's stream,
    and scores all of them in batched split searches. A tree's draws and
    node numbers come in its own pop order, so each tree is the one it would
    be grown alone. A node holds distinct row indices and their multiplicity
    in the tree's bootstrap sample, as a (2, rows) array.
    """
    n, d = X.shape
    m = min(int(np.ceil(np.sqrt(d))), d)
    rank = _value_ranks(X)
    max_depth = np.inf if hp.max_depth is None else hp.max_depth
    rngs = [substream(seed, "tree", i) for i in range(start, stop)]
    stacks = []
    for rng in rngs:
        if hp.bootstrap:
            w = np.bincount(rng.integers(0, n, size=n), minlength=n)
        else:
            w = np.ones(n, dtype=np.int64)
        rows = np.flatnonzero(w)
        stacks.append([(0, 0, np.stack([rows, w[rows]]))])  # (node, depth, rows and weights)
    n_made = np.ones(len(rngs), dtype=np.int64)  # nodes numbered so far, per tree
    steps = []
    live = np.arange(len(rngs))
    while len(live):
        node, depth, data = zip(*(stacks[t].pop() for t in live))
        depth = np.array(depth)
        sizes = np.array([a.shape[1] for a in data])
        rows, w = np.concatenate(data, axis=1)
        at = np.repeat(np.arange(len(live)), sizes)
        hist = np.bincount(at * n_classes + y[rows], weights=w, minlength=len(live) * n_classes)
        hist = hist.reshape(len(live), n_classes).astype(np.int64)
        count = hist.sum(axis=1)
        cand = np.flatnonzero(
            (count >= hp.min_samples_split) & (depth < max_depth) & (hist.max(axis=1) < count)
        )
        feats = np.array([rngs[t].choice(d, size=m, replace=False) for t in live[cand].tolist()],
                         dtype=np.int64).reshape(len(cand), m)
        feature = np.full(len(live), -1)
        threshold = np.full(len(live), np.nan)
        for lo, hi in _capped_groups(sizes[cand]):
            js = cand[lo:hi]
            group_rows, group_w = np.concatenate([data[j] for j in js], axis=1)
            col, threshold[js], _ = _search_splits(X, rank, y, hp.min_samples_leaf, group_rows,
                                                   group_w, sizes[js], feats[lo:hi], hist[js])
            feature[js] = np.where(col >= 0, feats[np.arange(lo, hi), col], -1)
        split = np.flatnonzero(feature >= 0)
        node = np.array(node)
        right = node.copy()
        right[split] = n_made[live[split]] + 1
        n_made[live[split]] += 2
        steps.append((live + start, node, feature, threshold, right,
                      np.where(feature < 0, np.argmax(hist, axis=1), -1)))
        # Children, left on top of the stack. A leaf's feature -1 reads the
        # last column, and nothing reads what it gives.
        go_left = X[rows, feature[at]] <= threshold[at]
        starts = (np.cumsum(sizes) - sizes).tolist()
        for j in split.tolist():
            stack, child, below = stacks[live[j]], int(right[j]), int(depth[j]) + 1
            block = data[j]
            lhs = go_left[starts[j]:starts[j] + block.shape[1]]
            stack.append((child, below, block[:, ~lhs]))
            stack.append((child - 1, below, block[:, lhs]))
        live = live[[bool(stacks[t]) for t in live.tolist()]]
    return n_made, [np.concatenate(a) for a in zip(*steps)]


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where workers cannot be forked."""
    if not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return len(os.sched_getaffinity(0))


def train_forest(X: np.ndarray, y: np.ndarray, hp: ForestHyperparams, seed: int) -> Forest:
    """Grow n_estimators trees; tree i draws from substream (seed, "tree", i).

    The trees are split into contiguous index ranges, one per usable CPU (at
    most one per tree). The parent grows the first range while forked
    workers grow the others. Each node is then placed once: at its tree's
    root, the count of nodes in the trees before it, plus its number within
    the tree. So the forest is the same table whatever the number of CPUs.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError(f"expected (N, d) features with N labels, got {X.shape} / {y.shape}")
    if len(X) < hp.min_samples_split:
        raise ValueError(f"need at least {hp.min_samples_split} samples, got {len(X)}")
    n_classes = int(y.max()) + 1
    if len(np.unique(y)) < 2:
        raise ValueError("need at least 2 distinct classes")
    n_ranges = min(_usable_cpus(), hp.n_estimators)
    bounds = [i * hp.n_estimators // n_ranges for i in range(n_ranges + 1)]
    jobs = [(X, y, n_classes, hp, seed, a, b) for a, b in zip(bounds, bounds[1:])]
    if n_ranges == 1:
        chunks = [_grow_trees(*jobs[0])]
    else:
        # fork, not spawn: workers start from this process's modules as they are.
        with ProcessPoolExecutor(n_ranges - 1, multiprocessing.get_context("fork")) as pool:
            pending = [pool.submit(_grow_trees, *job) for job in jobs[1:]]
            chunks = [_grow_trees(*jobs[0])] + [f.result() for f in pending]
    n_made, records = zip(*chunks)
    n_made = np.concatenate(n_made)
    tree, node, feature, threshold, right, leaf_class = map(np.concatenate, zip(*records))
    roots = np.cumsum(n_made) - n_made
    index = roots[tree] + node
    table = {}
    for k, values in zip(_NODE_ARRAYS, (feature, threshold, roots[tree] + right, leaf_class)):
        table[k] = np.empty(len(index), dtype=_NODE_DTYPES[k])
        table[k][index] = values
    return Forest(hyperparams=hp, n_classes=n_classes, n_features=X.shape[1], trees=roots, **table)


# Levels walked between drops of the pairs already on a leaf. A finished pair
# costs less to walk in place than a drop on every level; 3 to 8 steps time
# alike on a 200-tree forest, one row or 156.
WALK_STEPS = 4


def _leaf_classes(forest: Forest, X: np.ndarray) -> np.ndarray:
    """(N, n_trees) class that each tree votes for each row.

    Every (row, tree) pair starts at that tree's root, and each step moves
    it one level down the node table (ties go left, NaN right); a pair on
    a leaf stays there. A step is seven array operations. Pairs on a leaf
    are dropped every WALK_STEPS steps. Children come after their parents,
    so the walk ends.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != forest.n_features:
        raise ValueError(f"expected {forest.n_features} features, got {X.shape[1]}")
    n_trees = len(forest.trees)
    feature, threshold, right = forest.feature, forest.threshold, forest.right
    node = np.tile(forest.trees, len(X))  # row-major (row, tree) pairs
    # Each pair reads X.ravel()[row start + feature]; a leaf's feature -1
    # reads some other value, which its NaN threshold cannot let move it.
    row_start = np.repeat(np.arange(0, X.size, X.shape[1]), n_trees)
    flat = X.ravel()
    live = np.arange(len(node))
    while len(live):
        cur, at = node[live], row_start[live]
        for _ in range(WALK_STEPS):
            # right[cur] is gathered last, so it is not alive beside the other gathers.
            go_left = flat[at + feature[cur]] <= threshold[cur]
            cur = right[cur] - go_left
        node[live] = cur
        live = live[feature[cur] >= 0]
    return forest.leaf_class[node].reshape(len(X), n_trees)


def _class_counts(leaf: np.ndarray, n_classes: int) -> np.ndarray:
    """(N, C) per-class vote counts from an (N, n_trees) leaf-class matrix."""
    n = len(leaf)
    keys = leaf + n_classes * np.arange(n)[:, None]
    return np.bincount(keys.ravel(), minlength=n * n_classes).reshape(n, n_classes)


def predict_proba(forest: Forest, X: np.ndarray) -> np.ndarray:
    """(N, C) distribution: fraction of trees voting for each class."""
    return _class_counts(_leaf_classes(forest, X), forest.n_classes) / len(forest.trees)


def predict_class(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Mode over per-tree votes; ties go to the lowest class index."""
    return np.argmax(_class_counts(_leaf_classes(forest, X), forest.n_classes), axis=1)


def cv_folds(n: int, k: int, seed: int) -> list[np.ndarray]:
    """The held-out row indices of each of grid_search's k folds over n rows."""
    return np.array_split(substream(seed, "cv").permutation(n), k)


def grid_search(
    X: np.ndarray,
    y: np.ndarray,
    search_space: dict[str, tuple] | None = None,
    k: int = 5,
    seed: int = 0,
) -> tuple[ForestHyperparams, list[dict]]:
    """Exhaustive k-fold CV over the hyperparameter cross-product.

    Returns the accuracy maximizer (ties to earliest enumeration order) and
    one result row per configuration. Because tree i depends only on
    (seed, i), forests over the same data that differ only in n_estimators
    share their tree prefix; the evaluation exploits that by growing, for
    each structural configuration (every key but n_estimators), the largest
    forest once per fold and scoring the vote matrix's first columns for
    each size.
    """
    space = search_space or SEARCH_SPACE
    if not space:
        raise ValueError("search space must be non-empty")
    if k < 2:
        raise ValueError(f"need k >= 2 folds, got {k}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(X) < k:
        raise ValueError(f"fewer samples ({len(X)}) than folds ({k})")
    keys = list(space)
    struct_keys = [key for key in keys if key != "n_estimators"]
    sizes = space.get("n_estimators", (ForestHyperparams().n_estimators,))
    folds = cv_folds(len(X), k, seed)

    # Fold accuracies per (structural values, forest size).
    fold_accs: dict[tuple, list[float]] = {}
    for struct in itertools.product(*(space[key] for key in struct_keys)):
        hp = ForestHyperparams(**dict(zip(struct_keys, struct)), n_estimators=max(sizes))
        by_size = {s: [] for s in sizes}
        for fold in folds:
            forest = train_forest(np.delete(X, fold, axis=0), np.delete(y, fold), hp, seed)
            leaf = _leaf_classes(forest, X[fold])
            for s, accs in by_size.items():
                pred = np.argmax(_class_counts(leaf[:, :s], forest.n_classes), axis=1)
                accs.append(float(np.mean(pred == y[fold])))
        for s, accs in by_size.items():
            fold_accs[struct, s] = accs

    rows = []
    for combo in itertools.product(*(space[key] for key in keys)):
        cfg = dict(zip(keys, combo))
        accs = fold_accs[tuple(cfg[key] for key in struct_keys), cfg.get("n_estimators", sizes[0])]
        rows.append({**cfg, "fold_accuracies": accs, "mean_accuracy": float(np.mean(accs))})
    best = max(rows, key=lambda row: row["mean_accuracy"])
    return ForestHyperparams(**{key: best[key] for key in keys}), rows


def save_forest(path, forest: Forest) -> None:
    """Versioned flat serialization; round-trips bit-exactly."""
    meta = {
        "schema": "forest/3",
        "n_classes": forest.n_classes,
        "n_features": forest.n_features,
        "n_trees": len(forest.trees),
        "hyperparams": asdict(forest.hyperparams),
    }
    arrays = {k: getattr(forest, k) for k in _NODE_ARRAYS}
    arrays["offsets"] = np.append(forest.trees, len(forest.feature)).astype(np.int64)
    write_blocks(path, meta, arrays)


def _check_forest(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Reject node tables that predict could not route safely.

    A split's children, right - 1 and right, must come after it and before
    the next tree's root, the order the writer emits; that is what makes
    traversal terminate. A leaf must point to itself with a NaN threshold:
    a threshold some value passes would send the walk back to right - 1, an
    earlier node.
    """
    for key in ("n_classes", "n_features", "n_trees"):
        if not isinstance(meta.get(key), int) or meta[key] < 1:
            raise ValueError(f"{path}: meta {key} must be a positive integer")
    for k in ("offsets",) + _NODE_ARRAYS:
        a = arrays.get(k)
        if a is None or a.ndim != 1 or a.dtype.kind not in ("f" if k == "threshold" else "iu"):
            raise ValueError(f"{path}: array {k} is missing or not a 1-D array of its kind")
    offsets = arrays["offsets"].astype(np.int64)  # signed, so np.diff cannot wrap
    n_nodes = len(arrays["feature"])
    if (
        len(offsets) != meta["n_trees"] + 1
        or offsets[0] != 0
        or offsets[-1] != n_nodes
        or np.any(np.diff(offsets) < 1)
    ):
        raise ValueError(f"{path}: offsets do not split {n_nodes} nodes into n_trees trees")
    for k in _NODE_ARRAYS:
        if len(arrays[k]) != n_nodes:
            raise ValueError(f"{path}: array {k} has {len(arrays[k])} entries, expected {n_nodes}")
    feature = arrays["feature"]
    if np.any((feature < -1) | (feature >= meta["n_features"])):
        raise ValueError(f"{path}: feature index outside [-1, {meta['n_features']})")
    leaf = feature == -1
    threshold = arrays["threshold"]
    if not np.all(np.isfinite(threshold[~leaf])):
        raise ValueError(f"{path}: non-finite split threshold")
    leaf_class = arrays["leaf_class"][leaf]
    if np.any((leaf_class < 0) | (leaf_class >= meta["n_classes"])):
        raise ValueError(f"{path}: leaf class outside [0, {meta['n_classes']})")
    node = np.arange(n_nodes)
    right = arrays["right"].astype(np.int64)  # an index past int64 wraps negative, and fails
    bad = leaf & ((right != node) | ~np.isnan(threshold))
    if bad.any():
        raise ValueError(f"{path}: leaf {int(np.argmax(bad))} is not its own right child "
                         "with a NaN threshold")
    tree_end = np.repeat(offsets[1:], np.diff(offsets))
    bad = ~leaf & ((right <= node + 1) | (right >= tree_end))
    if bad.any():
        raise ValueError(f"{path}: right child of node {int(np.argmax(bad))} is not a later node "
                         "of its tree with the left child before it")


def load_forest(path) -> Forest:
    meta, arrays = read_blocks(path)
    if meta.get("schema") != "forest/3":
        raise ValueError(f"{path}: not a forest model file (schema {meta.get('schema')!r})")
    _check_forest(path, meta, arrays)
    try:
        hp = ForestHyperparams(**meta["hyperparams"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: bad hyperparams ({exc})") from None
    return Forest(
        hyperparams=hp,
        n_classes=meta["n_classes"],
        n_features=meta["n_features"],
        trees=arrays["offsets"][:-1].astype(np.int64),
        **{k: arrays[k].astype(dtype, copy=False) for k, dtype in _NODE_DTYPES.items()},
    )
