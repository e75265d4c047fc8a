"""Random forest built from scratch: CART trees, Gini splits, mode voting.

Trees grow on bootstrap resamples with a random ceil(sqrt(d))-feature subset
per node; candidate thresholds are midpoints between consecutive distinct
sorted values. Each cut's Gini comes from running class counts: two integer
cumsums give the sums of squared class counts left and right of every cut,
with no per-class count table. Prediction is the mode of per-tree votes and
the probability of a class is the fraction of trees voting for it. Tree i
draws only from substream (seed, "tree", i), so forests with the same seed
share a tree prefix whatever their size; grid_search scores every forest
size from one grown forest on that basis.

The whole forest is one flat node table, used alike by training, by
prediction (every row walks every tree together, one vectorized step per
depth level) and by the model file. The file (schema forest/2) stores the
node arrays as they are, with children as table indices, plus `offsets`:
the root of each tree followed by the node count.

Training splits the trees into contiguous index ranges, one per CPU the
process may use. Each range grows into a node table of its own, the parent
growing the first while forked workers grow the rest, and the tables are
joined in tree order with their children shifted by the nodes before them.
Since tree i depends only on its substream, the joined table is the one a
single loop over the trees builds.
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
    "left": np.int32,
    "right": np.int32,
    "leaf_class": np.int32,
}
_NODE_ARRAYS = tuple(_NODE_DTYPES)


@dataclass
class Forest:
    """All trees in one flat node table; feature == -1 marks a leaf.

    Tree i occupies the nodes from trees[i] (its root) up to the next root.
    left and right index the whole table, and every child comes after its
    parent. A leaf holds the majority class of its training samples
    (histogram argmax, lowest class index on ties).
    """

    hyperparams: ForestHyperparams
    n_classes: int
    n_features: int
    trees: np.ndarray  # (n_trees,) root node indices
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_class: np.ndarray


def _best_split(
    Xn: np.ndarray, yn: np.ndarray, n_classes: int, min_leaf: int, hist: np.ndarray | None = None
):
    """Best (column, threshold, weighted Gini) over the given feature columns.

    Ties resolve to the earliest column, then the lowest threshold. Returns
    None when no split satisfies the leaf-size constraint. `hist` is the
    node's class histogram T (counted from yn when not given).

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
    if hist is None:
        hist = np.bincount(yn, minlength=n_classes)
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

    feature, threshold, left, right, leaf_class = (table[k] for k in _NODE_ARRAYS)

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
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
        left[node], right[node] = lnode, rnode
        stack.append((rnode, rows[~go_left], depth + 1))
        stack.append((lnode, rows[go_left], depth + 1))
    return root


def _grow_trees(
    X: np.ndarray, y: np.ndarray, n_classes: int, hp: ForestHyperparams, seed: int,
    start: int, stop: int,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Grow trees start..stop-1 into a node table of their own: (roots, arrays)."""
    table: dict[str, list] = {k: [] for k in _NODE_ARRAYS}
    roots = [
        _grow_tree(X, y, n_classes, hp, substream(seed, "tree", i), table)
        for i in range(start, stop)
    ]
    return np.array(roots, dtype=np.int64), {
        k: np.array(v, dtype=_NODE_DTYPES[k]) for k, v in table.items()
    }


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where workers cannot be forked."""
    if not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return len(os.sched_getaffinity(0))


def train_forest(X: np.ndarray, y: np.ndarray, hp: ForestHyperparams, seed: int) -> Forest:
    """Grow n_estimators trees; tree i draws from substream (seed, "tree", i).

    The trees are split into contiguous index ranges, one per usable CPU (at
    most one per tree). The parent grows the first range while forked
    workers grow the others; the ranges' tables are joined in tree order,
    so the forest is the same table whatever the number of CPUs.
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
    roots, table = [], {k: [] for k in _NODE_ARRAYS}
    base = 0
    for chunk_roots, arrays in chunks:
        roots.append(chunk_roots + base)
        for k in _NODE_ARRAYS:
            a = arrays[k]
            table[k].append(np.where(a >= 0, a + base, a) if k in ("left", "right") else a)
        base += len(arrays["feature"])
    return Forest(
        hyperparams=hp,
        n_classes=n_classes,
        n_features=X.shape[1],
        trees=np.concatenate(roots),
        **{k: np.concatenate(v) for k, v in table.items()},
    )


def _leaf_classes(forest: Forest, X: np.ndarray) -> np.ndarray:
    """(N, n_trees) class that each tree votes for each row.

    Every (row, tree) pair starts at that tree's root; each step moves all
    pairs still on a split node one level down, so there are as many steps
    as the deepest path is long.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != forest.n_features:
        raise ValueError(f"expected {forest.n_features} features, got {X.shape[1]}")
    n_trees = len(forest.trees)
    node = np.tile(forest.trees, len(X))  # row-major (row, tree) pairs
    live = np.arange(len(node))
    while len(live):
        cur = node[live]
        feat = forest.feature[cur]
        split = feat >= 0
        live, cur, feat = live[split], cur[split], feat[split]
        go_left = X[live // n_trees, feat] <= forest.threshold[cur]
        node[live] = np.where(go_left, forest.left[cur], forest.right[cur])
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
    share their tree prefix; the evaluation exploits that by growing the
    largest forest once per fold and scoring the vote matrix's first
    columns for each size.
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
    keys = list(space.keys())
    configs = [dict(zip(keys, combo)) for combo in itertools.product(*(space[k] for k in keys))]

    perm = substream(seed, "cv").permutation(len(X))
    folds = np.array_split(perm, k)
    sizes = sorted(set(cfg.get("n_estimators", ForestHyperparams().n_estimators) for cfg in configs))
    max_size = max(sizes)

    # Accuracy per (structural config, fold, forest size); structural config
    # is everything except n_estimators.
    cache: dict[tuple, dict[int, list[float]]] = {}
    for cfg in configs:
        struct = tuple((kk, vv) for kk, vv in sorted(cfg.items()) if kk != "n_estimators")
        if struct in cache:
            continue
        hp_full = ForestHyperparams(**{**cfg, "n_estimators": max_size})
        by_size: dict[int, list[float]] = {s: [] for s in sizes}
        for fold in folds:
            mask = np.ones(len(X), dtype=bool)
            mask[fold] = False
            forest = train_forest(X[mask], y[mask], hp_full, seed)
            leaf = _leaf_classes(forest, X[fold])
            for s in sizes:
                pred = np.argmax(_class_counts(leaf[:, :s], forest.n_classes), axis=1)
                by_size[s].append(float(np.mean(pred == y[fold])))
        cache[struct] = by_size

    rows: list[dict] = []
    best_cfg: dict | None = None
    best_acc = -1.0
    for cfg in configs:
        struct = tuple((kk, vv) for kk, vv in sorted(cfg.items()) if kk != "n_estimators")
        fold_accs = cache[struct][cfg.get("n_estimators", ForestHyperparams().n_estimators)]
        mean_acc = float(np.mean(fold_accs))
        rows.append({**cfg, "fold_accuracies": fold_accs, "mean_accuracy": mean_acc})
        if mean_acc > best_acc:
            best_acc = mean_acc
            best_cfg = cfg
    assert best_cfg is not None
    return ForestHyperparams(**best_cfg), rows


def save_forest(path, forest: Forest) -> None:
    """Versioned flat serialization; round-trips bit-exactly."""
    meta = {
        "schema": "forest/2",
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

    Every child index must point past its parent and before the next tree's
    root, the order the writer emits; that is what makes traversal
    terminate.
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
    if not np.all(np.isfinite(arrays["threshold"])):
        raise ValueError(f"{path}: non-finite split threshold")
    leaf = feature == -1
    leaf_class = arrays["leaf_class"][leaf]
    if np.any((leaf_class < 0) | (leaf_class >= meta["n_classes"])):
        raise ValueError(f"{path}: leaf class outside [0, {meta['n_classes']})")
    node = np.arange(n_nodes)
    tree_end = np.repeat(offsets[1:], np.diff(offsets))
    for k in ("left", "right"):
        bad = ~leaf & ((arrays[k] <= node) | (arrays[k] >= tree_end))
        if bad.any():
            raise ValueError(
                f"{path}: {k} child of node {int(np.argmax(bad))} is not a later node of its tree"
            )


def load_forest(path) -> Forest:
    meta, arrays = read_blocks(path)
    if meta.get("schema") != "forest/2":
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
