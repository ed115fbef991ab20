"""Random forest classifier built on axis-aligned Gini trees.

Trees grow depth-first on bootstrap samples, examining a random feature
subset at every node.  Candidate thresholds are midpoints between
consecutive distinct sorted values; ties in impurity are broken toward
the lowest feature index, then the lowest threshold, so refitting is
reproducible bit for bit.  Rows with value <= threshold go left.

Every tree draws from its own seeded generator, so a tree and its bag
depend on its index alone.  `fit_forest` grows the trees through a `map`
over their indices and joins the pairs it yields, in index order, into
the model (out-of-bag error, importances).  The train stage hands it a
pool's map, whose forked workers grow the trees while the calling
process fits the network (see `pipeline._fit_models`); this module
starts no process.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .codec import foreign, is_int, is_number, list_of, load_settings, read_artifact, write_json
from .errors import ConfigError, DataError
from .seeding import derive_seed


@dataclass(frozen=True)
class RfParams:
    """Forest hyperparameters; defaults follow the tuned baseline."""

    n_estimators: int = 200
    max_depth: int = 60
    min_samples_split: int = 8
    min_samples_leaf: int = 3
    max_features: str | int = "sqrt"
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        # each bound is written as a comparison that NaN fails
        if not self.n_estimators >= 1:
            raise DataError("n_estimators must be >= 1")
        if not self.max_depth >= 1:
            raise DataError("max_depth must be >= 1")
        if not self.min_samples_split >= 2:
            raise DataError("min_samples_split must be >= 2")
        if not self.min_samples_leaf >= 1:
            raise DataError("min_samples_leaf must be >= 1")
        if isinstance(self.max_features, str):
            if self.max_features not in ("sqrt", "all"):
                raise DataError("max_features must be 'sqrt', 'all', or a positive int")
        elif not self.max_features >= 1:
            raise DataError("integer max_features must be >= 1")


@dataclass
class DecisionTree:
    """Flat array encoding of one fitted tree (index 0 is the root)."""

    feature: np.ndarray  # int32, -1 marks a leaf
    threshold: np.ndarray  # float64, 0.0 at leaves
    left: np.ndarray  # int32, -1 at leaves
    right: np.ndarray  # int32, -1 at leaves
    proba1: np.ndarray  # float64, class-1 fraction of training rows at the node
    feature_decrease: np.ndarray  # float64 (d,), weighted Gini decrease per feature

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)


# the arrays of each tree that model.rf.json holds, in field order, with their dtypes
_TREE_ARRAYS = {"feature": np.int32, "threshold": np.float64, "left": np.int32,
                "right": np.int32, "proba1": np.float64}


@dataclass
class ForestModel:
    params: RfParams
    trees: list[DecisionTree]
    oob_error: float | None  # None when no row is out of any bag
    importances: np.ndarray  # (d,), nonnegative, sums to 1
    n_features: int


def n_sub_features(d: int, max_features) -> int:
    if max_features == "sqrt":
        return min(d, math.ceil(math.sqrt(d)))
    if max_features == "all":
        return d
    return min(d, int(max_features))


def _feature_subset(rng, d: int, m: int) -> np.ndarray:
    if m >= d:
        return np.arange(d)
    # sorted so the tie-break order never depends on the draw order
    return np.sort(rng.choice(d, size=m, replace=False))


def _best_split(x, y, idx, feats, min_leaf):
    """Best (feature, threshold, weighted child impurity) over `feats`.

    Returns None when no cut satisfies the leaf-size constraint.  Ties
    keep the lowest feature index, then the lowest threshold.  A cut
    falls between two distinct sorted values, so the class-1 rows left
    of it are those at or below the lower value, whatever the order
    among equal values: a plain sort of the values and one of the
    class-1 values give every count, with no argsort.
    """
    y_node = y[idx]
    total = idx.size
    ones = y_node == 1
    total1 = int(ones.sum())
    best = None  # (w, feature, threshold)
    for f in feats:
        vals = x[idx, f]
        sv = np.sort(vals)
        pos = (sv[1:] != sv[:-1]).nonzero()[0]  # cut after sorted position pos
        # both children keep min_leaf rows: min_leaf - 1 <= pos < total - min_leaf
        lo, hi = pos.searchsorted((min_leaf - 1, total - min_leaf))
        if lo >= hi:
            continue
        pos = pos[lo:hi]
        below = sv[pos]
        n_l = pos + 1
        n_r = total - n_l
        ones_l = np.sort(vals[ones]).searchsorted(below, side="right")
        ones_r = total1 - ones_l
        g_l = 1.0 - (ones_l / n_l) ** 2 - ((n_l - ones_l) / n_l) ** 2
        g_r = 1.0 - (ones_r / n_r) ** 2 - ((n_r - ones_r) / n_r) ** 2
        w = (n_l * g_l + n_r * g_r) / total
        j = int(w.argmin())  # first minimum = lowest threshold
        thr = (below[j] + sv[pos[j] + 1]) / 2.0
        if best is None or w[j] < best[0]:
            best = (float(w[j]), int(f), float(thr))
    return best


def fit_tree(x, y, params: RfParams, rng=None):
    """Grow one Gini decision tree.

    Each node tries a subset of `params.max_features` features drawn
    from `rng` (by default seeded with 0).  A node becomes a leaf when
    pure, smaller than min_samples_split, at max_depth, or without any cut
    honouring min_samples_leaf.  Zero-gain splits are allowed, which is
    what lets depth-2 trees shatter XOR.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DataError("x must be 2-d with one label per row")
    if x.shape[0] == 0:
        raise DataError("cannot fit a tree on zero rows")
    if np.isnan(x).any():
        # NaN has no place in the sorted order the split search counts on
        raise DataError("x must not contain NaN")
    n, d = x.shape
    if rng is None:
        rng = np.random.default_rng(0)
    m = n_sub_features(d, params.max_features)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    proba1: list[float] = []
    decrease = np.zeros(d)

    def grow(idx, depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        n_node = idx.size
        ones = int(y[idx].sum())
        proba1.append(ones / n_node)
        if ones in (0, n_node):
            return node
        if n_node < params.min_samples_split or depth >= params.max_depth:
            return node
        feats = _feature_subset(rng, d, m)
        best = _best_split(x, y, idx, feats, params.min_samples_leaf)
        if best is None:
            return node
        w, f, thr = best
        go_left = x[idx, f] <= thr
        left_idx = idx[go_left]
        right_idx = idx[~go_left]
        if left_idx.size == 0 or right_idx.size == 0:
            # midpoint rounded onto a sample value; no usable cut
            return node
        p1 = ones / n_node
        parent_gini = 1.0 - p1 * p1 - (1.0 - p1) * (1.0 - p1)
        decrease[f] += (n_node / n) * max(parent_gini - w, 0.0)
        feature[node] = int(f)
        threshold[node] = thr
        left[node] = grow(left_idx, depth + 1)
        right[node] = grow(right_idx, depth + 1)
        return node

    grow(np.arange(n), 0)
    return DecisionTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        proba1=np.asarray(proba1, dtype=np.float64),
        feature_decrease=decrease,
    )


def tree_predict_proba1(tree: DecisionTree, x) -> np.ndarray:
    """Class-1 probability per row from one tree (leaf label fractions)."""
    x = np.asarray(x, dtype=np.float64)
    node = np.zeros(x.shape[0], dtype=np.int64)
    while True:
        f = tree.feature[node]
        active = np.nonzero(f >= 0)[0]
        if active.size == 0:
            break
        fa = f[active]
        go_left = x[active, fa] <= tree.threshold[node[active]]
        nxt = np.where(go_left, tree.left[node[active]], tree.right[node[active]])
        node[active] = nxt
    return tree.proba1[node]


def _fit_one(x, y, params, tree_index):
    n = x.shape[0]
    tree_seed = derive_seed(params.seed, f"tree:{tree_index}")
    rng = np.random.default_rng(tree_seed)
    if params.bootstrap:
        rows = rng.integers(0, n, size=n)
    else:
        rows = np.arange(n)
    tree = fit_tree(x[rows], y[rows], params, rng=rng)
    in_bag = np.zeros(n, dtype=bool)
    in_bag[rows] = True
    return tree, in_bag


def fit_forest(x, y, params: RfParams, map=map) -> ForestModel:
    """Fit `params.n_estimators` trees on bootstrap samples.

    Each tree draws from its own generator seeded by
    derive_seed(params.seed, "tree:<index>"), so the result does not
    depend on where its trees were grown: `map` grows them, as the
    builtin would, and must yield their (tree, in-bag mask) pairs in
    index order.  OOB error is the
    misclassification rate over rows voted on only by trees whose
    bootstrap missed them; rows in every bag are excluded.  With
    `bootstrap` false every row is, so the error is None: undefined, not 0.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DataError("x must be 2-d with one label per row")
    classes = np.unique(y)
    if classes.size < 2:
        raise DataError("training labels contain a single class")
    if not np.isin(classes, (0, 1)).all():
        raise DataError("labels must be 0/1")
    n, d = x.shape

    trees = []
    oob_sum = np.zeros(n)
    oob_votes = np.zeros(n, dtype=np.int64)
    for tree, in_bag in map(partial(_fit_one, x, y, params), range(params.n_estimators)):
        trees.append(tree)
        out = ~in_bag
        if out.any():
            oob_sum[out] += tree_predict_proba1(tree, x[out])
            oob_votes[out] += 1
    voted = oob_votes > 0
    oob_error = None
    if voted.any():
        pred = (oob_sum[voted] / oob_votes[voted]) >= 0.5
        oob_error = float(np.mean(pred.astype(np.int64) != y[voted]))

    raw = np.zeros(d)
    for tree in trees:
        raw += tree.feature_decrease
    raw /= len(trees)
    total = float(raw.sum())
    importances = raw / total if total > 0.0 else np.full(d, 1.0 / d)

    return ForestModel(
        params=params,
        trees=trees,
        oob_error=oob_error,
        importances=importances,
        n_features=d,
    )


def forest_predict_proba(model: ForestModel, x) -> np.ndarray:
    """Mean class-1 probability over the ensemble, one value per row."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise DataError(f"expected {model.n_features} feature columns")
    acc = np.zeros(x.shape[0])
    for tree in model.trees:
        acc += tree_predict_proba1(tree, x)
    return acc / len(model.trees)


def save_forest(model: ForestModel, path) -> None:
    payload = {
        "params": asdict(model.params),
        "n_features": model.n_features,
        "oob_error": model.oob_error,
        "importances": model.importances.tolist(),
        "trees": [{k: getattr(t, k).tolist() for k in _TREE_ARRAYS} for t in model.trees],
    }
    write_json(path, payload, kind="random-forest", compact=True)


def _trees_well_formed(trees: list[DecisionTree], d: int) -> bool:
    """Whether each tree's five arrays share one nonzero length, every
    feature lies in [-1, d), every threshold is finite, every `proba1`
    lies in [0, 1], and each internal node's children lie after it and
    inside its tree.  `fit_tree` stores every parent before its
    children, so a tree that passes has no cycle for a walk to loop on.
    One pass covers all trees' arrays, joined end to end."""
    shapes = [(t.feature.size,) for t in trees]
    if not trees or (0,) in shapes or any(
        [getattr(t, k).shape for t in trees] != shapes for k in _TREE_ARRAYS
    ):
        return False
    feature, threshold, left, right, proba1 = (
        np.concatenate([getattr(t, k) for t in trees]) for k in _TREE_ARRAYS)
    sizes = np.array(shapes).ravel()
    n_nodes = np.repeat(sizes, sizes)  # of each node's tree
    node = np.arange(n_nodes.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    inner = feature >= 0
    node, n_nodes = node[inner], n_nodes[inner]
    return bool(
        (feature >= -1).all() and (feature < d).all() and np.isfinite(threshold).all()
        and ((proba1 >= 0) & (proba1 <= 1)).all()
        and all(((child[inner] > node) & (child[inner] < n_nodes)).all() for child in (left, right))
    )


def load_forest(path, n_features: int | None = None) -> ForestModel:
    """The forest saved at `path`; exit 4 unless it is well formed and
    scores `n_features` columns, when given."""
    payload = read_artifact(path, "random-forest", "train", {
        "n_features": lambda d: is_int(d) and d > 0 and n_features in (None, d),
        "oob_error": lambda error: error is None or is_number(error),
        "importances": list_of(is_number),
        "trees": list_of(lambda tree: isinstance(tree, dict)),
    })
    d = payload["n_features"]
    try:
        params = load_settings(RfParams, payload["params"])
        importances = np.asarray(payload["importances"], dtype=np.float64)
        trees = [
            DecisionTree(**{k: np.asarray(t[k], dtype=dtype) for k, dtype in _TREE_ARRAYS.items()},
                         feature_decrease=np.zeros(d))
            for t in payload["trees"]
        ]
    # params that load_settings refuses; a tree array missing, ragged or not numbers
    except (ConfigError, DataError, KeyError, TypeError, ValueError, OverflowError):
        raise foreign(path, "random-forest", "train") from None
    if importances.shape != (d,) or not _trees_well_formed(trees, d):
        raise foreign(path, "random-forest", "train")
    return ForestModel(
        params=params,
        trees=trees,
        oob_error=payload["oob_error"],
        importances=importances,
        n_features=d,
    )
