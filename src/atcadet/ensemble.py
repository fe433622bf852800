"""Stacked regression ensemble over base-detector scores.

Meta examples pair each utterance's base-system scores with its pooled
text feature vector. Three regressors (gradient boosting, random
forest, ridge) are fit to {0,1} targets under MSE; their convex
combination weights are tuned on out-of-fold predictions over a simplex
grid, then all three are refit on the full data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    ENSEMBLE_MAGIC,
    BadConfig,
    BadHeader,
    BadJson,
    CoverageMismatch,
    DimMismatch,
    MissingEmbedding,
    NonFinite,
    SingularSystem,
    TooFewExamples,
    atomic_write,
    check_fields,
    parse_json,
    read_blob,
    write_blob,
)
from .shares import run_shares
from .text import pool_text_vector

ENSEMBLE_VERSION = 1


@dataclass(frozen=True, eq=False)
class MetaExample:
    utt_id: str
    base_scores: np.ndarray
    text_feat: np.ndarray
    target: Optional[float] = None

    def __post_init__(self):
        base = np.asarray(self.base_scores, dtype=np.float64).reshape(-1)
        feat = np.asarray(self.text_feat, dtype=np.float64).reshape(-1)
        if base.size < 1:
            raise DimMismatch(f"{self.utt_id}: need at least one base score")
        if not (np.all(np.isfinite(base)) and np.all(np.isfinite(feat))):
            raise NonFinite(f"{self.utt_id}: non-finite meta features")
        object.__setattr__(self, "base_scores", base)
        object.__setattr__(self, "text_feat", feat)


def feature_vector(example: MetaExample) -> np.ndarray:
    return np.concatenate([example.base_scores, example.text_feat])


def build_meta_examples(score_sets, embeddings, entries) -> list:
    """Align B score lists with protocol entries and an ``{utt_id: embedding}`` dict.

    Every score set must cover exactly the protocol's utterance set.
    Targets come from protocol labels (bonafide=1, spoof=0).
    """
    protocol_utts = [e.utt_id for e in entries]
    want = set(protocol_utts)
    maps = []
    for i, trials in enumerate(score_sets):
        got = {t.utt_id for t in trials}
        if got != want:
            missing = sorted(want - got)[:3]
            extra = sorted(got - want)[:3]
            raise CoverageMismatch(
                f"score set {i} does not match the protocol (missing {missing}, extra {extra})"
            )
        maps.append({t.utt_id: t.score for t in trials})
    examples = []
    for entry in entries:
        if entry.utt_id not in embeddings:
            raise MissingEmbedding(f"no embedding for {entry.utt_id!r}")
        scores = np.array([m[entry.utt_id] for m in maps])
        feat = pool_text_vector(embeddings[entry.utt_id])
        target = 1.0 if entry.label == "bonafide" else 0.0
        examples.append(MetaExample(entry.utt_id, scores, feat, target))
    return examples


# ---------------------------------------------------------------------------
# Regression trees


@dataclass
class TreeNode:
    value: float = 0.0
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"value": float(self.value)}
        return {
            "feature": int(self.feature),
            "threshold": float(self.threshold),
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TreeNode":
        if "value" in d:
            return cls(value=float(d["value"]))
        if not {"feature", "threshold", "left", "right"} <= set(d):
            raise BadJson(f"malformed tree node: {sorted(d)}")
        return cls(
            feature=int(d["feature"]),
            threshold=float(d["threshold"]),
            left=cls.from_dict(d["left"]),
            right=cls.from_dict(d["right"]),
        )


def _rank_columns(x: np.ndarray) -> np.ndarray:
    """Per-column integer ranks of the finite ``x``.

    Ranks are equal for equal values (-0.0 ties 0.0) and ordered like the
    values. They are stored in the smallest unsigned dtype that holds
    ``n - 1``, so a node's stable argsort over its ranks is numpy's radix
    sort and gives the same permutation as a stable argsort over the
    floats.
    """
    order = np.argsort(x, axis=0, kind="stable")
    xs = np.take_along_axis(x, order, axis=0)
    steps = np.zeros(x.shape, dtype=np.min_scalar_type(max(len(x) - 1, 0)))
    steps[1:] = xs[:-1] < xs[1:]
    np.cumsum(steps, axis=0, dtype=steps.dtype, out=steps)
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, steps, axis=0)
    return ranks


class _Columns:
    """The per-column ranks of a tree's ``x``, and for boosting a cache of
    each node's sorted row order.

    Boosting searches every column at every node, and its rounds grow
    trees over the same few row sets, so a node's order and its tied
    boundaries are kept by row set alone. Only the current and the
    previous round's nodes are kept: at most ``2 * (2**depth - 1)``
    entries, whatever the number of rounds.
    """

    def __init__(self, x: np.ndarray, cache: bool = False):
        self.ranks = _rank_columns(x)
        self.current = {} if cache else None
        self.previous = {}

    def sorted_rows(self, idx: np.ndarray, feat_idx: np.ndarray):
        """Stable order of rows ``idx`` in each column of ``feat_idx``,
        and the flat indices of the sorted neighbour pairs that tie, so
        are no split boundary."""
        if self.current is None:
            return self._sort(idx, feat_idx)
        key = idx.tobytes()
        found = self.current.get(key)
        if found is None:
            found = self.previous.pop(key, None)
            if found is None:
                found = self._sort(idx, feat_idx)
            self.current[key] = found
        return found

    def next_round(self) -> None:
        self.previous, self.current = self.current, {}

    def _sort(self, idx, feat_idx):
        r = self.ranks[idx][:, feat_idx]
        order = np.argsort(r, axis=0, kind="stable")
        # a flat take: several times faster than take_along_axis here
        rs = r.ravel().take(order * len(feat_idx) + np.arange(len(feat_idx))).reshape(r.shape)
        return order, np.flatnonzero(rs[:-1] == rs[1:])


def _best_split(x: np.ndarray, y_node: np.ndarray, feat_idx: np.ndarray, idx=None, cols=None):
    """Exact enumeration: per candidate feature, scan every boundary
    between distinct sorted values of rows ``idx`` of ``x`` (all rows by
    default) and minimize summed child SSE; ties go to the first feature,
    then the first boundary.

    Rows are sorted on the integer ranks of ``cols`` (built from ``x``
    when not given), which orders ties exactly as a stable float sort
    would; a boosting ``cols`` caches that order per row set, bounded by
    the tree shape. The SSE is computed op for op as
    ``(left_sq - left_sum**2/left_n) + (right_sq - right_sum**2/right_n)``
    in place, and the threshold is read from ``x`` at the two rows around
    the best boundary, so the split and its bytes match a float-sorted
    search.
    """
    if idx is None:
        idx = np.arange(len(y_node))
    if cols is None:
        cols = _Columns(x)
    order, tied = cols.sorted_rows(idx, feat_idx)
    n = len(y_node)
    ys = y_node[order]
    csum = np.cumsum(ys, axis=0)
    csq = np.cumsum(np.multiply(ys, ys, out=ys), axis=0, out=ys)
    left_n = np.arange(1, n, dtype=np.float64)[:, None]
    right_n = n - left_n
    # the first n-1 rows of csum and csq become the right sums once the
    # left term is done
    left_sum, left_sq = csum[:-1], csq[:-1]
    sse = np.square(left_sum)
    sse /= left_n
    np.subtract(left_sq, sse, out=sse)
    right_sum = np.subtract(csum[-1], left_sum, out=left_sum)
    right_sq = np.subtract(csq[-1], left_sq, out=left_sq)
    np.square(right_sum, out=right_sum)
    right_sum /= right_n
    sse += np.subtract(right_sq, right_sum, out=right_sq)
    sse.put(tied, np.inf)
    per_feat = sse.min(axis=0)
    best = int(np.argmin(per_feat))
    if not np.isfinite(per_feat[best]):
        return None
    row = int(np.argmin(sse[:, best]))
    feature = int(feat_idx[best])
    lo, hi = idx[order[row, best]], idx[order[row + 1, best]]
    threshold = (x[lo, feature] + x[hi, feature]) / 2.0
    return feature, float(threshold), float(per_feat[best])


def _node_sse(y_node: np.ndarray) -> float:
    return float(np.sum((y_node - y_node.mean()) ** 2))


def _grow(x, y, idx, depth, rng, n_feats, cols) -> TreeNode:
    """Grow the subtree over rows ``idx`` of ``x`` (repeats allowed),
    left child before right (the order the forest's feature draws
    follow). Module-level, not a closure inside fit_tree: a closure that
    calls itself is a reference cycle, which kept each tree's inputs
    alive until the cyclic collector ran."""
    y_node = y[idx]
    leaf = TreeNode(value=float(y_node.mean()))
    if depth == 0 or len(idx) < 2 or np.all(y_node == y_node[0]):
        return leaf
    d = x.shape[1]
    if rng is not None and n_feats is not None and n_feats < d:
        feat_idx = np.sort(rng.choice(d, size=n_feats, replace=False))
    else:
        feat_idx = np.arange(d)
    found = _best_split(x, y_node, feat_idx, idx, cols)
    if found is None:
        return leaf
    feature, threshold, split_sse = found
    if split_sse >= _node_sse(y_node) - 1e-12:
        return leaf
    mask = x[idx, feature] <= threshold
    node = TreeNode(value=leaf.value, feature=feature, threshold=threshold)
    node.left = _grow(x, y, idx[mask], depth - 1, rng, n_feats, cols)
    node.right = _grow(x, y, idx[~mask], depth - 1, rng, n_feats, cols)
    return node


def _require_finite(x: np.ndarray) -> None:
    # a split threshold is the midpoint of two neighbouring values
    if not np.isfinite(x).all():
        raise NonFinite("tree features must be finite")


def fit_tree(x: np.ndarray, y: np.ndarray, max_depth: int, rng=None, n_feats: Optional[int] = None) -> TreeNode:
    """Regression tree on rows of ``x``, which must be finite."""
    _require_finite(x)
    return _grow(x, y, np.arange(len(y)), max_depth, rng, n_feats, _Columns(x))


def predict_tree(tree: TreeNode, x_rows: np.ndarray) -> np.ndarray:
    """Route all rows down together: one boolean split per node; a row
    goes left when its feature is <= the threshold (NaN goes right)."""
    x_rows = np.asarray(x_rows, dtype=np.float64)
    out = np.empty(len(x_rows))
    # an explicit stack, not a recursive closure (see _grow)
    pending = [(tree, np.arange(len(x_rows)))]
    while pending:
        node, idx = pending.pop()
        if node.is_leaf:
            out[idx] = node.value
        elif idx.size:
            mask = x_rows[idx, node.feature] <= node.threshold
            pending += [(node.left, idx[mask]), (node.right, idx[~mask])]
    return out


# ---------------------------------------------------------------------------
# The three regressors


@dataclass
class RidgeModel:
    weights: np.ndarray
    intercept: float
    lam: float


def fit_ridge(x: np.ndarray, y: np.ndarray, lam: float = 1.0) -> RidgeModel:
    """Normal equations on centered data; the intercept is unpenalized.

    With fewer rows than features (n < d) it solves the n x n dual system,
    ``w = xcᵀ (xc xcᵀ + λI)⁻¹ yc``, equal to the primal one by the
    push-through identity; that also keeps the stock 88 x 770 fit's bytes
    the same at any BLAS thread count. λ = 0 with n < d is singular and
    rejected before either solve.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if lam < 0:
        raise BadConfig("ridge lambda must be >= 0")
    mu_x = x.mean(axis=0)
    mu_y = y.mean()
    xc = x - mu_x
    yc = y - mu_y
    n, d = x.shape
    if lam == 0.0 and np.linalg.matrix_rank(xc) < d:
        raise SingularSystem("collinear features with lambda=0; the normal equations are singular")
    try:
        if n < d:
            w = xc.T @ np.linalg.solve(xc @ xc.T + lam * np.eye(n), yc)
        else:
            w = np.linalg.solve(xc.T @ xc + lam * np.eye(d), xc.T @ yc)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    return RidgeModel(w, float(mu_y - mu_x @ w), float(lam))


def predict_ridge(m: RidgeModel, x_rows: np.ndarray) -> np.ndarray:
    return np.asarray(x_rows, dtype=np.float64) @ m.weights + m.intercept


@dataclass
class GbmModel:
    init: float
    trees: list
    shrinkage: float


def fit_gbm(x, y, rounds: int = 100, depth: int = 3, shrinkage: float = 0.1) -> GbmModel:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if rounds < 0:
        raise BadConfig("rounds must be >= 0")
    _require_finite(x)
    init = float(y.mean())
    pred = np.full(len(y), init)
    cols = _Columns(x, cache=True)
    rows = np.arange(len(y))
    trees = []
    for _ in range(rounds):
        tree = _grow(x, y - pred, rows, depth, None, None, cols)
        cols.next_round()
        trees.append(tree)
        pred += shrinkage * predict_tree(tree, x)
    return GbmModel(init, trees, float(shrinkage))


def predict_gbm(m: GbmModel, x_rows: np.ndarray) -> np.ndarray:
    x_rows = np.asarray(x_rows, dtype=np.float64)
    pred = np.full(len(x_rows), m.init)
    for tree in m.trees:
        pred += m.shrinkage * predict_tree(tree, x_rows)
    return pred


@dataclass
class ForestModel:
    trees: list
    seeds: list
    feature_frac: float


def fit_forest(
    x,
    y,
    n_trees: int = 100,
    max_depth: int = 6,
    feature_frac: float = 1.0 / 3.0,
    seed: int = 0,
    bootstrap: bool = True,
) -> ForestModel:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if n_trees < 1:
        raise BadConfig("n_trees must be >= 1")
    _require_finite(x)
    d = x.shape[1]
    n_feats = max(1, min(d, math.ceil(feature_frac * d)))
    cols = _Columns(x)
    trees = []
    seeds = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        seeds.append(t)
        # a bootstrap sample is the root's row set, repeats and all
        idx = rng.integers(0, len(y), size=len(y)) if bootstrap else np.arange(len(y))
        trees.append(_grow(x, y, idx, max_depth, rng, n_feats, cols))
    return ForestModel(trees, seeds, float(feature_frac))


def predict_forest(m: ForestModel, x_rows: np.ndarray) -> np.ndarray:
    x_rows = np.asarray(x_rows, dtype=np.float64)
    total = np.zeros(len(x_rows))
    for tree in m.trees:
        total += predict_tree(tree, x_rows)
    return total / len(m.trees)


# ---------------------------------------------------------------------------
# Stacking


@dataclass(frozen=True)
class StackConfig:
    ridge_lambda: float = 1.0
    gbm_rounds: int = 100
    gbm_depth: int = 3
    gbm_shrinkage: float = 0.1
    forest_trees: int = 100
    forest_depth: int = 6
    feature_frac: float = 1.0 / 3.0
    bootstrap: bool = True
    seed: int = 0
    grid_step: float = 0.05

    def __post_init__(self):
        check_fields(vars(self), ints=(("gbm_rounds", 0), ("gbm_depth", 0), ("forest_trees", 1),
                                       ("forest_depth", 0), ("seed", 0)),
                     reals=("ridge_lambda", "gbm_shrinkage", "feature_frac", "grid_step"),
                     flags=("bootstrap",))
        if self.ridge_lambda < 0:
            raise BadConfig("ridge lambda must be >= 0")
        # simplex_grid divides by round(1 / grid_step)
        if self.grid_step <= 0 or round(1.0 / self.grid_step) < 1:
            raise BadConfig(f"grid_step must give at least one grid division, got {self.grid_step}")


@dataclass
class StackedModel:
    gbm: GbmModel
    forest: ForestModel
    ridge: RidgeModel
    combine_weights: tuple
    n_features: int

    def to_dict(self) -> dict:
        return {
            "combine_weights": [float(w) for w in self.combine_weights],
            "n_features": int(self.n_features),
            "gbm": {
                "init": float(self.gbm.init),
                "shrinkage": float(self.gbm.shrinkage),
                "trees": [t.to_dict() for t in self.gbm.trees],
            },
            "forest": {
                "feature_frac": float(self.forest.feature_frac),
                "seeds": [int(s) for s in self.forest.seeds],
                "trees": [t.to_dict() for t in self.forest.trees],
            },
            "ridge": {
                "weights": [float(v) for v in self.ridge.weights],
                "intercept": float(self.ridge.intercept),
                "lambda": float(self.ridge.lam),
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StackedModel":
        try:
            weights = tuple(float(w) for w in d["combine_weights"])
            gbm = GbmModel(
                float(d["gbm"]["init"]),
                [TreeNode.from_dict(t) for t in d["gbm"]["trees"]],
                float(d["gbm"]["shrinkage"]),
            )
            forest = ForestModel(
                [TreeNode.from_dict(t) for t in d["forest"]["trees"]],
                [int(s) for s in d["forest"]["seeds"]],
                float(d["forest"]["feature_frac"]),
            )
            ridge = RidgeModel(
                np.array([float(v) for v in d["ridge"]["weights"]]),
                float(d["ridge"]["intercept"]),
                float(d["ridge"]["lambda"]),
            )
            n_features = int(d["n_features"])
        except (KeyError, ValueError, TypeError, RecursionError) as exc:
            raise BadJson(f"malformed ensemble model: {exc}") from exc
        if len(ridge.weights) != n_features:
            raise BadJson(f"ridge has {len(ridge.weights)} weights for {n_features} features")
        if not forest.trees:
            raise BadJson("forest holds no trees")
        pending = gbm.trees + forest.trees
        while pending:
            node = pending.pop()
            if not node.is_leaf:
                if not 0 <= node.feature < n_features:
                    raise BadJson(f"tree feature {node.feature} outside [0, {n_features})")
                pending += [node.left, node.right]
        if len(weights) != 3 or any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
            raise BadJson(f"combine_weights must lie on the 3-simplex, got {weights}")
        if ridge.lam < 0:
            raise BadJson("ridge lambda must be >= 0")
        return cls(gbm, forest, ridge, weights, n_features)


def simplex_grid(step: float = 0.05) -> list:
    """All grid points on the 3-simplex plus the exact-uniform candidate."""
    n = round(1.0 / step)
    combos = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            combos.append((i / n, j / n, (n - i - j) / n))
    combos.append((1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0))
    return combos


def choose_combine_weights(preds: np.ndarray, y: np.ndarray, step: float = 0.05) -> tuple:
    """Minimize MSE of the convex combination over the simplex grid.

    Ties within a 1e-9 relative band prefer the uniform candidate, then
    earliest enumeration order.
    """
    preds = np.asarray(preds, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    combos = simplex_grid(step)
    c = np.array(combos)
    errs = preds @ c.T - y[:, None]
    mses = np.mean(errs * errs, axis=0)
    best = float(mses.min())
    band = best * (1.0 + 1e-9) + 1e-18
    uniform = combos[-1]
    if mses[-1] <= band:
        return uniform
    for combo, mse in zip(combos, mses):
        if mse <= band:
            return combo
    raise AssertionError("unreachable: minimum not within its own band")


def _fit_trees(jobs, x, y, fold_of, cfg: StackConfig) -> list:
    """For each (kind, fold) job: the model fit on all rows when fold is
    None, else the fold model's predictions on the fold's held-out rows."""
    out = []
    for kind, fold in jobs:
        rows = slice(None) if fold is None else fold_of != fold
        if kind == "gbm":
            model = fit_gbm(x[rows], y[rows], cfg.gbm_rounds, cfg.gbm_depth, cfg.gbm_shrinkage)
            predict = predict_gbm
        else:
            model = fit_forest(x[rows], y[rows], cfg.forest_trees, cfg.forest_depth,
                               cfg.feature_frac, cfg.seed, cfg.bootstrap)
            predict = predict_forest
        out.append(model if fold is None else predict(model, x[fold_of == fold]))
    return out


def fit_stacked(examples, folds: int = 5, cfg: StackConfig = StackConfig(), return_diagnostics: bool = False):
    """Fit the stack on ``examples`` with ``folds``-fold out-of-fold
    combine weights.

    The GBM and forest fits are independent of each other, so they run
    over every CPU (``shares.run_shares``). The ridge fits stay in this
    process, after them: ridge runs on BLAS, whose threads in two
    processes spin against each other (a run that also fitted ridge in
    the workers was slower than a serial one).
    """
    if folds < 2:
        raise BadConfig("need at least 2 folds")
    examples = list(examples)
    if len(examples) < folds:
        raise TooFewExamples(f"{len(examples)} examples cannot fill {folds} folds")
    if any(e.target is None for e in examples):
        raise BadConfig("every example needs a target to fit the stack")
    x = np.stack([feature_vector(e) for e in examples])
    y = np.array([e.target for e in examples], dtype=np.float64)
    n = len(y)

    rng = np.random.default_rng(cfg.seed)
    fold_of = np.empty(n, dtype=np.int64)
    for k, chunk in enumerate(np.array_split(rng.permutation(n), folds)):
        fold_of[chunk] = k

    # a GBM on all rows (fold None), then on each fold's training rows; the
    # same for the forest. Dealt interleaved, share 0 holds a GBM and a
    # forest fit at any share count below 2 * (folds + 1), so a traced run
    # times both kinds in this process, and two shares each get half the
    # GBMs and half the forests.
    jobs = [(kind, fold) for kind in ("gbm", "forest") for fold in (None, *range(folds))]
    trees = dict(zip(jobs, run_shares(_fit_trees, jobs, x, y, fold_of, cfg)))
    oof = np.zeros((n, 3))
    fold_train_indices = []
    for k in range(folds):
        hold = np.flatnonzero(fold_of == k)
        rest = np.flatnonzero(fold_of != k)
        fold_train_indices.append(rest)
        oof[hold, 0] = trees["gbm", k]
        oof[hold, 1] = trees["forest", k]
        oof[hold, 2] = predict_ridge(fit_ridge(x[rest], y[rest], cfg.ridge_lambda), x[hold])

    weights = choose_combine_weights(oof, y, cfg.grid_step)
    ridge = fit_ridge(x, y, cfg.ridge_lambda)
    model = StackedModel(trees["gbm", None], trees["forest", None], ridge, weights, x.shape[1])
    if return_diagnostics:
        diag = {
            "fold_of": fold_of,
            "fold_train_indices": fold_train_indices,
            "oof_predictions": oof,
            "targets": y,
        }
        return model, diag
    return model


def predict_stacked(model: StackedModel, x) -> np.ndarray:
    x_rows = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x_rows.shape[1] != model.n_features:
        raise DimMismatch(f"expected {model.n_features} features, got {x_rows.shape[1]}")
    w = model.combine_weights
    return (
        w[0] * predict_gbm(model.gbm, x_rows)
        + w[1] * predict_forest(model.forest, x_rows)
        + w[2] * predict_ridge(model.ridge, x_rows)
    )


# ---------------------------------------------------------------------------
# Ensemble model file


def save_ensemble(path, model: StackedModel) -> None:
    blob = json.dumps(model.to_dict(), sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path) as fh:
        write_blob(fh, ENSEMBLE_MAGIC, ENSEMBLE_VERSION, blob)


def load_ensemble(path) -> StackedModel:
    with open(path, "rb") as fh:
        blob = read_blob(fh, path, ENSEMBLE_MAGIC, ENSEMBLE_VERSION, "an ensemble model")
        if fh.read(1):
            raise BadHeader(f"{path}: trailing data after model body")
    return StackedModel.from_dict(parse_json(blob, path))
