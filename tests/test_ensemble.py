import gc
import json
import math
import multiprocessing
import os
import signal
import struct

import numpy as np
import pytest

from atcadet import ensemble as es
from atcadet import errors
from atcadet.cli import main
from atcadet.errors import (
    BadConfig,
    BadHeader,
    BadJson,
    CoverageMismatch,
    DimMismatch,
    MissingEmbedding,
    NonFinite,
    SingularSystem,
    TooFewExamples,
    TruncatedFile,
    WrongKind,
)
from atcadet.metrics import Trial, write_scores
from atcadet.protocol import ProtocolEntry, write_protocol
from atcadet.text import TextEmbedding, write_embeddings

from _oracles import ridge_gd_oracle, simplex_bruteforce_oracle


def _embedding(utt_id, vec):
    row = np.asarray(vec, dtype=np.float64).reshape(1, -1)
    return TextEmbedding(utt_id, row, (("audioset", 0, 1),))


def _entries(labels):
    return [
        ProtocolEntry(f"u{i}", f"u{i}.wav", lab, "gen", "train")
        for i, lab in enumerate(labels)
    ]


SMALL_CFG = es.StackConfig(gbm_rounds=10, forest_trees=5, forest_depth=3)


class TestMetaExamples:
    def test_feature_vector_concatenates(self):
        ex = es.MetaExample("u0", [0.5, -1.0], [3.0, 4.0, 5.0], 1.0)
        assert es.feature_vector(ex).tolist() == [0.5, -1.0, 3.0, 4.0, 5.0]

    def test_rejects_empty_scores_and_nonfinite(self):
        with pytest.raises(DimMismatch):
            es.MetaExample("u0", [], [1.0])
        with pytest.raises(NonFinite):
            es.MetaExample("u0", [np.nan], [1.0])
        with pytest.raises(NonFinite):
            es.MetaExample("u0", [0.0], [np.inf])

    def test_build_aligns_to_protocol_order(self):
        entries = _entries(["bonafide", "spoof", "bonafide"])
        # score lists deliberately shuffled relative to the protocol
        set_a = [Trial("u2", 0.2), Trial("u0", 0.0), Trial("u1", 0.1)]
        set_b = [Trial("u1", 1.1), Trial("u2", 1.2), Trial("u0", 1.0)]
        embs = {e.utt_id: _embedding(e.utt_id, [float(i), 0.0]) for i, e in enumerate(entries)}
        examples = es.build_meta_examples([set_a, set_b], embs, entries)
        assert [e.utt_id for e in examples] == ["u0", "u1", "u2"]
        assert examples[1].base_scores.tolist() == [0.1, 1.1]
        assert examples[1].target == 0.0
        assert examples[0].target == 1.0 and examples[2].target == 1.0
        assert examples[2].text_feat.tolist() == [2.0, 0.0]

    def test_build_feature_length_is_bases_plus_text_dim(self):
        entries = _entries(["bonafide", "spoof"])
        sets = [[Trial("u0", 0.0), Trial("u1", 1.0)] for _ in range(3)]
        embs = {"u0": _embedding("u0", np.zeros(7)), "u1": _embedding("u1", np.ones(7))}
        examples = es.build_meta_examples(sets, embs, entries)
        assert all(len(es.feature_vector(e)) == 3 + 7 for e in examples)

    def test_build_takes_an_embedding_dict(self):
        entries = _entries(["bonafide"])
        sets = [[Trial("u0", 0.5)]]
        as_dict = es.build_meta_examples(sets, {"u0": _embedding("u0", [1.0])}, entries)
        assert as_dict[0].text_feat.tolist() == [1.0]

    def test_coverage_mismatch_missing_and_extra(self):
        entries = _entries(["bonafide", "spoof"])
        embs = {e.utt_id: _embedding(e.utt_id, [0.0]) for e in entries}
        with pytest.raises(CoverageMismatch):
            es.build_meta_examples([[Trial("u0", 0.0)]], embs, entries)
        with pytest.raises(CoverageMismatch):
            es.build_meta_examples(
                [[Trial("u0", 0.0), Trial("u1", 0.1), Trial("stray", 9.0)]], embs, entries
            )

    def test_missing_embedding(self):
        entries = _entries(["bonafide", "spoof"])
        sets = [[Trial("u0", 0.0), Trial("u1", 1.0)]]
        with pytest.raises(MissingEmbedding):
            es.build_meta_examples(sets, {"u0": _embedding("u0", [0.0])}, entries)


def _float_best_split(x_node, y_node, feat_idx):
    """The float-argsort split search the rank-based one replaced: the
    reference its splits and bytes must equal."""
    n = len(y_node)
    xf = x_node[:, feat_idx]
    order = np.argsort(xf, axis=0, kind="stable")
    xs = np.take_along_axis(xf, order, axis=0)
    ys = y_node[order]
    csum = np.cumsum(ys, axis=0)
    csq = np.cumsum(ys * ys, axis=0)
    left_n = np.arange(1, n, dtype=np.float64)[:, None]
    right_n = n - left_n
    left_sum, left_sq = csum[:-1], csq[:-1]
    right_sum = csum[-1] - left_sum
    right_sq = csq[-1] - left_sq
    sse = (left_sq - left_sum**2 / left_n) + (right_sq - right_sum**2 / right_n)
    sse = np.where(xs[:-1] < xs[1:], sse, np.inf)
    pos = np.argmin(sse, axis=0)
    per_feat = sse[pos, np.arange(len(feat_idx))]
    best = int(np.argmin(per_feat))
    if not np.isfinite(per_feat[best]):
        return None
    row = pos[best]
    threshold = (xs[row, best] + xs[row + 1, best]) / 2.0
    return int(feat_idx[best]), float(threshold), float(per_feat[best])


def _float_grow(x, y, idx, depth, rng, n_feats):
    y_node = y[idx]
    leaf = es.TreeNode(value=float(y_node.mean()))
    if depth == 0 or len(idx) < 2 or np.all(y_node == y_node[0]):
        return leaf
    d = x.shape[1]
    if rng is not None and n_feats is not None and n_feats < d:
        feat_idx = np.sort(rng.choice(d, size=n_feats, replace=False))
    else:
        feat_idx = np.arange(d)
    found = _float_best_split(x[idx], y_node, feat_idx)
    if found is None:
        return leaf
    feature, threshold, split_sse = found
    if split_sse >= es._node_sse(y_node) - 1e-12:
        return leaf
    mask = x[idx, feature] <= threshold
    node = es.TreeNode(value=leaf.value, feature=feature, threshold=threshold)
    node.left = _float_grow(x, y, idx[mask], depth - 1, rng, n_feats)
    node.right = _float_grow(x, y, idx[~mask], depth - 1, rng, n_feats)
    return node


def _float_trees(x, y, kind, **kw):
    """fit_tree / fit_gbm / fit_forest trees as the float search grows them."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if kind == "tree":
        return [_float_grow(x, y, np.arange(len(y)), kw["max_depth"], None, None)]
    if kind == "gbm":
        pred = np.full(len(y), float(y.mean()))
        trees = []
        for _ in range(kw["rounds"]):
            trees.append(_float_grow(x, y - pred, np.arange(len(y)), kw["depth"], None, None))
            pred += kw["shrinkage"] * es.predict_tree(trees[-1], x)
        return trees
    d = x.shape[1]
    n_feats = max(1, min(d, math.ceil(kw["feature_frac"] * d)))
    trees = []
    for t in range(kw["n_trees"]):
        rng = np.random.default_rng([kw["seed"], t])
        idx = rng.integers(0, len(y), size=len(y))
        trees.append(_float_grow(x[idx], y[idx], np.arange(len(y)), kw["max_depth"], rng, n_feats))
    return trees


def _hostile_xy(n, d, seed):
    """Heavy ties, -0.0 beside 0.0 and both infinities in x."""
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(size=(n, d)), 1)
    for value, share in ((0.0, 0.1), (-0.0, 0.1), (np.inf, 0.03), (-np.inf, 0.03)):
        x[rng.random(size=(n, d)) < share] = value
    x[:, 0] = np.round(rng.normal(size=n))  # a few distinct values only
    x[:, 1] = rng.permutation(n) / 4.0  # all distinct: the rank n - 1 occurs
    return x, np.round(rng.normal(size=n), 2)


def _as_json(trees):
    # json spells NaN thresholds and leaves, which == would not match
    return json.dumps([t.to_dict() for t in trees], sort_keys=True)


# a boundary into +inf has threshold +inf, so its right child is empty
@pytest.mark.filterwarnings("ignore:Mean of empty slice", "ignore:invalid value encountered")
class TestRankSearchMatchesFloatSearch:
    @pytest.mark.parametrize("n", [2, 40, 256, 300])
    def test_ranks_order_like_values(self, n):
        x, _ = _hostile_xy(n, 6, seed=n)
        ranks = es._rank_columns(x)
        assert ranks.dtype == (np.uint8 if n <= 256 else np.uint16)
        for j in range(x.shape[1]):
            order = np.argsort(x[:, j], kind="stable")
            assert np.array_equal(np.argsort(ranks[:, j], kind="stable"), order)
            xs, rs = x[order, j], ranks[order, j]
            assert np.array_equal(rs[:-1] < rs[1:], xs[:-1] < xs[1:])

    @pytest.mark.parametrize("n", [40, 256, 300])
    @pytest.mark.parametrize("depth", [1, 3, 8])
    def test_fit_tree(self, n, depth):
        x, y = _hostile_xy(n, 6, seed=depth)
        # fit_tree, like fit_gbm and fit_forest, rejects non-finite x; this
        # is its search alone, run on such x
        got = es._grow(x, y, np.arange(n), depth, None, None, es._Columns(x))
        assert _as_json([got]) == _as_json(_float_trees(x, y, "tree", max_depth=depth))

    @pytest.mark.parametrize("n", [40, 300])
    def test_fit_gbm(self, n):
        x, y = _hostile_xy(n, 5, seed=n + 1)
        kw = dict(rounds=12, depth=4, shrinkage=0.3)
        # fit_gbm rejects non-finite x; this is its loop, on the search alone
        pred = np.full(n, float(y.mean()))
        cols = es._Columns(x, cache=True)
        got = []
        for _ in range(kw["rounds"]):
            got.append(es._grow(x, y - pred, np.arange(n), kw["depth"], None, None, cols))
            cols.next_round()
            pred += kw["shrinkage"] * es.predict_tree(got[-1], x)
        assert _as_json(got) == _as_json(_float_trees(x, y, "gbm", **kw))

    @pytest.mark.parametrize("n", [40, 300])
    def test_fit_forest(self, n):
        x, y = _hostile_xy(n, 9, seed=n + 2)
        kw = dict(n_trees=6, max_depth=5, feature_frac=0.4, seed=7)
        # fit_forest rejects non-finite x; this is its loop, on the search alone
        n_feats = math.ceil(kw["feature_frac"] * x.shape[1])
        cols = es._Columns(x)
        got = []
        for t in range(kw["n_trees"]):
            rng = np.random.default_rng([kw["seed"], t])
            idx = rng.integers(0, n, size=n)
            got.append(es._grow(x, y, idx, kw["max_depth"], rng, n_feats, cols))
        assert _as_json(got) == _as_json(_float_trees(x, y, "forest", **kw))

    @pytest.mark.parametrize("kind", ["gbm", "forest"])
    def test_public_fit_on_finite_x(self, kind):
        x, y = _hostile_xy(300, 9, seed=11)
        x[~np.isfinite(x)] = 0.0
        if kind == "gbm":
            kw = dict(rounds=12, depth=4, shrinkage=0.3)
            got = es.fit_gbm(x, y, **kw)
        else:
            kw = dict(n_trees=6, max_depth=5, feature_frac=0.4, seed=7)
            got = es.fit_forest(x, y, **kw)
        assert _as_json(got.trees) == _as_json(_float_trees(x, y, kind, **kw))

    def test_equal_sse_goes_to_first_feature_and_boundary(self):
        # boundaries 0|123 and 012|3 tie exactly, in both (identical) columns
        x = np.repeat(np.arange(4.0)[:, None], 2, axis=1)
        y = np.array([0.0, 1.0, 1.0, 0.0])
        found = es._best_split(x, y, np.arange(2))
        assert found == _float_best_split(x, y, np.arange(2))
        assert found[:2] == (0, 0.5)

    def test_best_split_on_all_rows_matches(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            x, y = _hostile_xy(int(rng.integers(2, 30)), 4, seed=int(rng.integers(1 << 30)))
            feat_idx = np.sort(rng.choice(4, size=int(rng.integers(1, 5)), replace=False))
            assert repr(es._best_split(x, y, feat_idx)) == repr(_float_best_split(x, y, feat_idx))


class TestTrees:
    def test_stump_splits_two_points(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        tree = es.fit_tree(x, y, max_depth=1)
        assert not tree.is_leaf
        assert tree.feature == 0 and tree.threshold == 0.5
        assert es.predict_tree(tree, x).tolist() == [0.0, 1.0]

    def test_left_branch_takes_boundary(self):
        tree = es.fit_tree(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), 1)
        assert es.predict_tree(tree, np.array([[0.5]]))[0] == 0.0

    def test_pure_targets_give_leaf(self):
        tree = es.fit_tree(np.array([[0.0], [1.0], [2.0]]), np.full(3, 7.0), 5)
        assert tree.is_leaf and tree.value == 7.0

    def test_constant_feature_gives_leaf(self):
        tree = es.fit_tree(np.zeros((4, 1)), np.array([0.0, 1.0, 0.0, 1.0]), 5)
        assert tree.is_leaf and tree.value == 0.5

    def test_depth_zero_is_mean_leaf(self):
        y = np.array([1.0, 2.0, 6.0])
        tree = es.fit_tree(np.arange(3.0).reshape(-1, 1), y, 0)
        assert tree.is_leaf and tree.value == y.mean()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_features_rejected(self, bad):
        with pytest.raises(NonFinite):
            es.fit_tree(np.array([[0.0], [1.0], [bad]]), np.array([0.0, 1.0, 2.0]), 2)

    def test_nan_row_rejected(self):
        x = np.array([[0.0, 1.0], [np.nan, np.nan], [2.0, 3.0]])
        with pytest.raises(NonFinite):
            es.fit_tree(x, np.array([0.0, 1.0, 2.0]), 2)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_gbm_rejects_non_finite_features(self, bad):
        with pytest.raises(NonFinite):
            es.fit_gbm(np.array([[0.0], [1.0], [bad]]), np.array([0.0, 1.0, 2.0]), rounds=2, depth=2)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_forest_rejects_non_finite_features(self, bad):
        with pytest.raises(NonFinite):
            es.fit_forest(np.array([[0.0], [1.0], [bad]]), np.array([0.0, 1.0, 2.0]), n_trees=2)

    def test_deep_tree_memorizes_distinct_rows(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(32, 4))
        y = rng.normal(size=32)
        tree = es.fit_tree(x, y, max_depth=32)
        assert np.allclose(es.predict_tree(tree, x), y)

    def test_split_matches_exhaustive_search(self):
        # enumerate every (feature, boundary) pair by brute force
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(3, 12))
            x = np.round(rng.normal(size=(n, 3)), 1)  # rounding forces ties
            y = rng.normal(size=n)
            best = (np.inf, None, None)
            for f in range(3):
                for thr in np.unique(x[:, f])[:-1]:
                    mask = x[:, f] <= thr
                    sse = sum(
                        float(np.sum((y[m] - y[m].mean()) ** 2)) for m in (mask, ~mask)
                    )
                    if sse < best[0] - 1e-12:
                        best = (sse, f, thr)
            found = es._best_split(x, y, np.arange(3))
            if best[1] is None:
                assert found is None
                continue
            feature, threshold, split_sse = found
            assert split_sse == pytest.approx(best[0], abs=1e-9)
            mask_found = x[:, feature] <= threshold
            mask_best = x[:, best[1]] <= best[2]
            sse_found = sum(
                float(np.sum((y[m] - y[m].mean()) ** 2)) for m in (mask_found, ~mask_found)
            )
            assert sse_found == pytest.approx(best[0], abs=1e-9)

    def test_node_dict_round_trip(self):
        tree = es.fit_tree(
            np.random.default_rng(1).normal(size=(16, 2)),
            np.random.default_rng(2).normal(size=16),
            max_depth=3,
        )
        clone = es.TreeNode.from_dict(tree.to_dict())
        probe = np.random.default_rng(3).normal(size=(50, 2))
        assert es.predict_tree(clone, probe).tolist() == es.predict_tree(tree, probe).tolist()

    @pytest.mark.parametrize("seed", range(5))
    def test_batched_routing_matches_row_walk(self, seed):
        def row_walk(tree, x_rows):  # the per-row walk the batched routing replaced
            out = np.empty(len(x_rows))
            for i, row in enumerate(x_rows):
                node = tree
                while not node.is_leaf:
                    node = node.left if row[node.feature] <= node.threshold else node.right
                out[i] = node.value
            return out

        rng = np.random.default_rng(seed)
        x = np.round(rng.normal(size=(60, 4)), 1)  # coarse grid: probes hit thresholds
        y = rng.normal(size=60)
        trees = [es.fit_tree(x, y, max_depth=d) for d in (1, 3, 6)]
        trees += es.fit_forest(x, y, n_trees=4, max_depth=5, seed=seed).trees
        probe = np.vstack([x, np.round(rng.normal(size=(40, 4)), 1)])
        probe = np.vstack([probe, [(n.threshold,) * 4 for n in trees if not n.is_leaf]])
        probe[-1, 0] = np.nan
        for tree in trees:
            got = es.predict_tree(tree, probe)
            assert got.tobytes() == row_walk(tree, probe).tobytes()
        assert es.predict_tree(trees[1], probe[:0]).shape == (0,)

    def test_fit_and_predict_leave_no_reference_cycles(self):
        # a cycle keeps a tree's inputs alive until the cyclic collector runs
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=(40, 3)), rng.normal(size=40)
        gc.collect()
        gc.disable()
        try:
            es.predict_forest(es.fit_forest(x, y, n_trees=2, max_depth=3), x)
            es.predict_gbm(es.fit_gbm(x, y, rounds=2, depth=2), x)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_malformed_node_dict(self):
        with pytest.raises(BadJson):
            es.TreeNode.from_dict({"feature": 0, "threshold": 0.5, "left": {"value": 0.0}})


class TestRidge:
    def test_exact_line_fit(self):
        x = np.array([[0.0], [1.0], [2.0]])
        m = es.fit_ridge(x, np.array([0.0, 1.0, 2.0]), lam=0.0)
        assert m.weights[0] == pytest.approx(1.0, abs=1e-12)
        assert m.intercept == pytest.approx(0.0, abs=1e-12)

    def test_huge_lambda_shrinks_to_mean(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        m = es.fit_ridge(x, y, lam=1e9)
        assert np.linalg.norm(m.weights) < 1e-6
        assert m.intercept == pytest.approx(y.mean(), abs=1e-6)

    def test_matches_gradient_descent(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(20, 3))
        y = x @ np.array([0.5, -1.0, 2.0]) + 0.3 + 0.1 * rng.normal(size=20)
        for lam in (0.0, 0.7, 5.0):
            m = es.fit_ridge(x, y, lam=lam)
            w_gd, b_gd = ridge_gd_oracle(x, y, lam)
            assert np.max(np.abs(m.weights - w_gd)) <= 1e-6
            assert abs(m.intercept - b_gd) <= 1e-6

    def test_solution_is_a_local_minimum(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(15, 4))
        y = rng.normal(size=15)
        lam = 0.3
        m = es.fit_ridge(x, y, lam=lam)

        def objective(w, b):
            r = y - x @ w - b
            return float(r @ r + lam * (w @ w))

        base = objective(m.weights, m.intercept)
        for _ in range(50):
            dw = rng.normal(size=4)
            db = float(rng.normal())
            norm = np.sqrt(dw @ dw + db * db)
            dw, db = 1e-3 * dw / norm, 1e-3 * db / norm
            assert objective(m.weights + dw, m.intercept + db) >= base - 1e-12

    def test_collinear_lam_zero_is_singular(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(SingularSystem):
            es.fit_ridge(x, np.array([1.0, 2.0, 3.0]), lam=0.0)
        # any positive lambda regularizes the same system
        es.fit_ridge(x, np.array([1.0, 2.0, 3.0]), lam=1e-6)

    def test_negative_lambda_rejected(self):
        with pytest.raises(BadConfig):
            es.fit_ridge(np.ones((3, 1)), np.ones(3), lam=-1.0)

    @pytest.mark.parametrize("lam", [1e-3, 1.0, 40.0])
    def test_wide_system_matches_the_primal_solve(self, lam):
        # fewer rows than features, as the stock 88 x 770 meta-examples
        rng = np.random.default_rng(12)
        x = rng.normal(size=(30, 90))
        y = rng.normal(size=30)
        m = es.fit_ridge(x, y, lam=lam)
        xc, yc = x - x.mean(axis=0), y - y.mean()
        w = np.linalg.solve(xc.T @ xc + lam * np.eye(90), xc.T @ yc)
        np.testing.assert_allclose(m.weights, w, rtol=1e-8, atol=1e-10)
        assert m.intercept == pytest.approx(y.mean() - x.mean(axis=0) @ w, abs=1e-10)

    def test_wide_system_lam_zero_is_singular(self):
        with pytest.raises(SingularSystem):
            es.fit_ridge(np.random.default_rng(13).normal(size=(5, 8)), np.arange(5.0), lam=0.0)


class TestGbm:
    def test_zero_rounds_predicts_mean(self):
        x = np.arange(6.0).reshape(-1, 1)
        y = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        m = es.fit_gbm(x, y, rounds=0)
        assert es.predict_gbm(m, x).tolist() == [0.5] * 6

    def test_single_stump_full_shrinkage_is_exact(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        m = es.fit_gbm(x, y, rounds=1, depth=1, shrinkage=1.0)
        assert es.predict_gbm(m, x).tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("shrinkage", [0.1, 1.0])
    def test_training_mse_never_increases_per_round(self, shrinkage):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        m = es.fit_gbm(x, y, rounds=30, depth=2, shrinkage=shrinkage)
        pred = np.full(len(y), m.init)
        prev = np.mean((y - pred) ** 2)
        for tree in m.trees:
            pred += m.shrinkage * es.predict_tree(tree, x)
            cur = np.mean((y - pred) ** 2)
            assert cur <= prev + 1e-12
            prev = cur

    def test_predict_matches_training_trajectory(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(25, 2))
        y = rng.normal(size=25)
        m = es.fit_gbm(x, y, rounds=15, depth=3, shrinkage=0.2)
        pred = np.full(len(y), m.init)
        for tree in m.trees:
            pred += m.shrinkage * es.predict_tree(tree, x)
        assert np.array_equal(es.predict_gbm(m, x), pred)

    @pytest.mark.parametrize("depth", [1, 3, 5])
    def test_sort_cache_bounded_by_tree_shape(self, monkeypatch, depth):
        sizes, searches, sorts = [], [], []
        next_round, sorted_rows, sort = (
            es._Columns.next_round, es._Columns.sorted_rows, es._Columns._sort)

        def spy_next_round(cols):
            sizes.append(len(cols.current) + len(cols.previous))
            next_round(cols)

        def spy_sorted_rows(cols, idx, feat_idx):
            searches.append(idx)
            return sorted_rows(cols, idx, feat_idx)

        def spy_sort(cols, idx, feat_idx):
            sorts.append(idx)
            return sort(cols, idx, feat_idx)

        monkeypatch.setattr(es._Columns, "next_round", spy_next_round)
        monkeypatch.setattr(es._Columns, "sorted_rows", spy_sorted_rows)
        monkeypatch.setattr(es._Columns, "_sort", spy_sort)
        rng = np.random.default_rng(depth)
        x, y = rng.normal(size=(80, 4)), rng.normal(size=80)
        es.fit_gbm(x, y, rounds=60, depth=depth, shrinkage=0.5)
        assert len(sizes) == 60
        assert max(sizes) <= 2 * (2**depth - 1)
        assert len(sorts) <= len(searches) - 59  # the root, at least, is sorted once

    def test_negative_rounds_rejected(self):
        with pytest.raises(BadConfig):
            es.fit_gbm(np.ones((3, 1)), np.ones(3), rounds=-1)


class TestForest:
    def test_constant_targets(self):
        x = np.random.default_rng(0).normal(size=(10, 2))
        m = es.fit_forest(x, np.full(10, 3.0), n_trees=4, max_depth=3)
        assert np.allclose(es.predict_forest(m, x), 3.0)

    def test_degenerate_forest_equals_single_tree(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        forest = es.fit_forest(x, y, n_trees=1, max_depth=4, feature_frac=1.0, bootstrap=False)
        tree = es.fit_tree(x, y, max_depth=4)
        probe = rng.normal(size=(20, 4))
        assert es.predict_forest(forest, probe).tolist() == es.predict_tree(tree, probe).tolist()

    def test_fixed_seed_determinism(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(25, 5))
        y = rng.normal(size=25)
        a = es.fit_forest(x, y, n_trees=8, max_depth=3, seed=42)
        b = es.fit_forest(x, y, n_trees=8, max_depth=3, seed=42)
        probe = rng.normal(size=(30, 5))
        assert es.predict_forest(a, probe).tolist() == es.predict_forest(b, probe).tolist()
        c = es.fit_forest(x, y, n_trees=8, max_depth=3, seed=43)
        assert es.predict_forest(a, probe).tolist() != es.predict_forest(c, probe).tolist()

    def test_forest_mse_at_most_mean_tree_mse(self):
        # averaging can only help under squared error (Jensen, pointwise)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        m = es.fit_forest(x, y, n_trees=12, max_depth=4, seed=1)
        per_tree = [np.mean((y - es.predict_tree(t, x)) ** 2) for t in m.trees]
        forest_mse = np.mean((y - es.predict_forest(m, x)) ** 2)
        assert forest_mse <= np.mean(per_tree) + 1e-12

    def test_feature_frac_floor_is_one(self):
        x = np.random.default_rng(1).normal(size=(12, 2))
        y = np.random.default_rng(2).normal(size=12)
        m = es.fit_forest(x, y, n_trees=3, max_depth=2, feature_frac=1e-9)
        assert len(m.trees) == 3

    def test_zero_trees_rejected(self):
        with pytest.raises(BadConfig):
            es.fit_forest(np.ones((4, 1)), np.ones(4), n_trees=0)


class TestStackConfig:
    @pytest.mark.parametrize("field,value", [
        ("grid_step", 0), ("grid_step", 2), ("grid_step", -0.1), ("grid_step", float("nan")),
        ("grid_step", "0.1"), ("gbm_rounds", 2.5), ("gbm_rounds", -1), ("gbm_depth", -1),
        ("gbm_depth", 1.5), ("forest_depth", -1), ("forest_trees", 0), ("seed", -1),
        ("ridge_lambda", -1.0), ("gbm_shrinkage", float("inf")), ("feature_frac", None),
        ("bootstrap", "yes"),
    ])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(BadConfig):
            es.StackConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("grid_step", 1.5), ("grid_step", 1), ("grid_step", 0.3), ("gbm_rounds", 0),
        ("gbm_depth", 0), ("forest_depth", np.int64(2)), ("feature_frac", 1e-9),
        ("feature_frac", 0.0), ("feature_frac", 4.0), ("ridge_lambda", 0), ("seed", 2**70),
        ("gbm_shrinkage", -0.1),
    ])
    def test_edge_values_stay_valid(self, field, value):
        assert getattr(es.StackConfig(**{field: value}), field) == value


class TestCombineWeights:
    def test_dominant_component_gets_corner(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=50)
        preds = np.stack([y, rng.normal(size=50), rng.normal(size=50)], axis=1)
        assert es.choose_combine_weights(preds, y) == (1.0, 0.0, 0.0)

    def test_identical_components_prefer_uniform(self):
        y = np.linspace(0.0, 1.0, 9)
        preds = np.stack([y + 0.1, y + 0.1, y + 0.1], axis=1)
        w = es.choose_combine_weights(preds, y)
        assert w == (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(30):
            y = rng.normal(size=12)
            preds = y[:, None] + 0.5 * rng.normal(size=(12, 3))
            got = es.choose_combine_weights(preds, y, step=0.1)
            want = simplex_bruteforce_oracle(preds, y, step=0.1)
            assert got == want, f"trial {trial}"

    def test_grid_contains_corners_and_sums_to_one(self):
        grid = es.simplex_grid(0.05)
        assert (1.0, 0.0, 0.0) in grid and (0.0, 1.0, 0.0) in grid and (0.0, 0.0, 1.0) in grid
        assert all(abs(sum(w) - 1.0) < 1e-12 for w in grid)
        assert grid[-1] == (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

    def test_grid_size(self):
        n = round(1.0 / 0.05)
        assert len(es.simplex_grid(0.05)) == (n + 1) * (n + 2) // 2 + 1


def _toy_examples(n, d_text=4, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        target = float(i % 2)
        base = target + 0.3 * rng.normal(size=2)
        text = rng.normal(size=d_text)
        out.append(es.MetaExample(f"u{i}", base, text, target))
    return out


class TestStacking:
    def test_fold_partition_is_leak_free(self):
        examples = _toy_examples(23)
        model, diag = es.fit_stacked(
            examples, folds=5, cfg=SMALL_CFG, return_diagnostics=True
        )
        fold_of = diag["fold_of"]
        assert sorted(np.unique(fold_of)) == [0, 1, 2, 3, 4]
        for k, rest in enumerate(diag["fold_train_indices"]):
            held = np.flatnonzero(fold_of == k)
            assert np.intersect1d(held, rest).size == 0
            assert len(held) + len(rest) == len(examples)

    def test_oof_rows_reproducible_from_fold_models(self):
        examples = _toy_examples(15)
        model, diag = es.fit_stacked(examples, folds=3, cfg=SMALL_CFG, return_diagnostics=True)
        x = np.stack([es.feature_vector(e) for e in examples])
        y = diag["targets"]
        k = 0
        rest = diag["fold_train_indices"][k]
        held = np.flatnonzero(diag["fold_of"] == k)
        gbm = es.fit_gbm(x[rest], y[rest], SMALL_CFG.gbm_rounds, SMALL_CFG.gbm_depth, SMALL_CFG.gbm_shrinkage)
        forest = es.fit_forest(
            x[rest], y[rest], SMALL_CFG.forest_trees, SMALL_CFG.forest_depth,
            SMALL_CFG.feature_frac, SMALL_CFG.seed, SMALL_CFG.bootstrap,
        )
        ridge = es.fit_ridge(x[rest], y[rest], SMALL_CFG.ridge_lambda)
        assert np.array_equal(diag["oof_predictions"][held, 0], es.predict_gbm(gbm, x[held]))
        assert np.array_equal(diag["oof_predictions"][held, 1], es.predict_forest(forest, x[held]))
        assert np.array_equal(diag["oof_predictions"][held, 2], es.predict_ridge(ridge, x[held]))

    def test_weights_come_from_oof_grid_search(self):
        examples = _toy_examples(20, seed=3)
        model, diag = es.fit_stacked(examples, folds=4, cfg=SMALL_CFG, return_diagnostics=True)
        expect = es.choose_combine_weights(
            diag["oof_predictions"], diag["targets"], SMALL_CFG.grid_step
        )
        assert model.combine_weights == expect

    def test_too_few_examples(self):
        with pytest.raises(TooFewExamples):
            es.fit_stacked(_toy_examples(4), folds=5, cfg=SMALL_CFG)

    def test_bad_fold_count(self):
        with pytest.raises(BadConfig):
            es.fit_stacked(_toy_examples(10), folds=1, cfg=SMALL_CFG)

    def test_missing_target_rejected(self):
        examples = _toy_examples(10)
        examples[3] = es.MetaExample("u3", examples[3].base_scores, examples[3].text_feat, None)
        with pytest.raises(BadConfig):
            es.fit_stacked(examples, folds=2, cfg=SMALL_CFG)

    def test_predict_corner_weights_select_component(self):
        examples = _toy_examples(12, seed=5)
        model = es.fit_stacked(examples, folds=3, cfg=SMALL_CFG)
        x = np.stack([es.feature_vector(e) for e in examples])
        for corner, fn, sub in (
            ((1.0, 0.0, 0.0), es.predict_gbm, model.gbm),
            ((0.0, 1.0, 0.0), es.predict_forest, model.forest),
            ((0.0, 0.0, 1.0), es.predict_ridge, model.ridge),
        ):
            model.combine_weights = corner
            assert np.allclose(es.predict_stacked(model, x), fn(sub, x), atol=0.0)

    def test_predict_is_convex_combination(self):
        examples = _toy_examples(14, seed=6)
        model = es.fit_stacked(examples, folds=2, cfg=SMALL_CFG)
        x = np.stack([es.feature_vector(e) for e in examples])
        parts = [
            es.predict_gbm(model.gbm, x),
            es.predict_forest(model.forest, x),
            es.predict_ridge(model.ridge, x),
        ]
        w = model.combine_weights
        want = w[0] * parts[0] + w[1] * parts[1] + w[2] * parts[2]
        assert np.allclose(es.predict_stacked(model, x), want, atol=1e-15)

    def test_predict_dim_mismatch(self):
        model = es.fit_stacked(_toy_examples(10), folds=2, cfg=SMALL_CFG)
        with pytest.raises(DimMismatch):
            es.predict_stacked(model, np.zeros((2, model.n_features + 1)))

    def test_predict_one_matches_batch(self):
        examples = _toy_examples(10, seed=7)
        model = es.fit_stacked(examples, folds=2, cfg=SMALL_CFG)
        x = np.stack([es.feature_vector(e) for e in examples])
        batch = es.predict_stacked(model, x)
        for i in range(len(x)):
            assert es.predict_stacked(model, x[i : i + 1])[0] == batch[i]


class TestEnsembleFile:
    def _model(self, seed=0):
        return es.fit_stacked(_toy_examples(12, seed=seed), folds=3, cfg=SMALL_CFG)

    def test_write_read_write_is_byte_identical(self, tmp_path):
        p1 = tmp_path / "a.aten"
        p2 = tmp_path / "b.aten"
        model = self._model()
        es.save_ensemble(p1, model)
        es.save_ensemble(p2, es.load_ensemble(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_leaves_only_the_model(self, tmp_path):
        es.save_ensemble(tmp_path / "m.aten", self._model())
        es.save_ensemble(str(tmp_path / "m.aten"), self._model(seed=1))
        assert [p.name for p in tmp_path.iterdir()] == ["m.aten"]

    def test_failed_save_keeps_old_model_and_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "m.aten"
        es.save_ensemble(path, self._model())
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(errors.os, "replace", fail)
        with pytest.raises(OSError):
            es.save_ensemble(path, self._model(seed=1))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.aten"]

    def test_round_trip_preserves_predictions(self, tmp_path):
        model = self._model(seed=2)
        path = tmp_path / "m.aten"
        es.save_ensemble(path, model)
        clone = es.load_ensemble(path)
        probe = np.random.default_rng(0).normal(size=(20, model.n_features))
        assert np.array_equal(es.predict_stacked(clone, probe), es.predict_stacked(model, probe))
        assert clone.combine_weights == model.combine_weights

    def test_wrong_kind_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"ATCK" + b"\x00" * 16)
        with pytest.raises(WrongKind):
            es.load_ensemble(path)

    def test_junk_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"JUNK" + b"\x00" * 16)
        with pytest.raises(BadHeader):
            es.load_ensemble(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"ATEN" + struct.pack("<II", 2, 0))
        with pytest.raises(BadHeader):
            es.load_ensemble(path)

    def test_truncated_body(self, tmp_path):
        good = tmp_path / "good.aten"
        es.save_ensemble(good, self._model())
        bad = tmp_path / "bad.aten"
        bad.write_bytes(good.read_bytes()[:-10])
        with pytest.raises(TruncatedFile):
            es.load_ensemble(bad)

    def test_trailing_data(self, tmp_path):
        good = tmp_path / "good.aten"
        es.save_ensemble(good, self._model())
        bad = tmp_path / "bad.aten"
        bad.write_bytes(good.read_bytes() + b"\x00")
        with pytest.raises(BadHeader):
            es.load_ensemble(bad)

    def test_corrupt_json_body(self, tmp_path):
        blob = b"{not json"
        path = tmp_path / "x.aten"
        path.write_bytes(b"ATEN" + struct.pack("<II", 1, len(blob)) + blob)
        with pytest.raises(BadJson):
            es.load_ensemble(path)

    def test_non_simplex_weights_rejected(self, tmp_path):
        good = tmp_path / "good.aten"
        es.save_ensemble(good, self._model())
        d = json.loads(good.read_bytes()[12:].decode())
        d["combine_weights"] = [0.9, 0.9, 0.9]
        blob = json.dumps(d, sort_keys=True, separators=(",", ":")).encode()
        bad = tmp_path / "bad.aten"
        bad.write_bytes(b"ATEN" + struct.pack("<II", 1, len(blob)) + blob)
        with pytest.raises(BadJson):
            es.load_ensemble(bad)

    def test_empty_forest_rejected_at_load(self, tmp_path):
        good = tmp_path / "good.aten"
        es.save_ensemble(good, self._model())
        d = json.loads(good.read_bytes()[12:].decode())
        d["forest"].update(trees=[], seeds=[])
        with pytest.raises(BadJson, match="forest holds no trees"):
            es.StackedModel.from_dict(d)
        blob = json.dumps(d, sort_keys=True, separators=(",", ":")).encode()
        bad = tmp_path / "bad.aten"
        bad.write_bytes(b"ATEN" + struct.pack("<II", 1, len(blob)) + blob)
        with pytest.raises(BadJson):
            es.load_ensemble(bad)


def _fit_inputs(root, n=11):
    """Protocol, two score files and embeddings of an ``n``-utterance dev
    split, and the ``ensemble fit`` arguments that read them. At 11 rows
    and 5 folds, fold 0 holds 3 rows out and the other folds 2, so the
    fits on fold 0's training rows are the only ones on 8 rows."""
    rng = np.random.default_rng(0)
    entries = [ProtocolEntry(f"u{i}", f"u{i}.wav", "bonafide" if i % 2 else "spoof", "gen", "dev")
               for i in range(n)]
    write_protocol(root / "protocol.tsv", entries)
    for name in ("a", "b"):
        write_scores(root / f"{name}.tsv",
                     [Trial(e.utt_id, (e.label == "bonafide") + 0.3 * rng.normal()) for e in entries])
    write_embeddings(root / "emb.bin", [_embedding(e.utt_id, rng.normal(size=4)) for e in entries])
    return ["ensemble", "fit", "--scores", f"{root / 'a.tsv'},{root / 'b.tsv'}",
            "--embeddings", str(root / "emb.bin"), "--protocol", str(root / "protocol.tsv"),
            "--seed", "3", "--out", str(root / "stack.aten")]


class TestShares:
    """The twelve GBM and forest fits dealt out over the CPUs: share 0 in
    this process, the others in forked workers; ridge in this process."""

    def test_same_model_and_diagnostics_at_any_share_count(self, tmp_path, set_cpus):
        examples = _toy_examples(23, seed=4)
        fits = []
        for n in (1, 2, 3, 13):  # 13: more shares than jobs
            set_cpus(n)
            model, diag = es.fit_stacked(examples, folds=5, cfg=SMALL_CFG, return_diagnostics=True)
            assert multiprocessing.active_children() == []
            es.save_ensemble(tmp_path / f"{n}.aten", model)
            fits.append(((tmp_path / f"{n}.aten").read_bytes(), diag))
        first_bytes, first = fits[0]
        for blob, diag in fits[1:]:
            assert blob == first_bytes
            assert sorted(diag) == sorted(first)
            for key in ("fold_of", "oof_predictions", "targets"):
                assert np.array_equal(diag[key], first[key])
            for rest, want in zip(diag["fold_train_indices"], first["fold_train_indices"], strict=True):
                assert np.array_equal(rest, want)

    @pytest.mark.parametrize("cpus, counts", [
        (1, (6, 6)),  # no pool: every fit here
        (2, (3, 3)),  # half the GBMs and half the forests
        (3, None), (4, None), (5, None), (6, None), (11, None),
    ])
    def test_callers_share_holds_a_gbm_and_a_forest(self, cpus, counts, monkeypatch, set_cpus):
        # a traced run times both kinds from spans in this process
        set_cpus(cpus)
        here = []
        for kind in ("fit_gbm", "fit_forest"):
            def recording(*args, kind=kind, fit=getattr(es, kind)):
                here.append(kind)
                return fit(*args)
            monkeypatch.setattr(es, kind, recording)
        es.fit_stacked(_toy_examples(12), folds=5, cfg=SMALL_CFG)
        assert multiprocessing.active_children() == []
        got = (here.count("fit_gbm"), here.count("fit_forest"))
        assert min(got) >= 1
        assert counts is None or got == counts

    @pytest.mark.parametrize("kind", ["fit_gbm", "fit_forest"])
    @pytest.mark.parametrize("rows, share", [(11, 0), (8, 1)])  # all rows; fold 0's training rows
    @pytest.mark.parametrize("error, code, line", [
        (NonFinite("fit blew up"), 2, "ERROR NON_FINITE: fit blew up"),
        (OSError(28, "No space left on device"), 3, "ERROR INTERNAL: [Errno 28] No space left on device"),
    ])
    def test_fit_error_reaches_cli_as_in_serial_run(self, kind, rows, share, error, code, line,
                                                    tmp_path, monkeypatch, capsys, set_cpus):
        argv = _fit_inputs(tmp_path)
        runner = os.getpid()
        fit = getattr(es, kind)

        def failing_fit(x, y, *args):
            if len(y) == rows:
                (tmp_path / f"failed.{os.getpid()}").touch()
                raise error
            return fit(x, y, *args)

        monkeypatch.setattr(es, kind, failing_fit)
        for n in (1, 2):
            set_cpus(n)
            assert main(argv) == code
            assert capsys.readouterr().err.strip() == line
            assert not (tmp_path / "stack.aten").exists()
            assert multiprocessing.active_children() == []
            failed = [int(p.suffix[1:]) for p in tmp_path.glob("failed.*")]
            assert (failed == [runner]) == (n == 1 or share == 0)
            for p in tmp_path.glob("failed.*"):
                p.unlink()

    def test_worker_killed_gives_exit_3(self, tmp_path, monkeypatch, capsys, set_cpus):
        set_cpus(2)
        argv = _fit_inputs(tmp_path)
        runner = os.getpid()
        fit_forest = es.fit_forest

        def fit_then_die(*args):
            if os.getpid() != runner:
                os.kill(os.getpid(), signal.SIGKILL)
            return fit_forest(*args)

        monkeypatch.setattr(es, "fit_forest", fit_then_die)
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("ERROR INTERNAL:")
        assert not (tmp_path / "stack.aten").exists()
        assert multiprocessing.active_children() == []
