import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import naive_best_split, searched_build_tree

from chewdet import boosting
from chewdet.boosting import (
    BoostConfig,
    TrainedModel,
    classify_candidates,
    load_model,
    model_from_text,
    model_to_text,
    predict_proba,
    predict_raw,
    save_model,
    split_counts,
    train,
)
from chewdet.periodic import CandidateWindow

TOY_X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
TOY_Y = np.array([0, 0, 1, 1])


def zero_hessian_case(min_child_weight=0.0):
    # With eta = 1 and no L2 damping, p saturates to exactly 1.0 on a
    # node's rows in round 36, so its hessian sum is 0 with reg_lambda 0.
    rng = np.random.default_rng(0)
    for _ in range(7):
        X = rng.normal(size=(12, 2))
    cfg = BoostConfig(eta=1, reg_lambda=0, min_child_weight=min_child_weight, n_rounds=100,
                      subsample=1, max_depth=2)
    return X, X[:, 0] > 0, cfg


def toy_config(**overrides):
    base = dict(
        eta=0.3, max_depth=1, gamma=0.0, min_child_weight=0.0,
        subsample=1.0, n_rounds=10, seed=0, reg_lambda=0.0,
    )
    base.update(overrides)
    return BoostConfig(**base)


def count_calls(monkeypatch, name):
    """The argument tuples of every call to ``boosting.<name>`` from now on."""
    calls = []
    real = getattr(boosting, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(boosting, name, counted)
    return calls


def node_depths(tree):
    """Each node's depth, in the tree's node order."""
    depths = [0] * len(tree)
    for i, node in enumerate(tree):
        if not node.is_leaf:
            depths[node.left] = depths[node.right] = depths[i] + 1
    return depths


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


# Feature 0's best cut leaves a zero-hessian child (gain +inf); feature 1's
# first cut leaves G = H = 0 on the left (0/0, NaN) with reg_lambda = 0.
NAN_CUT = (
    np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 3.0], [2.0, 1.0]]),
    np.array([0.0, 2.0, -2.0, 1.0]),
    np.array([0.0, 0.0, 1.0, 1.0]),
    np.arange(4),
    BoostConfig(gamma=0.0, min_child_weight=0.0, reg_lambda=0.0),
)
# One cut with G = +-1 and H = 1 per side: with reg_lambda = 1 its gain is 0.5.
HALF_GAIN = (np.array([[0.0], [1.0]]), np.array([1.0, -1.0]), np.ones(2), np.arange(2))


def best_split(X, g, h, rows, cfg):
    """``boosting._best_split`` on the node's order, kept from a sort of all
    rows as ``train`` keeps it."""
    keep = np.zeros(X.shape[0], dtype=bool)
    keep[rows] = True
    order = boosting._keep(np.argsort(X.T, axis=1, kind="stable"), keep, rows.size)
    return boosting._best_split(X, g, h, rows, order, cfg)


def split_outcome(search, X, g, h, rows, cfg):
    """(feature, threshold bits) or None, or the exception raised when a
    node's hessian sum and reg_lambda are both 0."""
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            found = search(X, g, h, rows, cfg)
    except ZeroDivisionError as exc:
        return type(exc)
    return None if found is None else (found[0], found[1].hex())


@st.composite
def split_searches(draw):
    # Few distinct values, so ties and constant columns are common; h
    # includes 0 and min_child_weight and gamma sit on reachable sums.
    n, width = draw(st.integers(1, 6)), draw(st.integers(0, 4))
    values = st.sampled_from([-1.5, 0.0, 0.1, 0.2, 0.3, 7.0])
    X = np.array(draw(st.lists(st.lists(values, min_size=width, max_size=width),
                               min_size=n, max_size=n)))
    g = draw(st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
                      min_size=n, max_size=n))
    h = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n, max_size=n))
    rows = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    cfg = BoostConfig(
        gamma=draw(st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0])),
        min_child_weight=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])),
        reg_lambda=draw(st.sampled_from([0.0, 1.0])),
    )
    return X, np.array(g), np.array(h), np.array(rows), cfg


class TestSplitSearch:
    @settings(max_examples=500, deadline=None)
    @given(split_searches())
    @example(NAN_CUT)
    @example((*HALF_GAIN, BoostConfig(gamma=0.5, min_child_weight=0.0)))
    @example((*HALF_GAIN, BoostConfig(gamma=0.0, min_child_weight=1.0)))
    def test_matches_per_feature_oracle(self, case):
        assert split_outcome(best_split, *case) == split_outcome(naive_best_split, *case)

    def test_nan_best_cut_skips_only_its_feature(self):
        assert split_outcome(best_split, *NAN_CUT) == (0, (0.5).hex())

    def test_gain_must_exceed_gamma(self):
        cfg = BoostConfig(gamma=0.5, min_child_weight=1.0)
        assert best_split(*HALF_GAIN, cfg) is None
        assert best_split(*HALF_GAIN, replace(cfg, gamma=0.4375)) == (0, 0.5)


def trained_text(X, y, cfg):
    """The saved model, or the error that training raised."""
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            return model_to_text(train(X, y, cfg))
    except ValueError as exc:
        return str(exc)


def naive_node_search(X, g, h, rows, order, cfg):
    return naive_best_split(X, g, h, rows, cfg)


@st.composite
def training_sets(draw, min_child_weights=(0.0, 0.25, 1.0)):
    # Few distinct values (-0.0 ties 0.0) and repeated columns make ties
    # common within and across features.
    n, width = draw(st.integers(2, 24)), draw(st.integers(1, 3))
    values = st.sampled_from([-1.5, -0.0, 0.0, 0.1, 0.2, 7.0])
    X = np.array(draw(st.lists(st.lists(values, min_size=width, max_size=width),
                               min_size=n, max_size=n)))
    X = X[:, draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=5))]
    y = np.array(draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)
                      .filter(lambda labels: 0 < sum(labels) < len(labels))))
    cfg = BoostConfig(
        eta=draw(st.sampled_from([0.3, 1.0])),
        max_depth=draw(st.integers(1, 3)),
        gamma=draw(st.sampled_from([0.0, 0.125])),
        min_child_weight=draw(st.sampled_from(min_child_weights)),
        subsample=draw(st.sampled_from([0.5, 0.8, 1.0])),
        n_rounds=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 3)),
        reg_lambda=draw(st.sampled_from([0.0, 1.0])),
    )
    return X, y, cfg


class TestPresortedTraining:
    @settings(max_examples=300, deadline=None)
    @given(training_sets())
    @example(zero_hessian_case())
    def test_model_matches_per_node_oracle_search(self, case):
        # Every node searched by sorting its own rows, feature by feature.
        with mock.patch.object(boosting, "_best_split", naive_node_search):
            expected = trained_text(*case)
        assert trained_text(*case) == expected

    @settings(max_examples=300, deadline=None)
    @given(training_sets(min_child_weights=(0.0, 0.125, 0.25, 0.5, 1.0)))
    # H = 1.0 = 2 * mcw at the first root: it is searched and splits.
    @example((TOY_X, TOY_Y, toy_config(min_child_weight=0.5)))
    # H = 1.0 just under 2 * mcw: no round searches, no tree.
    @example((TOY_X, TOY_Y, toy_config(min_child_weight=math.nextafter(0.5, 1))))
    @example(zero_hessian_case())
    # A depth-1 node of round 36 has H = 0 < 2 * mcw: its leaf value names the round.
    @example(zero_hessian_case(min_child_weight=1e-300))
    def test_model_matches_every_node_searched(self, case):
        # Light nodes are leaves without a search; the oracle searches them.
        with mock.patch.object(boosting, "_build_tree", searched_build_tree):
            expected = trained_text(*case)
        assert trained_text(*case) == expected

    def test_features_sorted_once_per_call(self, monkeypatch):
        calls = []
        real = np.argsort

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(boosting.np, "argsort", counted)
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 3))
        cfg = BoostConfig(max_depth=3, min_child_weight=0.0, subsample=0.8, n_rounds=4)
        model = train(X, np.sin(3 * X[:, 0]) + X[:, 1] > 0, cfg)
        assert sum(len(tree) for tree in model.trees) > 3 * len(model.trees)  # deeper than stumps
        assert len(calls) == 1


class TestToySeparable:
    def test_perfect_training_accuracy_within_ten_rounds(self):
        model = train(TOY_X, TOY_Y, toy_config())
        proba = predict_proba(model, TOY_X)
        assert np.array_equal((proba >= 0.5).astype(int), TOY_Y)

    def test_first_stump_matches_analytic_solution(self):
        # Round 1 from raw 0: p = 0.5 everywhere, so g = +-0.5, h = 0.25.
        # Split at 0: G_left = 1, H_left = 0.5 -> leaf = -eta * G/H = -0.6.
        model = train(TOY_X, TOY_Y, toy_config(n_rounds=1))
        (tree,) = model.trees
        root = tree[0]
        assert root.feature == 0
        assert root.threshold == pytest.approx(0.0)
        assert tree[root.left].value == pytest.approx(-0.6)
        assert tree[root.right].value == pytest.approx(0.6)

    def test_raw_trajectory_matches_scalar_recurrence(self):
        # By symmetry both sides evolve as s <- s + eta / sigmoid(s): the
        # positive leaf sees G = 2(sigma - 1), H = 2 sigma (1 - sigma).
        model = train(TOY_X, TOY_Y, toy_config())
        s = 0.0
        for _ in range(10):
            s += 0.3 / sigmoid(s)
        raw = predict_raw(model, np.array([[1.5]]))
        assert raw[0] == pytest.approx(s, abs=1e-12)

    def test_confident_probability_after_ten_rounds(self):
        model = train(TOY_X, TOY_Y, toy_config())
        assert predict_proba(model, np.array([[10.0]]))[0] > 0.9

    def test_training_loss_non_increasing(self):
        model = train(TOY_X, TOY_Y, toy_config())
        losses = model.train_loss
        assert len(losses) == 10
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_loss_non_increasing_on_noisy_data_full_batch(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(80, 6))
        y = (X[:, 0] + 0.5 * rng.normal(size=80) > 0).astype(int)
        cfg = BoostConfig(
            eta=0.3, max_depth=3, gamma=0.0, min_child_weight=1.0,
            subsample=1.0, n_rounds=40, seed=0, reg_lambda=1.0,
        )
        model = train(X, y, cfg)
        losses = model.train_loss
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


class TestValidation:
    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="single class"):
            train(TOY_X, np.zeros(4), toy_config())

    def test_non_finite_feature_named(self):
        X = TOY_X.copy()
        X[2, 0] = np.nan
        with pytest.raises(ValueError, match="row 2, column 0"):
            train(X, TOY_Y, toy_config())

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            train(TOY_X, np.array([0, 1]), toy_config())

    def test_bad_labels(self):
        with pytest.raises(ValueError, match="0/1"):
            train(TOY_X, np.array([0, 1, 2, 1]), toy_config())

    def test_config_validation(self):
        with pytest.raises(ValueError, match="eta"):
            BoostConfig(eta=0.0)
        with pytest.raises(ValueError, match="subsample"):
            BoostConfig(subsample=1.5)

    def test_zero_hessian_without_l2_names_round(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="round 36: a node's hessian sum and reg_lambda "
                                                 "are both 0"):
                train(*zero_hessian_case())

    @pytest.mark.parametrize("bad", ["a,b", "a#1", "a\nb", "a\r", " a", ""])
    def test_feature_name_the_model_header_cannot_hold_is_named(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"feature name {bad!r} cannot be saved")):
            train(np.hstack([TOY_X, TOY_X]), TOY_Y, toy_config(), feature_names=[bad, "c"])


class TestDeterminismAndStructure:
    def test_same_data_same_seed_identical_model(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 4))
        y = (X[:, 1] > 0.2).astype(int)
        cfg = BoostConfig(
            eta=0.3, max_depth=3, gamma=0.0, min_child_weight=0.5,
            subsample=0.8, n_rounds=15, seed=11, reg_lambda=1.0,
        )
        a = model_to_text(train(X, y, cfg))
        b = model_to_text(train(X, y, cfg))
        assert a == b

    def test_row_order_invariance_at_full_batch(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 3))
        y = (X[:, 0] > 0).astype(int)
        cfg = toy_config(max_depth=3, n_rounds=8, min_child_weight=0.0, reg_lambda=1.0)
        perm = rng.permutation(50)
        model_a = train(X, y, cfg)
        model_b = train(X[perm], y[perm], cfg)
        probe = rng.normal(size=(20, 3))
        assert np.allclose(predict_proba(model_a, probe), predict_proba(model_b, probe))

    def test_infinite_gamma_degenerates_to_base_score(self):
        model = train(TOY_X, TOY_Y, toy_config(gamma=np.inf))
        assert model.trees == ()
        assert np.all(predict_proba(model, TOY_X) == 0.5)

    def test_min_child_weight_blocks_small_splits(self):
        # h = 0.25 per row at the first round: 2 rows per side gives 0.5 < 1.
        model = train(TOY_X, TOY_Y, toy_config(min_child_weight=1.0))
        assert model.trees == ()

    def test_each_node_is_searched_once(self, monkeypatch):
        # Stumps with min_child_weight 0: one split search per round, at the
        # root, whether or not the root splits.
        calls = count_calls(monkeypatch, "_best_split")
        assert len(train(TOY_X, TOY_Y, toy_config(n_rounds=5)).trees) == 5
        assert len(calls) == 5
        assert train(TOY_X, TOY_Y, toy_config(n_rounds=5, gamma=np.inf)).trees == ()
        assert len(calls) == 10

    def test_light_nodes_are_neither_searched_nor_filtered(self, monkeypatch):
        # h = 0.25 per row at p = 0.5, so the first root has H = 1.0.
        searches = count_calls(monkeypatch, "_best_split")
        filters = count_calls(monkeypatch, "_keep")
        light = toy_config(n_rounds=5, min_child_weight=math.nextafter(0.5, 1))
        assert train(TOY_X, TOY_Y, light).trees == ()
        assert (len(searches), len(filters)) == (0, 0)
        # At H = 2 * mcw the root is searched and splits; every later root
        # has H < 1 and is not.
        assert len(train(TOY_X, TOY_Y, toy_config(n_rounds=5, min_child_weight=0.5)).trees) == 1
        assert (len(searches), len(filters)) == (1, 1)

    def test_only_searched_nodes_filter_the_sorted_order(self, monkeypatch):
        searches = count_calls(monkeypatch, "_best_split")
        filters = count_calls(monkeypatch, "_keep")
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 3))
        cfg = BoostConfig(max_depth=2, min_child_weight=0.0, subsample=1.0, n_rounds=3)
        model = train(X, np.sin(3 * X[:, 0]) + X[:, 1] > 0, cfg)
        depths = [node_depths(tree) for tree in model.trees]
        # Nodes above max_depth are searched (each holds 2+ rows); the
        # leaves at max_depth are neither searched nor filtered.
        assert sum(d.count(2) for d in depths) >= 4
        assert len(searches) == len(filters) == sum(d.count(0) + d.count(1) for d in depths)
        # Each search gets the order cut down to its node's rows.
        assert [s[4].shape for s in searches] == [(3, s[3].size) for s in searches]

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 5))
        y = (np.sin(3 * X[:, 0]) + X[:, 1] > 0).astype(int)
        cfg = BoostConfig(
            eta=0.3, max_depth=4, gamma=0.0, min_child_weight=0.0,
            subsample=1.0, n_rounds=5, reg_lambda=1.0,
        )
        model = train(X, y, cfg)
        assert model.trees
        assert all(max(node_depths(tree)) <= 4 for tree in model.trees)

    def test_stump_locality(self):
        # Depth-1 model: crossing the single threshold switches the output
        # between exactly two values.
        model = train(TOY_X, TOY_Y, toy_config(n_rounds=1))
        lo = predict_raw(model, np.array([[-0.01]]))[0]
        hi = predict_raw(model, np.array([[0.01]]))[0]
        assert lo == pytest.approx(-0.6)
        assert hi == pytest.approx(0.6)
        assert predict_raw(model, np.array([[-5.0]]))[0] == lo
        assert predict_raw(model, np.array([[7.0]]))[0] == hi

    def test_auto_pos_weight_balances_classes(self):
        # 10 positives vs 40 negatives: the auto weight is 4, so the first
        # round's root stats treat the classes symmetrically.
        rng = np.random.default_rng(5)
        X = np.vstack([rng.normal(2.0, 0.3, size=(10, 1)), rng.normal(-2.0, 0.3, size=(40, 1))])
        y = np.array([1] * 10 + [0] * 40)
        model = train(X, y, toy_config(n_rounds=1))
        (tree,) = model.trees
        left, right = tree[tree[0].left], tree[tree[0].right]
        # Weighted G is +-20 * 0.5 on each side and H scales the same way,
        # so both leaves have the same magnitude.
        assert abs(left.value) == pytest.approx(abs(right.value))


class TestPrediction:
    def test_zero_tree_model_gives_half(self):
        model = TrainedModel(
            trees=(), base_score=0.0, config=BoostConfig(), feature_names=("x",)
        )
        assert predict_proba(model, np.array([[3.0]]))[0] == 0.5

    def test_same_input_same_output(self):
        model = train(TOY_X, TOY_Y, toy_config())
        x = np.array([[0.7]])
        assert predict_proba(model, x)[0] == predict_proba(model, x)[0]

    def test_layout_fingerprint_checked(self):
        model = train(TOY_X, TOY_Y, toy_config(), feature_names=("alpha",))
        with pytest.raises(ValueError, match="fingerprint"):
            predict_proba(model, np.array([[1.0]]), feature_names=("beta",))

    def test_width_checked(self):
        model = train(TOY_X, TOY_Y, toy_config())
        with pytest.raises(ValueError, match="width"):
            predict_proba(model, np.array([[1.0, 2.0]]))

    def test_threshold_boundary_is_positive(self):
        model = TrainedModel(
            trees=(), base_score=0.0, config=BoostConfig(), feature_names=("x",)
        )
        cands = [CandidateWindow(0.0, 1.0, 0.4, 0.48, 0.2, 3)]
        judged = classify_candidates(model, cands, np.array([[9.9]]), threshold=0.5)
        assert judged[0][1] is True
        assert judged[0][2] == 0.5

    def test_empty_candidates(self):
        model = train(TOY_X, TOY_Y, toy_config())
        assert classify_candidates(model, [], np.zeros((0, 1))) == []


class TestSerialization:
    def test_roundtrip_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(60, 4))
        y = (X[:, 2] > 0).astype(int)
        cfg = BoostConfig(
            eta=0.25, max_depth=3, gamma=0.1, min_child_weight=0.5,
            subsample=0.9, n_rounds=12, seed=3, reg_lambda=0.7, pos_weight=1.5,
        )
        model = train(X, y, cfg, feature_names=[f"f{i}" for i in range(4)])
        path = tmp_path / "model.txt"
        save_model(path, model)
        text_once = path.read_text()
        reloaded = load_model(path)
        assert model_to_text(reloaded) == text_once
        probe = rng.normal(size=(10, 4))
        assert np.array_equal(predict_raw(model, probe), predict_raw(reloaded, probe))
        assert reloaded.config == cfg

    def test_split_counts_survive_roundtrip(self):
        model = train(TOY_X, TOY_Y, toy_config(n_rounds=3))
        reloaded = model_from_text(model_to_text(model))
        assert np.array_equal(split_counts(model), split_counts(reloaded))

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            model_from_text("format = not-a-model\n")

    def test_repeated_header_key_names_line(self):
        text = model_to_text(train(TOY_X, TOY_Y, toy_config(n_rounds=2)))
        lines = text.splitlines()
        lines.insert(3, lines[1])  # eta again, after max_depth and gamma
        with pytest.raises(ValueError, match=r"m.txt: line 4: repeated model header key 'eta', "
                                             r"first set on line 2"):
            model_from_text("\n".join(lines) + "\n", "m.txt")

    def test_missing_header_keys_named(self):
        text = model_to_text(train(TOY_X, TOY_Y, toy_config(n_rounds=2)))
        truncated = "\n".join(text.splitlines()[:2]) + "\n"
        with pytest.raises(ValueError, match=r"m.txt: model header lacks max_depth, gamma"):
            model_from_text(truncated, "m.txt")

    @pytest.mark.parametrize("field, value", [(3, "7"), (4, "0"), (4, "-1"), (1, "1")])
    def test_node_outside_its_tree_rejected_at_load(self, field, value):
        # The first tree is a stump: a split at node 0 with leaves 1 and 2,
        # on feature 0 of a one-feature model.
        text = model_to_text(train(TOY_X, TOY_Y, toy_config(n_rounds=2)))
        lines = text.splitlines()
        row = lines.index("tree 0") + 1
        parts = lines[row].split(",")
        parts[field] = value
        lines[row] = ",".join(parts)
        with pytest.raises(ValueError, match=rf"m.txt: line {row + 1}: node 0 of tree 0"):
            model_from_text("\n".join(lines) + "\n", "m.txt")

    @pytest.mark.parametrize("line, field, value", [
        ("base_score", None, "nan"), (1, 2, "nan"), (2, 5, "inf"), (3, 5, "-inf"),
    ])
    def test_non_finite_number_rejected_at_load(self, line, field, value):
        lines = model_to_text(train(TOY_X, TOY_Y, toy_config(n_rounds=2))).splitlines()
        if field is None:
            row = next(i for i, text in enumerate(lines) if text.startswith("base_score = "))
            lines[row] = f"base_score = {value}"
            expected = f"model header key base_score: expected finite float, got '{value}'"
        else:  # node row `line` of the first tree: a split, then its two leaves
            row = lines.index("tree 0") + line
            parts = lines[row].split(",")
            parts[field] = value
            lines[row] = ",".join(parts)
            expected = f"tree node {lines[row]!r} is not finite"
        with pytest.raises(ValueError) as info:
            model_from_text("\n".join(lines) + "\n", "m.txt")
        assert str(info.value) == f"m.txt: line {row + 1}: {expected}"

    @pytest.mark.parametrize("line, message", [
        ("eta = 5", "eta must be in (0, 1], got 5.0"),
        ("gamma = nan", "gamma must be in [0, inf], got nan"),
        ("min_child_weight = nan", "min_child_weight must be in [0, inf), got nan"),
    ])
    def test_header_setting_out_of_range_names_source(self, line, message):
        lines = model_to_text(train(TOY_X, TOY_Y, toy_config(n_rounds=2))).splitlines()
        key = line.partition(" = ")[0]
        lines = [line if text.startswith(f"{key} = ") else text for text in lines]
        with pytest.raises(ValueError) as info:
            model_from_text("\n".join(lines) + "\n", "m.txt")
        assert str(info.value) == f"m.txt: {message}"

    def test_tree_and_node_numbers_checked_at_load(self):
        lines = model_to_text(train(TOY_X, TOY_Y, toy_config(n_rounds=2))).splitlines()
        assert model_from_text("\n".join(lines) + "\n").trees
        second = lines.index("tree 1")
        bad = lines[:second] + ["tree 7"] + lines[second + 1:]
        with pytest.raises(ValueError, match=rf"^m.txt: line {second + 1}: expected 'tree 1', "
                                             r"got 'tree 7'$"):
            model_from_text("\n".join(bad) + "\n", "m.txt")
        first = lines.index("tree 0") + 1
        bad = list(lines)
        bad[first] = "9" + bad[first][1:]
        with pytest.raises(ValueError, match=rf"^m.txt: line {first + 1}: node 9 is row 0 of its tree$"):
            model_from_text("\n".join(bad) + "\n", "m.txt")

    def test_fingerprint_disagreeing_with_feature_names_rejected_at_load(self):
        text = model_to_text(train(TOY_X, TOY_Y, toy_config(n_rounds=2), feature_names=("a",)))
        assert "feature_names = a\n" in text
        with pytest.raises(ValueError, match=r"^m.txt: layout_fingerprint does not match feature_names$"):
            model_from_text(text.replace("feature_names = a\n", "feature_names = c\n"), "m.txt")

    def test_unparsable_header_value_names_line(self):
        text = model_to_text(train(TOY_X, TOY_Y, toy_config(n_rounds=2)))
        text = text.replace("max_depth = 1\n", "max_depth = deep\n")
        with pytest.raises(ValueError, match=r"line 3: model header key max_depth: "
                                             r"expected int, got 'deep'"):
            model_from_text(text)
