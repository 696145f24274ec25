"""Second-order gradient boosting on logistic loss, built in-repo.

Each round fits one regression tree to the gradient/hessian statistics of
the logistic loss (for two classes the softmax objective reduces to it),
by exact greedy search: one pass per node scores every cut of every
feature between sorted distinct values.  Splits must clear the ``gamma``
gain threshold and leave at least ``min_child_weight`` = m hessian mass in
both children, so a node whose hessian sum H is below 2m is a leaf, not searched:
a cut with left mass hl >= m leaves fl(H - hl) <= fl(H - m) < m, as H - m is
exact (Sterbenz) for m/2 <= H < 2m and negative below.  Each ``train`` call
stable-sorts every feature once, O(n * F log n) for n rows and F features.
Only a node that searches cuts its parent's sorted order down to its rows and
hands it on, in O(rows * F); a light or depth-limited node costs O(rows), and
one (F, rows) index array is held per depth level.  Leaf values are Newton
steps -G/(H + lambda) scaled by the learning rate.  A round whose root cannot
split contributes nothing, so with an infinite gamma the model stays at its
base score.

Everything is deterministic: row subsampling draws from one seeded
generator, and split ties break toward the lowest feature index, then the
lowest threshold, as a feature-by-feature search would break them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .records import check_range
from .tables import field_types, key_values, parse_fields, render_fields

_RAW_CLIP = 500.0  # keeps exp() in range; sigmoid saturates long before this
_PROB_EPS = 1e-15
DEFAULT_THRESHOLD = 0.5  # classify_candidates: proba >= threshold is positive


@dataclass(frozen=True)
class BoostConfig:
    """Booster hyperparameters, each in the interval ``check_range`` states.

    eta: learning rate in (0, 1].
    max_depth: maximum tree depth (root at depth 0), in [1, inf).
    gamma: minimum gain required to accept a split, in [0, inf]; inf never
        splits, so the model stays at its base score.
    min_child_weight: minimum hessian sum in each child, in [0, inf).
    subsample: row fraction drawn (without replacement) per round, in (0, 1].
    n_rounds: boosting rounds, in [1, inf).
    seed: RNG seed for subsampling.
    reg_lambda: L2 penalty on leaf values (Newton damping), in [0, inf).
    pos_weight: positive-class weight in (0, inf); None (``auto``) means
        negatives/positives.
    """

    eta: float = 0.3
    max_depth: int = 4
    gamma: float = 0.0
    min_child_weight: float = 1.0
    subsample: float = 0.8
    n_rounds: int = 200
    seed: int = 0
    reg_lambda: float = 1.0
    pos_weight: float | None = None

    def __post_init__(self) -> None:
        for name, interval in (
            ("eta", "(0, 1]"), ("max_depth", "[1, inf)"), ("gamma", "[0, inf]"),
            ("min_child_weight", "[0, inf)"), ("subsample", "(0, 1]"),
            ("n_rounds", "[1, inf)"), ("reg_lambda", "[0, inf)"),
        ):
            check_range(name, getattr(self, name), interval)
        if self.pos_weight is not None:
            check_range("pos_weight", self.pos_weight, "(0, inf)")


@dataclass(frozen=True)
class TreeNode:
    """One node; leaves have feature == -1 and carry the leaf value."""

    feature: int
    threshold: float
    left: int
    right: int
    value: float

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


Tree = tuple[TreeNode, ...]


@dataclass(frozen=True)
class TrainedModel:
    trees: tuple[Tree, ...]
    base_score: float
    config: BoostConfig
    feature_names: tuple[str, ...]
    train_loss: tuple[float, ...] = ()

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def fingerprint(self) -> str:
        return layout_fingerprint(self.feature_names)


def _sigmoid(raw: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(raw, -_RAW_CLIP, _RAW_CLIP)))


def _logloss(y: np.ndarray, p: np.ndarray, w: np.ndarray) -> float:
    p = np.clip(p, _PROB_EPS, 1.0 - _PROB_EPS)
    losses = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    return float(np.sum(w * losses) / np.sum(w))


def _best_split(
    X: np.ndarray, g: np.ndarray, h: np.ndarray, rows: np.ndarray, order: np.ndarray, cfg: BoostConfig
) -> tuple[int, float] | None:
    """Exact greedy search (Chen & Guestrin 2016, Alg. 1) over all features
    at once, scoring every cut between distinct sorted values of each column.

    ``rows`` are the node's rows, ascending; row f of ``order`` holds them
    sorted by feature f (see ``_keep``).  Costs O(rows * F) time and about a
    dozen float arrays of shape (F, rows) per node.  A feature whose best
    cut scores NaN (0/0 with reg_lambda = 0) is skipped; a +inf gain may win.
    """
    G = float(g[rows].sum())
    H = float(h[rows].sum())
    lam = cfg.reg_lambda
    parent = G * G / (H + lam)
    if rows.size < 2 or X.shape[1] == 0:
        return None
    vs = np.take_along_axis(X.T, order, axis=1)
    gl = np.cumsum(g[order], axis=1)[:, :-1]
    hl = np.cumsum(h[order], axis=1)[:, :-1]
    gr, hr = G - gl, H - hl
    gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent)
    mcw = cfg.min_child_weight
    valid = (np.diff(vs, axis=1) > 0) & (hl >= mcw) & (hr >= mcw)
    gain = np.where(valid, gain, -np.inf)
    # Both argmaxes take the first maximum: the lowest feature, then the
    # lowest threshold.  A feature's max is NaN exactly when it holds a NaN.
    best = gain.max(axis=1)
    best[np.isnan(best)] = -np.inf
    f = int(np.argmax(best))
    if not best[f] > cfg.gamma:
        return None
    k = int(np.argmax(gain[f]))
    return f, float((vs[f, k] + vs[f, k + 1]) / 2.0)


def _keep(order: np.ndarray, keep: np.ndarray, size: int) -> np.ndarray:
    """Each row of ``order`` cut down to the ``size`` row indices marked in
    ``keep``.  A stable sort of all rows, so filtered, sorts the kept rows
    by (value, row index), as a stable sort of X[rows] would."""
    return order[keep[order]].reshape(order.shape[0], size)


def _build_tree(
    X: np.ndarray, g: np.ndarray, h: np.ndarray, rows: np.ndarray, presorted: np.ndarray, cfg: BoostConfig
) -> Tree | None:
    nodes: list[TreeNode] = []
    side = np.zeros(X.shape[0], dtype=bool)  # the rows to keep; read only at a node's rows
    side[rows] = True

    def grow(rows: np.ndarray, order: np.ndarray, depth: int) -> int:
        # ``order`` is the parent's; it is cut down to ``rows`` (marked in
        # ``side``) only for a node that searches, before any child resets ``side``.
        G = float(g[rows].sum())
        H = float(h[rows].sum())
        split = None
        if depth < cfg.max_depth and rows.size >= 2 and not H < 2 * cfg.min_child_weight:
            order = _keep(order, side, rows.size)
            split = _best_split(X, g, h, rows, order, cfg)
        idx = len(nodes)
        if split is None:
            nodes.append(TreeNode(-1, 0.0, -1, -1, value=-cfg.eta * G / (H + cfg.reg_lambda)))
            return idx
        f, thr = split
        nodes.append(TreeNode(feature=f, threshold=thr, left=-1, right=-1, value=0.0))
        children = []
        mask = X[rows, f] < thr
        for part in (mask, ~mask):
            side[rows] = part
            children.append(grow(rows[part], order, depth + 1))
        nodes[idx] = TreeNode(f, thr, *children, value=0.0)
        return idx

    grow(rows, presorted, 0)
    # A root that cannot split produces no tree at all; the round is a no-op.
    return None if nodes[0].is_leaf else tuple(nodes)


def _tree_predict(tree: Tree, X: np.ndarray) -> np.ndarray:
    out = np.zeros(X.shape[0])
    stack: list[tuple[int, np.ndarray]] = [(0, np.arange(X.shape[0]))]
    while stack:
        idx, rows = stack.pop()
        if rows.size == 0:
            continue
        node = tree[idx]
        if node.is_leaf:
            out[rows] = node.value
            continue
        mask = X[rows, node.feature] < node.threshold
        stack.append((node.left, rows[mask]))
        stack.append((node.right, rows[~mask]))
    return out


def _validate_matrix(X: np.ndarray, feature_names: Sequence[str] | None) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if not np.all(np.isfinite(X)):
        r, c = (int(v[0]) for v in np.nonzero(~np.isfinite(X)))
        name = f" ({feature_names[c]})" if feature_names else ""
        raise ValueError(f"non-finite feature value at row {r}, column {c}{name}")
    return X


def train(
    X,
    y,
    cfg: BoostConfig = BoostConfig(),
    feature_names: Sequence[str] | None = None,
) -> TrainedModel:
    """Fit a boosted ensemble on binary labels.

    Raises:
        ValueError: when only one class is present, sizes mismatch, a
            feature value is non-finite (naming row and column), a feature
            name cannot be saved in the model header (naming it), or a
            node's hessian sum and reg_lambda are both 0 (naming the round).
    """
    names = tuple(feature_names) if feature_names is not None else None
    X = _validate_matrix(X, names)
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"feature rows {X.shape[0]} != label count {y.shape[0]}")
    if X.shape[0] < 2:
        raise ValueError(f"need at least 2 rows to train, got {X.shape[0]}")
    if not set(np.unique(y)) <= {0.0, 1.0}:
        raise ValueError("labels must be 0/1")
    n_pos = int(y.sum())
    n_neg = int(y.shape[0] - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("training labels contain a single class; need both")
    if names is None:
        names = tuple(f"f{i}" for i in range(X.shape[1]))
    if len(names) != X.shape[1]:
        raise ValueError(f"{len(names)} feature names for {X.shape[1]} columns")
    for name in names:
        if "," in name or "#" in name or name.strip() != name or name.splitlines() != [name]:
            raise ValueError(
                f"feature name {name!r} cannot be saved in a model header: it needs a "
                "character, no surrounding whitespace and no ',', '#' or line break"
            )

    pos_weight = cfg.pos_weight if cfg.pos_weight is not None else n_neg / n_pos
    w = np.where(y == 1.0, pos_weight, 1.0)
    rng = np.random.default_rng(cfg.seed)
    n = X.shape[0]
    X = np.asfortranarray(X)  # each feature's values contiguous; row f of `presorted` sorts f
    presorted = np.argsort(X.T, axis=1, kind="stable")
    raw = np.zeros(n)
    trees: list[Tree] = []
    losses: list[float] = []
    for r in range(cfg.n_rounds):
        p = _sigmoid(raw)
        g = w * (p - y)
        h = w * p * (1.0 - p)
        rows = np.arange(n)
        if cfg.subsample < 1.0:
            rows = np.sort(rng.choice(n, size=max(1, round(cfg.subsample * n)), replace=False))
        try:
            tree = _build_tree(X, g, h, rows, presorted, cfg)
        except ZeroDivisionError:
            raise ValueError(f"round {r}: a node's hessian sum and reg_lambda are both 0") from None
        if tree is not None:
            trees.append(tree)
            raw += _tree_predict(tree, X)
        losses.append(_logloss(y, _sigmoid(raw), w))

    return TrainedModel(
        trees=tuple(trees),
        base_score=0.0,
        config=cfg,
        feature_names=names,
        train_loss=tuple(losses),
    )


def layout_fingerprint(names: Sequence[str]) -> str:
    """The first 16 hex digits of the SHA-256 of the names, one per line."""
    return hashlib.sha256("\n".join(names).encode("utf-8")).hexdigest()[:16]


def _check_layout(model: TrainedModel, X: np.ndarray, feature_names: Sequence[str] | None) -> None:
    if feature_names is not None:
        fp = layout_fingerprint(tuple(feature_names))
        if fp != model.fingerprint:
            raise ValueError(
                f"feature layout fingerprint {fp} does not match the model's {model.fingerprint}"
            )
    if X.shape[1] != model.n_features:
        raise ValueError(f"feature width {X.shape[1]} != model width {model.n_features}")


def predict_raw(model: TrainedModel, X, feature_names: Sequence[str] | None = None) -> np.ndarray:
    X = _validate_matrix(X, None)
    _check_layout(model, X, feature_names)
    raw = np.full(X.shape[0], model.base_score)
    for tree in model.trees:
        raw += _tree_predict(tree, X)
    return raw


def predict_proba(model: TrainedModel, X, feature_names: Sequence[str] | None = None) -> np.ndarray:
    return _sigmoid(predict_raw(model, X, feature_names))


def classify_candidates(
    model: TrainedModel,
    candidates: Sequence,
    X,
    threshold: float = DEFAULT_THRESHOLD,
    feature_names: Sequence[str] | None = None,
) -> list[tuple[object, bool, float]]:
    """Threshold candidate probabilities; `proba >= threshold` is positive."""
    if len(candidates) == 0:
        return []
    proba = predict_proba(model, X, feature_names)
    if proba.shape[0] != len(candidates):
        raise ValueError(f"{proba.shape[0]} probabilities for {len(candidates)} candidates")
    return [(c, bool(p >= threshold), float(p)) for c, p in zip(candidates, proba)]


def split_counts(model: TrainedModel) -> np.ndarray:
    """How many ensemble splits use each feature index."""
    used = [node.feature for tree in model.trees for node in tree if not node.is_leaf]
    return np.bincount(np.array(used, dtype=int), minlength=model.n_features)


def rank_features(model: TrainedModel) -> list[tuple[str, int]]:
    """Features ordered by how often the ensemble splits on them.

    Split-usage count is the model's intrinsic importance measure; features
    never used do not appear.  Ties keep layout order.
    """
    counts = split_counts(model)
    return [
        (model.feature_names[i], int(counts[i]))
        for i in np.argsort(-counts, kind="stable")
        if counts[i] > 0
    ]


# The model header's keys beyond BoostConfig's fields, as model_to_text writes them.
_HEADER_TYPES = dict(
    format="str", base_score="finite float", layout_fingerprint="str", feature_names="str", n_trees="int"
)


def model_to_text(model: TrainedModel) -> str:
    lines = ["format = chewdet-gbt-v1"]
    lines.extend(f"{key} = {text}" for key, text in render_fields(model.config))
    lines.append(f"base_score = {model.base_score!r}")
    lines.append(f"layout_fingerprint = {model.fingerprint}")
    lines.append(f"feature_names = {','.join(model.feature_names)}")
    lines.append(f"n_trees = {len(model.trees)}")
    for k, tree in enumerate(model.trees):
        lines.append(f"tree {k}")
        for i, node in enumerate(tree):
            lines.append(
                f"{i},{node.feature},{node.threshold!r},{node.left},{node.right},{node.value!r}"
            )
    return "\n".join(lines) + "\n"


def save_model(path: str | Path, model: TrainedModel) -> None:
    Path(path).write_text(model_to_text(model), encoding="utf-8")


def model_from_text(text: str, source: str | Path = "model text") -> TrainedModel:
    """The model that ``model_to_text`` wrote; ``source`` names it in errors.

    The header is a flat ``key = value`` block and must hold every key once.
    Each ``tree k`` line starts a tree of node rows in preorder, so a split
    node's children come after it in its own tree, and its feature indexes
    ``feature_names``.
    """
    lines = text.splitlines()
    body = next((i for i, line in enumerate(lines) if line.startswith("tree ")), len(lines))
    types = {**field_types(BoostConfig), **_HEADER_TYPES}
    header = parse_fields(types, key_values(lines[:body], source), source, "model header")
    if header.get("format") != "chewdet-gbt-v1":
        raise ValueError(f"{source}: unrecognized model format {header.get('format')!r}")
    missing = [key for key in types if key not in header]
    if missing:
        raise ValueError(f"{source}: model header lacks {', '.join(missing)}")
    names = tuple(header["feature_names"].split(",")) if header["feature_names"] else ()
    if layout_fingerprint(names) != header["layout_fingerprint"]:
        raise ValueError(f"{source}: layout_fingerprint does not match feature_names")
    try:
        config = BoostConfig(**{key: header[key] for key in field_types(BoostConfig)})
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
    trees: list[list[tuple[int, TreeNode]]] = []
    for lineno, line in enumerate(lines[body:], start=body + 1):
        if line.startswith("tree "):
            if line != f"tree {len(trees)}":
                raise ValueError(f"{source}: line {lineno}: expected 'tree {len(trees)}', got {line!r}")
            trees.append([])
        elif line.strip():
            try:
                i, feature, threshold, left, right, value = line.split(",")
                node = TreeNode(int(feature), float(threshold), int(left), int(right), float(value))
                i = int(i)
            except ValueError:
                raise ValueError(f"{source}: line {lineno}: malformed tree node {line!r}") from None
            if i != len(trees[-1]):
                raise ValueError(f"{source}: line {lineno}: node {i} is row {len(trees[-1])} of its tree")
            if not (math.isfinite(node.threshold) and math.isfinite(node.value)):
                raise ValueError(f"{source}: line {lineno}: tree node {line!r} is not finite")
            trees[-1].append((lineno, node))
    if len(trees) != header["n_trees"]:
        raise ValueError(f"{source}: model declares {header['n_trees']} trees, holds {len(trees)}")
    for k, tree in enumerate(trees):
        if not tree:
            raise ValueError(f"{source}: tree {k} has no nodes")
        for i, (lineno, node) in enumerate(tree):
            lo, hi = sorted((node.left, node.right))
            if not node.is_leaf and not (node.feature < len(names) and i < lo and hi < len(tree)):
                raise ValueError(
                    f"{source}: line {lineno}: node {i} of tree {k} (feature {node.feature}, "
                    f"children {node.left}, {node.right}) points outside the features or the tree"
                )
    return TrainedModel(
        trees=tuple(tuple(node for _, node in tree) for tree in trees),
        base_score=header["base_score"],
        config=config,
        feature_names=names,
    )


def load_model(path: str | Path) -> TrainedModel:
    return model_from_text(Path(path).read_text(encoding="utf-8"), path)
