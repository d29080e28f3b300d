"""Diagnosis heads: break-location classifiers and break-size regressors.

Two routes are provided over the same label schema. The stepwise route fits
compact heads (MLP or random forest) on encoder latents; the end-to-end
route fits a plain fully connected network directly on flattened perturbed
matrices. Network fits share one loss/early-stopping engine so the routes
stay comparable.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from . import metrics as M
from . import tensor as T
from .data import Location, read_json, write_json
from .encoder import dense, init_dense
from .training import NAdamState, read_checkpoint, save_params, update

# Fixed class order for location classification.
CLASS_ORDER = (Location.COLD_LEG, Location.HOT_LEG)

# Hidden layer widths of the latent MLP heads and of the end-to-end network.
LATENT_HIDDEN = (64, 32)
END_TO_END_HIDDEN = (256, 64)

# Share of each location's rows a network fit validates on, and the relative
# validation-loss gain over the early-stop window below which the fit stops.
VAL_FRACTION = 0.2
EARLY_STOP_THRESHOLD = 0.01


@dataclass(frozen=True)
class DiagnosisLabel:
    location: Location
    size_cm: float

    def __post_init__(self):
        if not (self.size_cm > 0.0):
            raise ValueError(f"size_cm must be positive, got {self.size_cm}")


@dataclass
class HeadConfig:
    kind: str = "mlp"
    tree_count: int = 50
    max_depth: int = 8
    early_stop_window: int = 20
    max_epochs: int = 500
    lr: float = 0.01
    lr_decay: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("mlp", "random_forest", "end_to_end_mlp"):
            raise ValueError(f"unknown head kind {self.kind!r}")
        if self.tree_count < 1:
            raise ValueError("tree_count must be at least 1")
        if self.max_depth < 0:
            raise ValueError("max_depth must not be negative")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if not (0.0 < self.lr < float("inf")):
            raise ValueError("lr must be positive and finite")
        if self.early_stop_window < 1:
            raise ValueError("early_stop_window must be at least 1")
        if not (0.0 < self.lr_decay <= 1.0):
            raise ValueError("lr_decay outside (0, 1]")


@dataclass
class FitReport:
    stopping_epoch: int = 0
    param_count: int = 0
    final_metrics: dict = field(default_factory=dict)
    train_curve: list = field(default_factory=list)
    val_curve: list = field(default_factory=list)


@dataclass
class MlpHead:
    task: str
    widths: tuple
    params: dict


@dataclass
class Forest:
    """Every tree in one depth-first node table; tree t starts at `roots[t]`.

    A split sends x to `left` if `x[feature] <= threshold`, else to `right`; a
    leaf is its own left and right child. `value` is each node's class
    frequencies (one row per node) or mean size over its bootstrap rows.
    """
    task: str
    n_features: int
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray

    @cached_property
    def _walk(self):
        """`predict`'s flat (right, left) child table, each node's second-class
        vote and the deepest leaf's depth: built once, not fields, never saved."""
        votes = self.task == "classify" and self.value[:, 1] > self.value[:, 0]
        depth, level = 0, self.roots
        while (level := level[self.left[level] != level]).size:
            level = np.concatenate([self.left[level], self.right[level]])
            depth += 1
        return np.stack([self.right, self.left], 1).ravel(), votes, depth


# ---------------------------------------------------------------------------
# shared plumbing

def _as_matrix(vectors):
    rows = [np.asarray(v, dtype=float).reshape(-1) for v in vectors]
    width = rows[0].size
    if any(r.size != width for r in rows):
        raise ValueError("input vectors differ in length")
    return np.stack(rows)


def _targets(labels, task):
    if task == "classify":
        return np.array([CLASS_ORDER.index(lb.location) for lb in labels])
    if task == "regress":
        return np.array([lb.size_cm for lb in labels], dtype=float)
    raise ValueError(f"unknown task {task!r}")


def _check_inputs(X, labels, task):
    if len(labels) != X.shape[0]:
        raise ValueError("label count does not match sample count")
    if X.shape[0] < 8:
        raise ValueError("need at least 8 samples to fit a head")
    if task == "classify":
        locs = {lb.location for lb in labels}
        if len(locs) < 2:
            raise ValueError("classification needs both locations present")


def _stratified_split(labels, rng):
    """Per-location shuffle; returns (train_idx, val_idx) index lists."""
    train_idx, val_idx = [], []
    for loc in CLASS_ORDER:
        members = [i for i, lb in enumerate(labels) if lb.location == loc]
        if not members:
            continue
        order = rng.permutation(len(members))
        n_val = max(1, int(round(VAL_FRACTION * len(members)))) \
            if len(members) >= 2 else 0
        for j, k in enumerate(order):
            (val_idx if j < n_val else train_idx).append(members[k])
    return sorted(train_idx), sorted(val_idx)


def early_stop_epoch(val_losses, window, threshold):
    """First epoch (1-based) at which fitting should stop, else None.

    Stops once the best-so-far validation loss has improved by less than
    `threshold` (relative) across `window` consecutive epochs.
    """
    best = np.minimum.accumulate(np.asarray(val_losses, dtype=float))
    for e in range(window, len(best)):
        prev = best[e - window]
        if (prev - best[e]) / max(prev, 1e-12) < threshold:
            return e + 1
    return None


def score(head, X, labels):
    """A classifier's macro-F1, accuracy and per-class F1 (degenerate without a
    true positive), precision and recall on rows X, or a regressor's RMSE."""
    pred, y = predict(head, X), _targets(labels, head.task)
    if head.task == "regress":
        return {"rmse": M.rmse(pred, y)}
    pred = np.argmax(pred, axis=1)
    counts = M.confusion_matrix(y.tolist(), pred.tolist(), len(CLASS_ORDER))
    return {"macro_f1": M.macro_f1(counts),
            "accuracy": float(np.mean(pred == y)),
            "per_class": {loc.value: {"f1": M.f1(c), "degenerate": c.tp == 0,
                                      "precision": M.precision(c),
                                      "recall": M.recall(c)}
                          for loc, c in zip(CLASS_ORDER, counts)}}


def _fit_metrics(head, X, labels, **splits):
    """`score`'s accuracy (classify) or RMSE (regress) over each named row split."""
    key = "accuracy" if head.task == "classify" else "rmse"
    return {f"{name}_{key}": score(head, X[idx], [labels[i] for i in idx])[key]
            for name, idx in splits.items()}


# ---------------------------------------------------------------------------
# fully connected heads

def _network_loss(params, widths, X, y, task):
    out = dense(X, params, "", len(widths) - 1)
    if task == "classify":
        onehot = np.eye(len(CLASS_ORDER))[y]
        return T.cross_entropy_logits(out, onehot)
    return T.mse(out, y.reshape(-1, 1))


def _fit_network(vectors, labels, task, hidden, config):
    """Fit a fully connected network of `hidden` widths on flattened vectors."""
    config = config or HeadConfig()
    X = _as_matrix(vectors)
    _check_inputs(X, labels, task)
    widths = (X.shape[1], *hidden, len(CLASS_ORDER) if task == "classify" else 1)
    y = _targets(labels, task)
    rng_split = np.random.default_rng(np.random.SeedSequence((config.seed, 1)))
    rng_init = np.random.default_rng(np.random.SeedSequence((config.seed, 2)))
    train_idx, val_idx = _stratified_split(labels, rng_split)
    X_train, y_train, X_val, y_val = X[train_idx], y[train_idx], X[val_idx], y[val_idx]

    params = T.Parameters(init_dense({}, "", widths, rng_init))
    state = NAdamState(params)
    report = FitReport(param_count=params.data.size)

    for epoch in range(config.max_epochs):
        report.train_curve.append(update(
            params, state, config.lr * config.lr_decay ** epoch,
            lambda: _network_loss(params, widths, X_train, y_train, task)))
        report.val_curve.append(
            _network_loss(params, widths, X_val, y_val, task).item())
        report.stopping_epoch += 1
        if early_stop_epoch(report.val_curve, config.early_stop_window,
                            EARLY_STOP_THRESHOLD) is not None:
            break
    for p in (params, *params.values()):  # predictions need no gradients
        p.grad = None

    head = MlpHead(task=task, widths=tuple(widths), params=params)
    report.final_metrics = _fit_metrics(head, X, labels, train=train_idx,
                                        val=val_idx)
    return head, report


def fit_mlp_head(latents, labels, config=None, task="classify"):
    """Fit a compact fully connected head on latent vectors."""
    return _fit_network(latents, labels, task, LATENT_HIDDEN, config)


def fit_end_to_end(samples, labels, config=None, task="classify"):
    """Fit a monolithic network on flattened (perturbed) monitoring matrices."""
    return _fit_network(samples, labels, task, END_TO_END_HIDDEN, config)


# ---------------------------------------------------------------------------
# random forest

def _totals(a, sizes):
    """Sums over the last axis of the zero-padded `a` as a 1-D `sum` adds node
    j's `sizes[j]` terms. Below 128 terms numpy sums whole blocks of 8 in 8
    lanes, then the rest in order, so rows of one `size // 8` sum together."""
    group = np.where(sizes < 128, sizes // 8, sizes)  # from 128, equal sizes
    tot = np.empty(a.shape[:-1])
    for g in np.unique(group):
        at = group == g
        tot[at] = a[at, ..., :sizes[at].max()].sum(axis=-1)
    return tot


@np.errstate(divide="ignore", invalid="ignore")  # pads are scored, then masked
def _best_splits(X, y, rows, sizes, feats, task):
    """Each node's lowest weighted child impurity over midpoint thresholds.

    Node j has rows `rows[j, :sizes[j]]` of (X, y) in bootstrap order and the
    drawn features `feats[j]`, each one row of a sorted block padded with
    +inf. Ties go to the first feature in draw order, then position. Returns
    each node's score (inf if no drawn feature varies), feature, threshold."""
    if len(rows) > 1 and rows.size * feats.shape[1] > 8192:  # bounds memory
        h = len(rows) // 2
        return tuple(map(np.concatenate, zip(
            _best_splits(X, y, rows[:h], sizes[:h], feats[:h], task),
            _best_splits(X, y, rows[h:], sizes[h:], feats[h:], task))))
    node = np.arange(len(rows))[:, None, None]
    pad = np.arange(rows.shape[1]) >= sizes[:, None]
    cols = X[rows[:, None, :], feats[:, :, None]]
    np.copyto(cols, np.inf, where=pad[:, None])
    order = np.argsort(cols, axis=2, kind="stable")
    vs = np.take_along_axis(cols, order, axis=2)
    ys = np.where(pad, 0, y[rows])[node, order]
    n, k = sizes[:, None, None], np.arange(1.0, rows.shape[1])
    if task == "classify":
        ones = np.cumsum(ys, axis=2)[..., :-1].astype(float)
        tot_ones = ys.sum(axis=2, keepdims=True).astype(float)
        p1l = ones / k
        p1r = (tot_ones - ones) / (n - k)
        gini_l = 1.0 - p1l ** 2 - (1.0 - p1l) ** 2
        gini_r = 1.0 - p1r ** 2 - (1.0 - p1r) ** 2
        score = (k * gini_l + (n - k) * gini_r) / n
    else:
        ys = np.stack([ys, ys * ys], 1)
        s, sq = np.cumsum(ys, axis=3)[..., :-1].swapaxes(0, 1)
        tot_s, tot_sq = _totals(ys, sizes)[..., None].swapaxes(0, 1)
        var_l = sq / k - (s / k) ** 2
        var_r = (tot_sq - sq) / (n - k) - ((tot_s - s) / (n - k)) ** 2
        score = (k * var_l + (n - k) * var_r) / n
    score[~((vs[..., 1:] > vs[..., :-1]) & (k < n))] = np.inf
    score = score.reshape(len(rows), -1)
    best = np.argmin(score, axis=1)
    j, (i, pos) = node[:, 0, 0], np.divmod(best, k.size)
    return (score[j, best], feats[j, i],
            0.5 * (vs[j, i, pos] + vs[j, i, pos + 1]))


def fit_random_forest(latents, labels, config=None, task="classify"):
    """Fit bagged decision trees on latent vectors.

    Tree i bootstraps and draws features from its own rng, depth first, the
    left subtree first. The trees grow in lock step: each step pops the next
    node off every unfinished tree's stack and scores them together."""
    config = config or HeadConfig()
    X = _as_matrix(latents)
    _check_inputs(X, labels, task)
    y = _targets(labels, task)
    n, d = X.shape
    if task == "classify":
        m_try = max(1, int(round(np.sqrt(d))))
    else:
        m_try = max(1, d // 3)

    trees = config.tree_count
    rngs = [np.random.default_rng(np.random.SeedSequence((config.seed, i)))
            for i in range(trees)]
    boot = np.stack([rng.integers(0, n, size=n) for rng in rngs])
    # owner[t, p] labels the node that holds tree t's bootstrap row p: the
    # root is 0, and the split of step record r has children 2r + 1 (left)
    # and 2r + 2 (right). Each tree's depth-first stack holds (label, depth)
    # rows: one pending right child per depth, and the pair just pushed.
    owner, top, steps = np.zeros((trees, n), int), np.ones(trees, int), []
    records = 0  # step records so far, one per popped node
    stack = np.zeros((trees, min(config.max_depth, n) + 2, 2), dtype=int)
    while (tree := np.flatnonzero(top)).size:
        top[tree] -= 1
        label, depth = stack[tree, top[tree]].T
        mine = owner[tree] == label[:, None]
        size = mine.sum(axis=1)
        at = np.arange(size.max())
        pos = np.argsort(~mine, axis=1, kind="stable")[:, :at.size]
        pos = np.where(at < size[:, None], pos, pos[:, :1])  # a pad: 1st row
        rows = boot[tree[:, None], pos]  # in bootstrap order
        total = _totals(np.where(at < size[:, None], y[rows], 0), size)
        value = total / size if task == "regress" else \
            np.c_[size - total, total] / size[:, None]
        feature, threshold = np.zeros(tree.size, int), np.zeros(tree.size)
        split = np.flatnonzero((depth < config.max_depth)
                               & (np.ptp(y[rows], axis=1) > 0))
        if split.size:
            feats = np.array([rngs[t].choice(d, m_try, replace=False)
                              for t in tree[split]])
            score, f, thr = _best_splits(X, y, rows[split], size[split],
                                         feats, task)
            ok = score < np.inf
            split = split[ok]
            feature[split], threshold[split] = f[ok], thr[ok]
        t, r = tree[split], records + split
        owner[t[:, None], pos[split]] = 2 * r[:, None] + 2 - (
            X[rows[split], feature[split, None]] <= threshold[split, None])
        for slot, side in ((0, 2), (1, 1)):  # the left child goes on top
            stack[t, top[t] + slot] = np.c_[2 * r + side, depth[split] + 1]
        top[t] += 2
        records += tree.size
        steps.append((tree, label, feature, threshold, value))

    tree, label, feature, threshold, value = map(np.concatenate, zip(*steps))
    row = np.argsort(tree, kind="stable")  # tree by tree, each depth first
    node, here = np.argsort(row), np.arange(row.size)
    right, is_right = here.copy(), (label > 0) & (label % 2 == 0)
    right[node[label[is_right] // 2 - 1]] = node[is_right]
    forest = Forest(task, d, feature[row], threshold[row],
                    np.where(right > here, here + 1, here), right, value[row],
                    np.searchsorted(tree[row], np.arange(trees)))
    metrics = _fit_metrics(forest, X, labels, train=range(n))
    return forest, FitReport(param_count=row.size, final_metrics=metrics)


# ---------------------------------------------------------------------------
# prediction

def predict(head, x):
    """Class probabilities (classify) or scalar size (regress).

    A single vector yields a (2,) probability array or a float; a matrix of
    row vectors yields one row/value per input.
    """
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    X = np.atleast_2d(arr)
    width = head.widths[0] if isinstance(head, MlpHead) else head.n_features
    if X.shape[1] != width:
        raise ValueError(f"input width {X.shape[1]} != expected {width}")

    if isinstance(head, MlpHead):
        out = dense(X, head.params, "", len(head.widths) - 1)
        if head.task == "classify":
            probs = T.softmax(out.data)
            return probs[0] if single else probs
        vals = out.data.reshape(-1)
        return float(vals[0]) if single else vals

    # Each (row, tree) pair descends one level per pass to the deepest leaf (a leaf
    # is its own child); the next node is slot 2 * node + (x <= threshold) of (right, left).
    offset = np.arange(len(X))[:, None] * X.shape[1]
    (child, votes, depth), flat = head._walk, X.ravel()
    node = np.broadcast_to(head.roots, (len(X), head.roots.size))
    for _ in range(depth):
        node = child[2 * node + (flat[offset + head.feature[node]]
                                 <= head.threshold[node])]
    if head.task == "classify":
        # Like argmax, a leaf whose frequencies tie votes for the first class.
        hot = np.sum(votes[node], axis=1)
        probs = np.stack([node.shape[1] - hot, hot], 1) / node.shape[1]
        return probs[0] if single else probs
    # A contiguous (rows, trees) mean sums each row in tree order.
    vals = head.value[node].mean(axis=1)
    return float(vals[0]) if single else vals


# ---------------------------------------------------------------------------
# persistence

def save_head(head, dir_path):
    """MLP heads reuse the manifest+payload scheme; forests go to JSON."""
    if isinstance(head, MlpHead):
        meta = {"kind": "head", "task": head.task, "widths": list(head.widths)}
        save_params(head.params, dir_path, meta)
        return
    os.makedirs(dir_path, exist_ok=True)
    write_json(os.path.join(dir_path, "forest.json"),
               {"kind": "forest", **asdict(head)})


def _forest_from_doc(doc, path):
    """Rebuild a forest, or raise IOError unless every descent stays inside the
    table and ends: each node is a leaf or a split whose children follow it."""
    if not isinstance(doc, dict) or doc.get("kind") != "forest" \
            or set(doc) != {"kind", *(f.name for f in fields(Forest))} \
            or doc["task"] not in ("classify", "regress") \
            or type(doc["n_features"]) is not int:
        raise IOError(f"{path} is not a forest document")
    try:  # one array for the three index columns makes unequal lengths fail
        feature, left, right = links = np.array(
            [doc["feature"], doc["left"], doc["right"]])
        threshold, value = (np.asarray(doc[k], dtype=float)
                            for k in ("threshold", "value"))
        roots = np.asarray(doc["roots"])
    except (TypeError, ValueError):
        raise IOError(f"{path}: ragged or non-numeric node table") from None
    n, here = links.shape[-1], np.arange(links.shape[-1])
    width = (len(CLASS_ORDER),) if doc["task"] == "classify" else ()
    if links.ndim != 2 or threshold.shape != (n,) or value.shape != (n, *width) \
            or roots.ndim != 1 or roots.size == 0 \
            or links.dtype.kind != "i" or roots.dtype.kind != "i":
        raise IOError(f"{path}: ragged or non-numeric node table")
    split = (left != here) | (right != here)
    if np.any((feature < 0) | (feature >= doc["n_features"])) \
            or np.any((roots < 0) | (roots >= n)) or np.any(split & (
                (np.minimum(left, right) <= here) | (np.maximum(left, right) >= n))):
        raise IOError(f"{path}: a feature, root or child index is out of range, "
                      "or a child does not follow its split")
    return Forest(doc["task"], doc["n_features"], feature, threshold, left,
                  right, value, roots)


def _fresh_head(meta):
    """The untrained MLP head a checkpoint's meta declares: its layout's template."""
    if meta["task"] not in ("classify", "regress"):
        raise ValueError(f"unknown head task {meta['task']!r}")
    if len(meta["widths"]) < 2 or min(meta["widths"]) < 1:
        raise ValueError(f"head widths {meta['widths']} are not two or more "
                         f"sizes of at least 1")
    return MlpHead(meta["task"], tuple(meta["widths"]), T.Parameters(
        init_dense({}, "", meta["widths"], np.random.default_rng(0))))


def load_head(dir_path):
    forest_path = os.path.join(dir_path, "forest.json")
    if os.path.exists(forest_path):
        return _forest_from_doc(read_json(forest_path), forest_path)
    return read_checkpoint(dir_path, "head", _fresh_head)[0]
