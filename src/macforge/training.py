"""Contrastive/triplet losses with exact gradients and the SGD fine-tuning loop.

The trainer consumes a tuple source (anything exposing current_tuples()
and remine(describe), where describe maps a list of image ids to their
descriptors under the current network, in order) and reads pixels
through image_of, an image id -> image function, as validate does. It
descends on whole-image descriptors built as l2n(mac(trunk(image))),
re-mines hard negatives at evenly spaced batch boundaries, and keeps the
checkpoint with the best validation mAP.

Its per-image work, the embeds and each image's taped forward and
backward, maps over an image_workers pool that the caller owns. The
loss, the sum of the per-image gradients and the SGD step stay in the
caller, in a fixed order, so no byte depends on the worker count.

Each image is embedded at most once per parameter version across all
workers: re-mining, validation and the batch losses share one id ->
descriptor cache in the caller, dropped on every SGD step; each fills it
with the ids it lacks in one map, and a re-mine with no SGD step since
the tuples were last mined is skipped. The source's tuples on entry
count as mined under the entry params, and the caller may hand in the
descriptors it mined them from as the entry cache, so the count holds
from pipeline.stage_train's initial embedding on. Once a batch's loss
is known from that cache, each of its images runs one taped forward
and backward in some worker, in turn within that worker, so one
backward tape is alive per process at a time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .backbone import CONV, LayerSpec, NetParams, backward, forward
from .descriptor import l2n, mac, mac_backward
from .ioutil import write_text
from .numeric import DimensionError, SeededStream
from .retrieval import DescriptorDB, search
from .workers import Workers


class TrainingDivergedError(RuntimeError):
    """Loss or a validation descriptor became non-finite; in training the
    message names the epoch (and the batch, for a loss)."""


@dataclass(frozen=True)
class LossConfig:
    tau: float = 0.7
    triplet_margin: float = 0.1

    def __post_init__(self):
        if not self.tau > 0 or not self.triplet_margin > 0:
            raise ValueError("loss margins must be positive")


@dataclass(frozen=True)
class TrainConfig:
    """Optimiser, schedule and input-scale settings of one training run.

    max_image_side caps the longest image side (bilinear down-sampling,
    never up) in train, embed and eval alike, so tuples are mined and the
    network is fitted at the scale the descriptors are later extracted at.
    """

    base_lr: float = 0.001
    lr_divisor: float = 5.0
    lr_period: int = 10
    momentum: float = 0.9
    weight_decay: float = 0.0005
    batch_tuples: int = 5
    max_epochs: int = 30
    remine_per_epoch: int = 3
    max_image_side: int = 362
    freeze_conv_layers: int = 0

    def __post_init__(self):
        if self.batch_tuples < 1:
            raise ValueError("batch_tuples must be >= 1")
        if self.base_lr < 0:
            raise ValueError("base_lr must be non-negative")
        for name in ("lr_divisor", "lr_period", "max_epochs",
                     "remine_per_epoch", "max_image_side"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("weight_decay", "freeze_conv_layers"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    lr: float
    train_loss: float
    val_map: float


@dataclass
class TrainResult:
    best_params: NetParams
    best_epoch: int
    best_val_map: float
    metrics: list


def contrastive_loss(a: np.ndarray, b: np.ndarray, y: int, tau: float):
    """Margin loss on descriptor distance d = ||a - b||.

    Matching pairs (y=1) pay d^2/2; non-matching pairs pay (tau - d)^2/2
    inside the margin and nothing outside. Returns (loss, grad_a, grad_b);
    the non-matching gradient at d = 0 is defined as zero.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionError(f"descriptor dims differ: {a.shape} vs {b.shape}")
    diff = a - b
    d = float(np.linalg.norm(diff))
    if y:
        return 0.5 * d * d, diff.copy(), -diff
    if d >= tau or d == 0.0:
        zero = np.zeros_like(a)
        loss = 0.0 if d >= tau else 0.5 * tau * tau
        return loss, zero, zero.copy()
    scale = (tau - d) / d
    return 0.5 * (tau - d) ** 2, -scale * diff, scale * diff


def triplet_loss(q: np.ndarray, p: np.ndarray, n: np.ndarray, margin: float):
    """Hinge on squared distances: max(0, margin + ||q-p||^2 - ||q-n||^2).

    Returns (loss, (grad_q, grad_p, grad_n)); gradients vanish when the
    hinge is inactive.
    """
    q = np.asarray(q)
    p = np.asarray(p)
    n = np.asarray(n)
    if q.shape != p.shape or q.shape != n.shape:
        raise DimensionError("triplet descriptor dims differ")
    dp = q - p
    dn = q - n
    value = margin + float(dp @ dp) - float(dn @ dn)
    if value <= 0:
        zero = np.zeros_like(q)
        return 0.0, (zero, zero.copy(), zero.copy())
    return value, (2.0 * (dp - dn), -2.0 * dp, 2.0 * dn)


def l2n_backward(f: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gradient of l2n at raw vector f given the upstream gradient.

    Zero-norm inputs get a zero gradient, matching l2n's degenerate branch.
    """
    f = np.asarray(f)
    upstream = np.asarray(upstream)
    norm = float(np.linalg.norm(f.astype(np.float64)))
    if norm < 1e-12:
        return np.zeros_like(f)
    fbar = f / norm
    return (upstream - fbar * float(fbar @ upstream)) / norm


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Step schedule: base_lr / lr_divisor^(epoch // lr_period)."""
    return cfg.base_lr / cfg.lr_divisor ** (epoch // cfg.lr_period)


def sgd_step(w: np.ndarray, g: np.ndarray, v: np.ndarray, lr: float,
             momentum: float, weight_decay: float):
    """One momentum-SGD update: v' = momentum*v - lr*(g + wd*w); w' = w + v'."""
    if not (w.shape == g.shape == v.shape):
        raise DimensionError(
            f"shape mismatch: w {w.shape}, g {g.shape}, v {v.shape}")
    v_new = momentum * v - lr * (g + weight_decay * w)
    return w + v_new, v_new


def sgd_step_net(params: NetParams, grads: NetParams, velocity: NetParams,
                 lr: float, cfg: TrainConfig):
    """Update every conv layer; weight decay applies to weights only, and
    the first freeze_conv_layers conv layers are left untouched."""
    new_w, new_b, vel_w, vel_b = [], [], [], []
    for i in range(len(params.weights)):
        if i < cfg.freeze_conv_layers:
            new_w.append(params.weights[i])
            new_b.append(params.biases[i])
            vel_w.append(velocity.weights[i])
            vel_b.append(velocity.biases[i])
            continue
        w, vw = sgd_step(params.weights[i], grads.weights[i],
                         velocity.weights[i], lr, cfg.momentum,
                         cfg.weight_decay)
        b, vb = sgd_step(params.biases[i], grads.biases[i],
                         velocity.biases[i], lr, cfg.momentum, 0.0)
        new_w.append(w)
        new_b.append(b)
        vel_w.append(vw)
        vel_b.append(vb)
    return NetParams(new_w, new_b), NetParams(vel_w, vel_b)


def check_trainable(spec: list[LayerSpec], cfg: TrainConfig) -> None:
    """ValueError unless cfg.freeze_conv_layers leaves at least one conv
    layer of spec to train."""
    n_conv = sum(layer.kind == CONV for layer in spec)
    if cfg.freeze_conv_layers >= n_conv:
        raise ValueError(
            f"freeze_conv_layers={cfg.freeze_conv_layers} freezes every conv"
            f" layer: the network has {n_conv}")


def embed_image(params: NetParams, spec: list[LayerSpec], image: np.ndarray) -> np.ndarray:
    """Whole-image descriptor: l2n(mac(trunk(image))), from a forward
    that records no tape."""
    out, _ = forward(params, spec, image, tape=False)
    return l2n(mac(out))


def _image_work(spec, image_of, payload, image_id):
    """One image's part of an image_workers map. payload is (params, None,
    None) for its embed_image descriptor, or (params, desc_grads,
    lowest_conv) for its _image_gradients of desc_grads[image_id]."""
    params, desc_grads, lowest_conv = payload
    image = image_of(image_id)
    if desc_grads is None:
        return embed_image(params, spec, image)
    return _image_gradients(params, spec, image, desc_grads[image_id],
                            lowest_conv)


def image_workers(spec, image_of, threads=1):
    """The Workers over threads that embedded, validate and train map
    their per-image work over; at one process its maps are plain loops."""
    return Workers(functools.partial(_image_work, spec, image_of), threads)


def _tuple_ids(tuples):
    return [i for t in tuples for i in (t.query, t.positive) + t.negatives]


def embedded(workers, params, cache: dict, ids):
    """Descriptors of ids under params, in order, read from cache, an
    id -> descriptor map valid for params; the ids it lacks are embedded
    in one map over workers (an image_workers) and added to it."""
    missing = [i for i in dict.fromkeys(ids) if i not in cache]
    cache.update(zip(missing, workers.map((params, None, None), missing)))
    return [cache[i] for i in ids]


def validate(params: NetParams, spec: list[LayerSpec], tuples: list,
             image_of, cache: dict | None = None, workers=None) -> float:
    """Validation mAP: per tuple, the positive is ranked among the
    positive-plus-negatives set by similarity to the query (ties broken by
    image-id) and scores 1/rank; mAP averages over tuples.

    cache, if given, is an id -> descriptor map valid for params; it is
    read and filled, so a caller can reuse what validation embedded.
    workers, an image_workers over spec and image_of, embeds what cache
    lacks; None embeds in this process. A non-finite descriptor, which
    no ranking can order, raises TrainingDivergedError."""
    if not tuples:
        raise ValueError("validation tuple set is empty")
    if workers is None:
        workers = image_workers(spec, image_of)
    desc = {} if cache is None else cache
    embedded(workers, params, desc, _tuple_ids(tuples))
    total = 0.0
    for t in tuples:
        db = DescriptorDB({i: desc[i] for i in (t.positive,) + t.negatives})
        q = desc[t.query]
        if not (np.isfinite(q).all() and np.isfinite(db.matrix).all()):
            raise TrainingDivergedError("non-finite validation descriptor")
        order = search(db, q).tolist()
        total += 1.0 / (1 + order.index(db.ids.index(t.positive)))
    return total / len(tuples)


def _image_gradients(params, spec, image, desc_grad, lowest_conv):
    """Parameter gradients of <desc_grad, l2n(mac(trunk(image)))> from one
    taped forward and the backward that stops after conv lowest_conv; the
    tape is freed when this returns."""
    out, tape = forward(params, spec, image)
    f = mac(out)
    g_out = mac_backward(out, l2n_backward(f, desc_grad))
    grads, _ = backward(params, spec, tape, g_out.astype(out.dtype),
                        lowest_conv=lowest_conv)
    return grads


def _batch_loss(params, batch, cache, loss_cfg, loss_kind, workers):
    """Mean pair loss over one batch of tuples, from descriptors read
    through cache, an id -> descriptor map valid for params that this
    reads and fills through workers (an image_workers) as validate does.

    Returns (mean_loss, desc_grads): desc_grads maps each image id of the
    batch to the gradient of mean_loss with respect to its descriptor,
    accumulated in tuple order.
    """
    embedded(workers, params, cache, _tuple_ids(batch))
    describe = cache.__getitem__
    desc_grads = {}

    def add_grad(image_id, g):
        if image_id in desc_grads:
            desc_grads[image_id] = desc_grads[image_id] + g
        else:
            desc_grads[image_id] = g

    total = 0.0
    n_pairs = 0
    for t in batch:
        dq = describe(t.query)
        if loss_kind == "contrastive":
            pairs = [(t.positive, 1)] + [(n, 0) for n in t.negatives]
            for other, label in pairs:
                loss, ga, gb = contrastive_loss(dq, describe(other), label,
                                                loss_cfg.tau)
                total += loss
                n_pairs += 1
                add_grad(t.query, ga)
                add_grad(other, gb)
        else:
            dp = describe(t.positive)
            for neg in t.negatives:
                loss, (gq, gp, gn) = triplet_loss(dq, dp, describe(neg),
                                                  loss_cfg.triplet_margin)
                total += loss
                n_pairs += 1
                add_grad(t.query, gq)
                add_grad(t.positive, gp)
                add_grad(neg, gn)
    inv = 1.0 / n_pairs
    return total * inv, {i: g * inv for i, g in desc_grads.items()}


def _param_gradients(params, desc_grads, lowest_conv, workers):
    """Parameter gradients of sum_i <desc_grads[i], descriptor of i>.

    Per image in id order, one taped forward and its backward run in
    _image_gradients, mapped over workers as validate's embeds are, so
    one tape is alive per process at a time; the taped forward gives the
    bytes of the tape-free one the loss pass read. The per-image
    gradients are summed here in id order. The gradients of the convs
    below lowest_conv stay zero.
    """
    grads = params.zeros_like()
    for pg in workers.map((params, desc_grads, lowest_conv),
                          sorted(desc_grads)):
        for i in range(lowest_conv, len(grads.weights)):
            grads.weights[i] += pg.weights[i]
            grads.biases[i] += pg.biases[i]
    return grads


def _remine_batches(n_batches: int, per_epoch: int) -> set:
    """Batch indices at which to re-mine: evenly spaced, starting at 0."""
    return {i * n_batches // per_epoch for i in range(per_epoch)}


def train(source, image_of, val_tuples: list, spec: list[LayerSpec],
          params: NetParams, cfg: TrainConfig, loss_cfg: LossConfig,
          stream: SeededStream, loss_kind: str = "contrastive",
          workers=None, entry_cache=None):
    """Fine-tune the trunk on the pixels image_of returns; returns a
    TrainResult.

    Per epoch the tuple order is reshuffled with a derived seed, hard
    negatives are re-mined remine_per_epoch times at evenly spaced batch
    boundaries, and validation mAP decides the best checkpoint (ties to
    the earliest epoch). Positives are fixed by the source and never
    reselected here.

    The source's tuples on entry must be the ones it mines under params
    (as pipeline.prepare_training builds them), so a re-mine before the
    first SGD step is skipped. entry_cache, if given, is an id ->
    descriptor map valid for params, such as the initial embedding the
    tuples were mined from; train() reads a copy of it, so the first
    loss pass embeds only the ids it lacks. The embeds and taped passes
    map over workers, an open image_workers over spec and image_of that
    the caller closes, or None for plain loops here; train() forks and
    joins nothing, and its result is the same at every worker count. A
    non-finite batch loss raises TrainingDivergedError before that
    batch's first taped forward, and a non-finite validation descriptor
    raises it before its params can become the best.
    """
    if loss_kind not in ("contrastive", "triplet"):
        raise ValueError(f"unknown loss {loss_kind!r}")
    check_trainable(spec, cfg)
    if not source.current_tuples():
        raise ValueError("tuple source has no training tuples")
    if not val_tuples:
        raise ValueError("validation tuple set is empty")
    params = params.copy()
    velocity = params.zeros_like()
    best_params = params.copy()
    best_epoch = -1
    best_val = -1.0
    metrics = []
    # id -> descriptor under params; the entry tuples were mined under them
    cache = dict(entry_cache or {})
    mined_current = True
    if workers is None:
        workers = image_workers(spec, image_of)
    for epoch in range(cfg.max_epochs):
        lr = lr_at(epoch, cfg)
        tuples = source.current_tuples()
        order = stream.derive("epoch", epoch).permutation(len(tuples))
        tuples = [tuples[int(j)] for j in order]
        n_batches = max(1, -(-len(tuples) // cfg.batch_tuples))
        remine_at = _remine_batches(n_batches, cfg.remine_per_epoch)
        loss_sum = 0.0
        loss_batches = 0
        for b in range(n_batches):
            if b in remine_at and not mined_current:
                source.remine(functools.partial(embedded, workers, params,
                                                cache))
                mined_current = True
                by_query = {t.query: t for t in source.current_tuples()}
                tuples = [by_query[t.query] for t in tuples]
            batch = tuples[b * cfg.batch_tuples:(b + 1) * cfg.batch_tuples]
            if not batch:
                continue
            loss, desc_grads = _batch_loss(params, batch, cache, loss_cfg,
                                           loss_kind, workers)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {b}")
            grads = _param_gradients(params, desc_grads,
                                     cfg.freeze_conv_layers, workers)
            loss_sum += loss
            loss_batches += 1
            params, velocity = sgd_step_net(params, grads, velocity, lr, cfg)
            cache = {}
            mined_current = False
        try:
            val_map = validate(params, spec, val_tuples, image_of, cache,
                               workers)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(f"{exc} at epoch {epoch}") from None
        metrics.append(EpochMetrics(epoch, lr, loss_sum / max(1, loss_batches),
                                    val_map))
        if val_map > best_val:
            best_val = val_map
            best_epoch = epoch
            best_params = params.copy()
    return TrainResult(best_params, best_epoch, best_val, metrics)


def write_metrics_csv(path, metrics: list, note: str | None = None) -> None:
    """Write one row per epoch; an optional note becomes a leading
    comment line (e.g. "loss=triplet")."""
    lines = [] if note is None else [f"# {note}"]
    lines.append("epoch,lr,train_loss,val_map")
    lines.extend(f"{m.epoch},{m.lr!r},{m.train_loss!r},{m.val_map!r}"
                 for m in metrics)
    write_text(path, "\n".join(lines) + "\n")
