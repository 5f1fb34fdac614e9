"""Contrastive/triplet losses with exact gradients and the SGD fine-tuning loop.

The trainer consumes a tuple source (anything exposing current_tuples(),
image(id), and remine(describe), where describe maps an image id to its
descriptor under the current network), descends on whole-image
descriptors built as l2n(mac(trunk(image))), re-mines hard negatives at
evenly spaced batch boundaries, and keeps the checkpoint with the best
validation mAP.

Each image is embedded at most once per parameter version outside the
batch forwards: re-mining and validation share one id -> descriptor
cache, dropped on every SGD step, and a re-mine with no SGD step since
the tuples were last mined is skipped. The source's tuples on entry
count as mined under the entry params.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .backbone import CONV, LayerSpec, NetParams, backward, forward
from .descriptor import l2n, mac, mac_backward
from .numeric import DimensionError, SeededStream
from .retrieval import DescriptorDB, search


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; message names the epoch and batch."""


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
    """Whole-image descriptor: l2n(mac(trunk(image)))."""
    out, _ = forward(params, spec, image)
    return l2n(mac(out))


def _describer(params, spec, image_of, cache: dict):
    """image id -> embed_image descriptor under params, memoised in cache."""
    def describe(image_id):
        if image_id not in cache:
            cache[image_id] = embed_image(params, spec, image_of(image_id))
        return cache[image_id]
    return describe


def validate(params: NetParams, spec: list[LayerSpec], tuples: list,
             image_of, cache: dict | None = None) -> float:
    """Validation mAP: per tuple, the positive is ranked among the
    positive-plus-negatives set by similarity to the query (ties broken by
    image-id) and scores 1/rank; mAP averages over tuples.

    cache, if given, is an id -> descriptor map valid for params; it is
    read and filled, so a caller can reuse what validation embedded."""
    if not tuples:
        raise ValueError("validation tuple set is empty")
    desc = _describer(params, spec, image_of, {} if cache is None else cache)
    total = 0.0
    for t in tuples:
        db = DescriptorDB({i: desc(i) for i in (t.positive,) + t.negatives})
        ranking = [i for i, _ in search(db, desc(t.query), len(db))]
        total += 1.0 / (1 + ranking.index(t.positive))
    return total / len(tuples)


def _batch_gradients(params, spec, batch, image_of, loss_cfg, loss_kind,
                     lowest_conv):
    """Mean pair loss and parameter gradients over one batch of tuples.

    Images are forwarded once each; descriptor-space gradients accumulate
    per image in tuple order, then flow back through one backward pass per
    image that stops after conv layer lowest_conv. Returns (mean_loss,
    grads: NetParams); the gradients of the convs below lowest_conv stay
    zero.
    """
    acts = {}

    def ensure(image_id):
        if image_id not in acts:
            out, tape = forward(params, spec, image_of(image_id))
            f = mac(out)
            acts[image_id] = (out, tape, f, l2n(f))
        return acts[image_id]

    desc_grads = {}

    def add_grad(image_id, g):
        if image_id in desc_grads:
            desc_grads[image_id] = desc_grads[image_id] + g
        else:
            desc_grads[image_id] = g

    total = 0.0
    n_pairs = 0
    for t in batch:
        dq = ensure(t.query)[3]
        if loss_kind == "contrastive":
            pairs = [(t.positive, 1)] + [(n, 0) for n in t.negatives]
            for other, label in pairs:
                do = ensure(other)[3]
                loss, ga, gb = contrastive_loss(dq, do, label, loss_cfg.tau)
                total += loss
                n_pairs += 1
                add_grad(t.query, ga)
                add_grad(other, gb)
        else:
            dp = ensure(t.positive)[3]
            for neg in t.negatives:
                dn = ensure(neg)[3]
                loss, (gq, gp, gn) = triplet_loss(dq, dp, dn,
                                                  loss_cfg.triplet_margin)
                total += loss
                n_pairs += 1
                add_grad(t.query, gq)
                add_grad(t.positive, gp)
                add_grad(neg, gn)

    grads = params.zeros_like()
    inv = 1.0 / n_pairs
    for image_id in sorted(desc_grads):
        out, tape, f, _ = acts[image_id]
        g_f = l2n_backward(f, desc_grads[image_id] * inv)
        g_out = mac_backward(out, g_f)
        pg, _ = backward(params, spec, tape, g_out.astype(out.dtype),
                         lowest_conv=lowest_conv)
        for i in range(lowest_conv, len(grads.weights)):
            grads.weights[i] += pg.weights[i]
            grads.biases[i] += pg.biases[i]
    return total * inv, grads


def _remine_batches(n_batches: int, per_epoch: int) -> set:
    """Batch indices at which to re-mine: evenly spaced, starting at 0."""
    return {i * n_batches // per_epoch for i in range(per_epoch)}


def train(source, val_tuples: list, spec: list[LayerSpec], params: NetParams,
          cfg: TrainConfig, loss_cfg: LossConfig, stream: SeededStream,
          loss_kind: str = "contrastive"):
    """Fine-tune the trunk; returns a TrainResult.

    Per epoch the tuple order is reshuffled with a derived seed, hard
    negatives are re-mined remine_per_epoch times at evenly spaced batch
    boundaries, and validation mAP decides the best checkpoint (ties to
    the earliest epoch). Positives are fixed by the source and never
    reselected here.

    The source's tuples on entry must be the ones it mines under params
    (as pipeline.prepare_training builds them), so a re-mine before the
    first SGD step is skipped. Re-mining and validation share one
    id -> descriptor cache per parameter version, dropped on every SGD
    step; the batch forwards keep their own tapes and do not use it.
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
    cache = {}
    mined_current = True
    for epoch in range(cfg.max_epochs):
        lr = lr_at(epoch, cfg)
        tuples = source.current_tuples()
        order = stream.derive("epoch", epoch).permutation(len(tuples))
        tuples = [tuples[int(j)] for j in order]
        n_batches = max(1, (len(tuples) + cfg.batch_tuples - 1) // cfg.batch_tuples)
        remine_at = _remine_batches(n_batches, cfg.remine_per_epoch)
        loss_sum = 0.0
        loss_batches = 0
        for b in range(n_batches):
            if b in remine_at and not mined_current:
                source.remine(_describer(params, spec, source.image, cache))
                mined_current = True
                by_query = {t.query: t for t in source.current_tuples()}
                tuples = [by_query[t.query] for t in tuples]
            batch = tuples[b * cfg.batch_tuples:(b + 1) * cfg.batch_tuples]
            if not batch:
                continue
            loss, grads = _batch_gradients(params, spec, batch, source.image,
                                           loss_cfg, loss_kind,
                                           cfg.freeze_conv_layers)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {b}")
            loss_sum += loss
            loss_batches += 1
            params, velocity = sgd_step_net(params, grads, velocity, lr, cfg)
            cache = {}
            mined_current = False
        val_map = validate(params, spec, val_tuples, source.image, cache)
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
    with open(os.fspath(path), "w") as f:
        if note is not None:
            f.write(f"# {note}\n")
        f.write("epoch,lr,train_loss,val_map\n")
        for m in metrics:
            f.write(f"{m.epoch},{m.lr!r},{m.train_loss!r},{m.val_map!r}\n")
