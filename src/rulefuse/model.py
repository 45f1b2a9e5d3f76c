"""Recurrent-attention sentence classifier with optional automaton features.

Three wiring modes:

* ``nnsc``     - word embeddings -> bidirectional LSTM -> bilinear attention
                 (query = last hidden state) -> 2-layer MLP softmax.
* ``instance`` - per-rule state-indicator vectors are concatenated to the
                 attention output before the classifier.
* ``word``     - per-rule binary word tags are appended to each word
                 embedding before the recurrent pass.

All math is plain numpy in float64 with hand-written backward passes so the
analytic gradients can be checked against central finite differences.
Training and scoring run on padded mini-batches: only the recurrence
``h @ wh`` loops over time, and both LSTM directions advance together.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .encoding import InstanceFeature, WordTagSeq
from .errors import DimensionMismatchError, MissingFeaturesError, NumericalError
from .matching import Sentence

__all__ = [
    "VARIANTS",
    "UNK",
    "CHECKPOINT_VERSION",
    "ModelParams",
    "ActivationRecord",
    "TrainItem",
    "TrainConfig",
    "build_vocab",
    "forward",
    "loss_and_grads",
    "predict",
    "train",
    "evaluate_items",
    "save_model",
    "load_model",
    "load_pretrained_embeddings",
]

VARIANTS = ("nnsc", "instance", "word")
UNK = "<unk>"
CHECKPOINT_VERSION = "rulefuse-v2"  # adds the rule binding
UNBOUND_CHECKPOINT_VERSION = "rulefuse-v1"  # no rule binding; still loads
INFER_CHUNK = 64  # sentences per forward-only inference batch

_TENSOR_NAMES = (
    "emb",
    "fwd_wx",
    "fwd_wh",
    "fwd_b",
    "bwd_wx",
    "bwd_wh",
    "bwd_b",
    "att_w",
    "mlp_w1",
    "mlp_b1",
    "mlp_w2",
    "mlp_b2",
)


def build_vocab(sentences: Iterable[Sentence]) -> dict[str, int]:
    """Word -> index map, UNK at index 0, then first-appearance order."""
    vocab = {UNK: 0}
    for sentence in sentences:
        for word in sentence.words:
            if word not in vocab:
                vocab[word] = len(vocab)
    return vocab


@dataclass
class ModelParams:
    """All trainable tensors plus the configuration they were built for."""

    variant: str
    vocab: dict[str, int]
    d: int
    h: int
    C: int
    p: int
    m_total: int
    emb: np.ndarray
    fwd_wx: np.ndarray
    fwd_wh: np.ndarray
    fwd_b: np.ndarray
    bwd_wx: np.ndarray
    bwd_wh: np.ndarray
    bwd_b: np.ndarray
    att_w: np.ndarray
    mlp_w1: np.ndarray
    mlp_b1: np.ndarray
    mlp_w2: np.ndarray
    mlp_b2: np.ndarray
    labels: list[str] | None = None  # class-name order used at training time
    # fingerprint, pattern and label of each training rule, in rule order
    rules: list[dict] | None = None

    @property
    def input_width(self) -> int:
        return self.d + (self.p if self.variant == "word" else 0)

    @property
    def classifier_width(self) -> int:
        return 2 * self.h + (self.m_total if self.variant == "instance" else 0)

    @classmethod
    def init(
        cls,
        variant: str,
        vocab: dict[str, int],
        d: int,
        h: int,
        C: int,
        p: int = 0,
        m_total: int = 0,
        seed: int = 0,
        scale: float = 0.3,
        labels: list[str] | None = None,
        rules: list[dict] | None = None,
    ) -> "ModelParams":
        """Seeded uniform(-scale, scale) weights, zero biases.

        The draw order is fixed, so two variants with identical tensor
        shapes (e.g. any variant at p = 0) get identical values from the
        same seed.  The default scale suits the small hidden sizes this
        model runs at; much smaller values stall learning because the
        stacked squashing layers attenuate the gradient.
        """
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        rng = np.random.default_rng(seed)

        def u(*shape):
            return rng.uniform(-scale, scale, size=shape)

        d_in = d + (p if variant == "word" else 0)
        f_in = 2 * h + (m_total if variant == "instance" else 0)
        return cls(
            variant=variant,
            vocab=dict(vocab),
            d=d,
            h=h,
            C=C,
            p=p,
            m_total=m_total,
            emb=u(len(vocab), d),
            fwd_wx=u(d_in, 4 * h),
            fwd_wh=u(h, 4 * h),
            fwd_b=np.zeros(4 * h),
            bwd_wx=u(d_in, 4 * h),
            bwd_wh=u(h, 4 * h),
            bwd_b=np.zeros(4 * h),
            att_w=u(2 * h, 2 * h),
            mlp_w1=u(f_in, 2 * h),
            mlp_b1=np.zeros(2 * h),
            mlp_w2=u(2 * h, C),
            mlp_b2=np.zeros(C),
            labels=list(labels) if labels is not None else None,
            rules=list(rules) if rules is not None else None,
        )

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _TENSOR_NAMES}

    def copy(self) -> "ModelParams":
        kwargs = {name: getattr(self, name).copy() for name in _TENSOR_NAMES}
        return ModelParams(
            variant=self.variant,
            vocab=dict(self.vocab),
            d=self.d,
            h=self.h,
            C=self.C,
            p=self.p,
            m_total=self.m_total,
            labels=list(self.labels) if self.labels is not None else None,
            rules=list(self.rules) if self.rules is not None else None,
            **kwargs,
        )

    def all_finite(self) -> bool:
        return all(np.isfinite(arr).all() for arr in self.tensors().values())


@dataclass(frozen=True)
class ActivationRecord:
    """Per-forward intermediate values."""

    H: np.ndarray  # (n, 2h) hidden states
    alpha: np.ndarray  # (n,) attention weights, sums to 1
    f: np.ndarray  # (2h,) attended sentence vector
    logits: np.ndarray  # (C,)
    y: np.ndarray  # (C,) class probabilities, sums to 1


@dataclass(frozen=True)
class TrainItem:
    sentence: Sentence
    label: int
    instance_feats: Sequence[InstanceFeature] | None = None
    word_tags: Sequence[WordTagSeq] | None = None


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 8
    lr: float = 0.1
    seed: int = 0
    patience: int | None = None  # early stop on dev accuracy when set
    clip_norm: float | None = 5.0


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis; -inf entries get weight exactly 0."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _stacked(params, name: str) -> np.ndarray:
    """The forward and backward direction's tensor, stacked on a new axis 0."""
    return np.stack([getattr(params, "fwd_" + name), getattr(params, "bwd_" + name)])


def _lstm_forward(Xd, wx, wh, b, cache=None):
    """Both LSTM directions, stacked on axis 0 of inputs and weights.

    Xd is (2, T, B, d_in), the backward direction's sentences already
    reversed within their lengths.  All timesteps are projected by one
    matmul; only `h @ wh` runs per step.  Gates are ordered i, f, o, g.
    Returns the hidden states (2, T, B, h); a `cache` dict also receives
    the gate activations and cell states that `_lstm_backward` reads.
    """
    Zx = Xd @ wx[:, None]
    Zx += b[:, None, None]
    D, T, B, four_h = Zx.shape
    hdim = four_h // 4
    hs = np.empty((D, T, B, hdim))
    h = np.zeros((D, B, hdim))
    c = np.zeros((D, B, hdim))
    if cache is not None:
        gates = np.empty_like(Zx)
        cells = np.empty_like(hs)
    for t in range(T):
        z = Zx[:, t] + h @ wh
        s = 0.5 * (1.0 + np.tanh(z[..., : 3 * hdim] / 2))  # sigmoid of i, f, o at once
        g = np.tanh(z[..., 3 * hdim :])
        c = s[..., hdim : 2 * hdim] * c + s[..., :hdim] * g
        h = s[..., 2 * hdim :] * np.tanh(c)
        hs[:, t] = h
        if cache is not None:
            gates[:, t, :, : 3 * hdim] = s
            gates[:, t, :, 3 * hdim :] = g
            cells[:, t] = c
    if cache is not None:
        cache.update(gates=gates, cells=cells)
    return hs


def _lstm_backward(dhs, cache):
    """BPTT through both stacked directions, from `_forward_batch`'s cache.

    Returns (dXd, dwx, dwh, db), each stacked per direction like its
    forward counterpart.  Padded steps receive zero upstream gradient and
    follow every real step, so their dz is exactly zero and adds nothing.
    """
    Xd, hs, gates, cells, wx, wh = (
        cache[k] for k in ("Xd", "hs", "gates", "cells", "wx", "wh")
    )
    hdim = wh.shape[1]
    i, f, o, g = (gates[..., k * hdim : (k + 1) * hdim] for k in range(4))
    tanh_c = np.tanh(cells)
    c_prev = np.concatenate([np.zeros_like(cells[:, :1]), cells[:, :-1]], axis=1)
    h_prev = np.concatenate([np.zeros_like(hs[:, :1]), hs[:, :-1]], axis=1)
    # dz per gate i, f, o, g is coef * (dc, dc, dh, dc)
    coef = np.concatenate(
        [g * i * (1.0 - i), c_prev * f * (1.0 - f), tanh_c * o * (1.0 - o), i * (1.0 - g * g)],
        axis=-1,
    )
    dc_from_h = o * (1.0 - tanh_c * tanh_c)
    wh_t = wh.swapaxes(1, 2)
    dZ = np.empty_like(gates)
    dh_carry = np.zeros_like(hs[:, 0])
    dc_carry = np.zeros_like(cells[:, 0])
    for t in range(dZ.shape[1] - 1, -1, -1):
        dh = dhs[:, t] + dh_carry
        dc = dc_from_h[:, t] * dh + dc_carry
        dz = np.multiply(np.concatenate((dc, dc, dh, dc), axis=-1), coef[:, t], out=dZ[:, t])
        dc_carry = f[:, t] * dc
        dh_carry = dz @ wh_t
    D, d_in, four_h = wx.shape
    flat_dz = dZ.reshape(D, -1, four_h)
    dwx = Xd.reshape(D, -1, d_in).swapaxes(1, 2) @ flat_dz
    dwh = h_prev.reshape(D, -1, hdim).swapaxes(1, 2) @ flat_dz
    return dZ @ wx.swapaxes(1, 2)[:, None], dwx, dwh, flat_dz.sum(axis=1)


def _gather_features(params, sentence, instance_feats, word_tags):
    """Validate variant/feature agreement; return (tag matrix, instance vec)."""
    n = sentence.n
    tagmat = None
    u = None
    if params.variant == "word":
        if word_tags is None:
            if params.p != 0:
                raise MissingFeaturesError("word variant requires word tags")
            word_tags = []
        if len(word_tags) != params.p:
            raise DimensionMismatchError(
                f"expected {params.p} tag sequences, got {len(word_tags)}"
            )
        for seq in word_tags:
            if len(seq.tags) != n:
                raise DimensionMismatchError(
                    f"tag sequence length {len(seq.tags)} != sentence length {n}"
                )
        if params.p:
            tagmat = np.stack([np.asarray(seq.tags, dtype=np.float64) for seq in word_tags], axis=1)
        else:
            tagmat = np.zeros((n, 0))
    elif params.variant == "instance":
        if instance_feats is None:
            if params.p != 0:
                raise MissingFeaturesError("instance variant requires instance features")
            instance_feats = []
        if len(instance_feats) != params.p:
            raise DimensionMismatchError(
                f"expected {params.p} instance vectors, got {len(instance_feats)}"
            )
        if instance_feats:
            u = np.concatenate([np.asarray(f.values, dtype=np.float64) for f in instance_feats])
        else:
            u = np.zeros(0)
        if u.shape[0] != params.m_total:
            raise DimensionMismatchError(
                f"instance features total {u.shape[0]} != m_total {params.m_total}"
            )
    return tagmat, u


def _rows(items: Sequence[TrainItem]) -> list[tuple]:
    """The (sentence, instance_feats, word_tags) rows `_forward_batch` reads."""
    return [(it.sentence, it.instance_feats, it.word_tags) for it in items]


def _forward_batch(params, rows, cache=None):
    """Forward pass over (sentence, instance_feats, word_tags) rows at once.

    Sentences are zero-padded to the longest, padding after the real words.
    The backward direction reads each sentence reversed within its own
    length, so its padding also comes last.  Attention scores past a
    sentence's length are -inf.  Returns (H, alpha, f, logits, y) with a
    leading batch axis; a `cache` dict receives what `_backward` reads.
    """
    lengths = np.array([sentence.n for sentence, _, _ in rows])
    if lengths.min() < 1:
        raise ValueError("forward requires a non-empty sentence")
    feats = [_gather_features(params, *row) for row in rows]
    B, T = len(rows), int(lengths.max())
    mask = np.arange(T) < lengths[:, None]
    ids = np.array([params.vocab.get(w, 0) for sentence, _, _ in rows for w in sentence.words])
    X = np.zeros((B, T, params.input_width))
    X[mask, : params.d] = params.emb[ids]
    if params.variant == "word":
        X[mask, params.d :] = np.concatenate([tags for tags, _ in feats])
    if params.variant == "instance":
        U = np.stack([u for _, u in feats])
    else:
        U = np.zeros((B, 0))

    rows_b = np.arange(B)
    steps = np.arange(T)
    rev = np.where(mask, lengths[:, None] - 1 - steps, steps)  # its own inverse
    # both directions stacked, time-major: (2, T, B, d_in)
    Xd = np.ascontiguousarray(np.stack([X, X[rows_b[:, None], rev]]).swapaxes(1, 2))
    wx, wh = _stacked(params, "wx"), _stacked(params, "wh")
    hs = _lstm_forward(Xd, wx, wh, _stacked(params, "b"), cache)
    H = np.concatenate([hs[0].swapaxes(0, 1), hs[1][rev, rows_b[:, None]]], axis=-1)  # (B, T, 2h)

    q = H[rows_b, lengths - 1]
    Wq = q @ params.att_w.T
    alpha = _softmax(np.where(mask, (H @ Wq[:, :, None])[..., 0], -np.inf))
    f = (alpha[:, None, :] @ H)[:, 0]

    g = np.concatenate([f, U], axis=1)
    a1 = np.tanh(g @ params.mlp_w1 + params.mlp_b1)
    logits = a1 @ params.mlp_w2 + params.mlp_b2
    y = _softmax(logits)
    if cache is not None:
        cache.update(
            ids=ids, lengths=lengths, mask=mask, rev=rev, Xd=Xd, wx=wx, wh=wh, hs=hs,
            H=H, q=q, Wq=Wq, alpha=alpha, g=g, a1=a1, y=y,
        )
    return H, alpha, f, logits, y


def forward(
    params: ModelParams,
    sentence: Sentence,
    instance_feats: Sequence[InstanceFeature] | None = None,
    word_tags: Sequence[WordTagSeq] | None = None,
) -> ActivationRecord:
    """Run the classifier on one sentence (a batch of one); features as the
    variant requires."""
    H, alpha, f, logits, y = _forward_batch(params, [(sentence, instance_feats, word_tags)])
    return ActivationRecord(H=H[0], alpha=alpha[0], f=f[0], logits=logits[0], y=y[0])


def _backward(params, cache, labels: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the batch-mean cross-entropy, one array op per tensor."""
    h = params.h
    y, a1, g, H, alpha, q, Wq = (cache[k] for k in ("y", "a1", "g", "H", "alpha", "q", "Wq"))
    lengths, rev, mask = cache["lengths"], cache["rev"], cache["mask"]
    B = len(labels)
    rows_b = np.arange(B)
    grads = {}

    dlogits = y.copy()
    dlogits[rows_b, labels] -= 1.0
    dlogits /= B
    grads["mlp_w2"] = a1.T @ dlogits
    grads["mlp_b2"] = dlogits.sum(axis=0)
    dz1 = (1.0 - a1 * a1) * (dlogits @ params.mlp_w2.T)
    grads["mlp_w1"] = g.T @ dz1
    grads["mlp_b1"] = dz1.sum(axis=0)
    df = (dz1 @ params.mlp_w1.T)[:, : 2 * h]

    # attention: f = alpha H, alpha = softmax(H (W q)), q = H[len - 1];
    # alpha is exactly 0 on padding, so padding gets no gradient here
    dalpha = (H @ df[:, :, None])[..., 0]
    dscores = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
    dWq = (dscores[:, None, :] @ H)[:, 0]
    dH = alpha[:, :, None] * df[:, None, :] + dscores[:, :, None] * Wq[:, None, :]
    grads["att_w"] = dWq.T @ q
    dH[rows_b, lengths - 1] += dWq @ params.att_w

    dhs = np.stack([dH[:, :, :h], dH[rows_b[:, None], rev, h:]]).swapaxes(1, 2)  # (2, T, B, h)
    dXd, dwx, dwh, db = _lstm_backward(dhs, cache)
    for k, prefix in enumerate(("fwd_", "bwd_")):
        grads[prefix + "wx"], grads[prefix + "wh"], grads[prefix + "b"] = dwx[k], dwh[k], db[k]
    dX = dXd[0].swapaxes(0, 1) + dXd[1][rev, rows_b[:, None]]  # (B, T, d_in)
    grads["emb"] = np.zeros_like(params.emb)
    np.add.at(grads["emb"], cache["ids"], dX[mask, : params.d])
    return {name: grads[name] for name in _TENSOR_NAMES}


def loss_and_grads(
    params: ModelParams, batch: Sequence[TrainItem]
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over the batch plus analytic gradients.

    One padded forward and backward pass covers the whole batch.
    Gradients mirror params.tensors(); raises NumericalError if the loss
    goes non-finite.
    """
    if not batch:
        raise ValueError("empty batch")
    cache: dict = {}
    y = _forward_batch(params, _rows(batch), cache)[-1]
    labels = np.array([item.label for item in batch])
    probs = y[np.arange(len(batch)), labels]
    if not (np.isfinite(probs).all() and (probs > 0.0).all()):
        raise NumericalError("class probability underflowed or went non-finite")
    loss = float(-np.log(probs).sum()) / len(batch)
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite loss {loss}")
    return loss, _backward(params, cache, labels)


def predict(
    params: ModelParams,
    sentence: Sentence,
    instance_feats: Sequence[InstanceFeature] | None = None,
    word_tags: Sequence[WordTagSeq] | None = None,
) -> int:
    """Most probable class; ties break toward the lowest class index."""
    record = forward(params, sentence, instance_feats, word_tags)
    return int(np.argmax(record.y))


def evaluate_items(params: ModelParams, items: Sequence[TrainItem]) -> float:
    """Fraction of items whose prediction matches the gold label.

    Forward-only batches of at most INFER_CHUNK sentences, keeping no
    backward caches; argmax ties break toward the lowest class index, as
    in `predict`.
    """
    if not items:
        return 0.0
    hits = 0
    for lo in range(0, len(items), INFER_CHUNK):
        chunk = items[lo : lo + INFER_CHUNK]
        y = _forward_batch(params, _rows(chunk))[-1]
        hits += int((y.argmax(axis=1) == [it.label for it in chunk]).sum())
    return hits / len(items)


def _clip_grads(grads: dict[str, np.ndarray], clip_norm: float) -> None:
    total = 0.0
    for arr in grads.values():
        total += float((arr * arr).sum())
    norm = np.sqrt(total)
    if norm > clip_norm:
        factor = clip_norm / norm
        for arr in grads.values():
            arr *= factor


def train(
    params: ModelParams,
    items: Sequence[TrainItem],
    config: TrainConfig,
    dev_items: Sequence[TrainItem] | None = None,
) -> tuple[ModelParams, list[dict]]:
    """Plain SGD with per-epoch shuffling; deterministic for a given seed.

    Returns the trained params and a per-epoch history of mean loss plus
    dev accuracy (when dev_items given).  With patience set, training stops
    after that many epochs without a dev-accuracy improvement and the best
    params are returned.  A numerical blow-up aborts with the last params
    that were still finite.
    """
    if not items:
        raise ValueError("empty training set")
    for item in items:
        if not 0 <= item.label < params.C:
            raise ValueError(f"label {item.label} outside 0..{params.C - 1}")
    rng = np.random.default_rng(config.seed)
    history: list[dict] = []
    best_params = None
    best_acc = -1.0
    stale = 0
    for epoch in range(config.epochs):
        snapshot = params.copy()
        order = rng.permutation(len(items))
        total_loss = 0.0
        try:
            for lo in range(0, len(order), config.batch_size):
                batch = [items[i] for i in order[lo : lo + config.batch_size]]
                loss, grads = loss_and_grads(params, batch)
                if config.clip_norm is not None:
                    _clip_grads(grads, config.clip_norm)
                for name, arr in params.tensors().items():
                    arr -= config.lr * grads[name]
                total_loss += loss * len(batch)
        except NumericalError:
            params = snapshot
            break
        if not params.all_finite():
            params = snapshot
            break
        entry = {"epoch": epoch, "loss": total_loss / len(items), "dev_accuracy": None}
        if dev_items is not None:
            acc = evaluate_items(params, dev_items)
            entry["dev_accuracy"] = acc
            if config.patience is not None:
                if acc > best_acc:
                    best_acc = acc
                    best_params = params.copy()
                    stale = 0
                else:
                    stale += 1
                    if stale > config.patience:
                        history.append(entry)
                        break
        history.append(entry)
    if best_params is not None:
        params = best_params
    return params, history


def save_model(params: ModelParams, path: str | os.PathLike) -> None:
    """Write a single self-describing checkpoint (exact float round-trip).

    A checkpoint that records the rules it was trained with is
    `rulefuse-v2`; one without a rule binding keeps the `rulefuse-v1`
    layout.
    """
    meta = {
        "version": UNBOUND_CHECKPOINT_VERSION if params.rules is None else CHECKPOINT_VERSION,
        "variant": params.variant,
        "d": params.d,
        "h": params.h,
        "C": params.C,
        "p": params.p,
        "m_total": params.m_total,
        "vocab": params.vocab,
        "labels": params.labels,
    }
    if params.rules is not None:
        meta["rules"] = params.rules
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **params.tensors())


def load_model(path: str | os.PathLike) -> ModelParams:
    """Read a `rulefuse-v2` or `rulefuse-v1` checkpoint (v1 has no rule binding)."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(data["meta"].item())
        if meta.get("version") not in (CHECKPOINT_VERSION, UNBOUND_CHECKPOINT_VERSION):
            raise ValueError(f"unsupported checkpoint version {meta.get('version')!r}")
        tensors = {name: np.array(data[name]) for name in _TENSOR_NAMES}
    return ModelParams(
        variant=meta["variant"],
        vocab={word: int(idx) for word, idx in meta["vocab"].items()},
        d=int(meta["d"]),
        h=int(meta["h"]),
        C=int(meta["C"]),
        p=int(meta["p"]),
        m_total=int(meta["m_total"]),
        labels=meta.get("labels"),
        rules=meta.get("rules"),
        **tensors,
    )


def load_pretrained_embeddings(params: ModelParams, path: str | os.PathLike) -> int:
    """Overwrite embedding rows from a `word v1 .. vd` text file.

    Unknown words are skipped; returns the number of rows loaded.
    """
    loaded = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            word, vals = parts[0], parts[1:]
            idx = params.vocab.get(word)
            if idx is None:
                continue
            if len(vals) != params.d:
                raise DimensionMismatchError(
                    f"embedding for {word!r} has {len(vals)} dims, expected {params.d}"
                )
            params.emb[idx] = np.array([float(v) for v in vals])
            loaded += 1
    return loaded
