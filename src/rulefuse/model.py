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
Training and scoring read one input type, a `PaddedItems` (as
`build_items` makes it), and run on padded mini-batches, row gathers from
it: only the recurrence ``h @ wh`` loops over time, and both LSTM
directions advance together in a time-leading ``(T, 2, B, .)`` layout, one
``tanh`` over each step's gate row (the i, f and o weights are
pre-halved).  Each layer (input, LSTM, attention, classifier MLP) is one
forward and one backward function; a forward returns, as a tuple, what its
backward reads.  Inference keeps no LSTM gate or cell state per step, and
scores length-sorted batches.
"""

from __future__ import annotations

import json
import math
import operator
import os
import sys
import zipfile
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    CheckpointError,
    ConfigError,
    DimensionMismatchError,
    EmptyDatasetError,
    EmptySentenceError,
    MalformedLineError,
    MissingFeaturesError,
    NumericalError,
    RulefuseError,
    require,
)
from .matching import Sentence, padded_ids

__all__ = [
    "VARIANTS", "UNK", "CHECKPOINT_VERSION", "ModelParams", "ActivationRecord", "TrainItem",
    "PaddedItems", "TrainConfig", "build_vocab", "forward", "loss_and_grads", "predict", "train",
    "evaluate_items", "save_model", "load_model", "load_pretrained_embeddings",
]

VARIANTS = ("nnsc", "instance", "word")
UNK = "<unk>"
CHECKPOINT_VERSION = "rulefuse-v2"  # adds the rule binding
UNBOUND_CHECKPOINT_VERSION = "rulefuse-v1"  # no rule binding; still loads
INFER_CHUNK = 64  # sentences per forward-only inference batch
# initial weights are uniform(-_INIT_SCALE, _INIT_SCALE); much smaller values
# stall learning, as the stacked squashing layers attenuate the gradient
_INIT_SCALE = 0.3
_SIZES = ("d", "h", "C", "p", "m_total")  # the model's sizes, as checkpoint meta keys
_META = ("variant", *_SIZES, "vocab", "labels", "rules")  # meta keys after `version`, in order
_BOOLS = frozenset((bool, np.bool_))

_TENSOR_NAMES = (
    "emb", "fwd_wx", "fwd_wh", "fwd_b", "bwd_wx", "bwd_wh", "bwd_b",
    "att_w", "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2",
)


def build_vocab(sentences: Iterable[Sentence]) -> dict[str, int]:
    """Word -> index map, UNK at index 0, then first-appearance order."""
    vocab = {UNK: 0}
    for sentence in sentences:
        for word in sentence.words:
            if word not in vocab:
                vocab[word] = len(vocab)
    return vocab


def _is_int(value) -> bool:  # an exact integer: a Python or numpy int, not a bool
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass
class ModelParams:
    """The configuration of one classifier and all its weights.

    Every weight lives in the one float64 vector `theta`; `emb`, `fwd_wx`,
    ... `mlp_b2` are named views into it, in a layout built once per model.
    Writing into a view writes `theta`; assigning a tensor copies into its
    view.  The two LSTM directions of each of `wx`, `wh` and `b` lie back
    to back (`fwd_wx, bwd_wx, fwd_wh, bwd_wh, fwd_b, bwd_b`), so each
    tensor with both directions stacked on axis 0 is a view too.

    It is also the one check of a checkpoint's meta fields: a field no
    model can have raises ConfigError, as does a size or vocabulary id
    that is not an exact integer (a bool included).
    """

    variant: str
    vocab: dict[str, int]
    d: int
    h: int
    C: int
    p: int
    m_total: int
    theta: np.ndarray | None = None  # all zeros when not given
    labels: list[str] | None = None  # class-name order used at training time
    # fingerprint, pattern and label of each training rule, in rule order
    rules: list[dict] | None = None

    def __post_init__(self):
        require(self.variant in VARIANTS, f"unknown variant {self.variant!r}")
        for name, low in zip(_SIZES, (1, 1, 1, 0, 0)):
            value = getattr(self, name)
            require(_is_int(value), f"{name} must be an integer, got {value!r}")
            require(value >= low, f"{name} must be >= {low}, got {value}")
        names = self.labels
        # as `load_dataset` and `load_labels` make them, so that data can match them
        clean = names is None or isinstance(names, list) and all(
            isinstance(name, str) and name and name == name.strip().lower() for name in names
        )
        require(clean, f"labels must be a list of non-empty, stripped, lowercased strings, "
                       f"got {names!r}")
        distinct = names is None or len(names) == len(set(names)) == self.C
        require(distinct, f"labels must be {self.C} distinct class names, got {names!r}")
        require(isinstance(self.vocab, dict), f"vocab must be a dict, got {self.vocab!r}")
        for word, idx in self.vocab.items():
            require(_is_int(idx), f"vocabulary id of {word!r} must be an integer, got {idx!r}")
        ids = sorted(self.vocab.values())
        require(ids == list(range(len(ids))), f"vocabulary ids must be 0..{len(ids) - 1} once each")
        bound = self.rules is None or isinstance(self.rules, list) and all(
            isinstance(rule, dict)
            and all(isinstance(rule.get(key), str) for key in ("fingerprint", "pattern", "label"))
            for rule in self.rules
        )
        require(bound, "rules must be a list of dicts with string fingerprint, pattern and label")
        d_in, h4, h2 = self.input_width, 4 * self.h, 2 * self.h
        shapes = {
            "emb": (len(self.vocab), self.d), "wx": (2, d_in, h4), "wh": (2, self.h, h4),
            "b": (2, h4), "att_w": (h2, h2), "mlp_w1": (self.classifier_width, h2),
            "mlp_b1": (h2,), "mlp_w2": (h2, self.C), "mlp_b2": (self.C,),
        }
        self._layout, size = {}, 0
        for name, shape in shapes.items():
            lo, size = size, size + math.prod(shape)
            self._layout[name] = (lo, size, shape)
        if self.theta is None:
            self.theta = np.zeros(size)
        elif self.theta.shape != (size,):
            raise DimensionMismatchError(f"theta has shape {self.theta.shape}, expected {(size,)}")
        self._views = self.views(self.theta)

    @property
    def input_width(self) -> int:
        return self.d + (self.p if self.variant == "word" else 0)

    @property
    def classifier_width(self) -> int:
        return 2 * self.h + (self.m_total if self.variant == "instance" else 0)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Views into `flat`, by name: the twelve tensors, plus the LSTM's
        `wx`, `wh` and `b` with both directions stacked on axis 0."""
        views = {name: flat[lo:hi].reshape(shape) for name, (lo, hi, shape) in self._layout.items()}
        for name in ("wx", "wh", "b"):
            views["fwd_" + name], views["bwd_" + name] = views[name]
        return views

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
        labels: list[str] | None = None,
        rules: list[dict] | None = None,
    ) -> "ModelParams":
        """Seeded uniform(-0.3, 0.3) weights (`_INIT_SCALE`), zero biases.

        The draw order is fixed, so two variants with identical tensor
        shapes (e.g. any variant at p = 0) get identical values from the
        same seed.  A negative seed is a ConfigError.
        """
        require(seed >= 0, f"seed must be >= 0, got {seed}")
        params = cls(
            variant, dict(vocab), d, h, C, p, m_total,
            labels=list(labels) if labels is not None else None,
            rules=list(rules) if rules is not None else None,
        )
        rng = np.random.default_rng(seed)
        for name in ("emb", "fwd_wx", "fwd_wh", "bwd_wx", "bwd_wh", "att_w", "mlp_w1", "mlp_w2"):
            view = params._views[name]
            view[...] = rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=view.shape)
        return params

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: self._views[name] for name in _TENSOR_NAMES}

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.theta).all())


def _tensor_view(name: str) -> property:
    def get(self):
        return self._views[name]

    def put(self, value):
        view = self._views[name]
        if np.shape(value) != view.shape:
            raise DimensionMismatchError(f"{name}: shape {np.shape(value)}, expected {view.shape}")
        view[...] = value

    return property(get, put, doc=f"`{name}`, a view into `theta`; assigning copies into it.")


for _name in _TENSOR_NAMES:
    setattr(ModelParams, _name, _tensor_view(_name))


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
    """One row of a `PaddedItems`: a labelled sentence with the rule
    features its variant reads.

    `feats` is a view of the `(m_total,)` state indicator for `instance` or
    the `(n, p)` tag matrix for `word`; `nnsc` reads none.
    """

    sentence: Sentence
    label: int
    feats: np.ndarray | None = None


class PaddedItems(Sequence):
    """N labelled sentences and the one feature array their variant reads,
    padded once: the `word` tags `(N, T, p)`, T the longest sentence's
    length and zero past each sentence's own; the `instance` state
    indicators `(N, m_total)`; None for `nnsc`.  `labels` and `lengths`
    are `(N,)` arrays; labels that are not all integers (a float or bool
    array, or a bool among ints) raise ConfigError.  `build_items` makes
    these, and they are the only item set `train`, `evaluate_items` and
    `loss_and_grads` accept: each reads one as it is, after one check of
    its shapes.  As a sequence it
    yields, on integer indexing or iteration, TrainItem rows whose `feats`
    are views into the one array.
    """

    def __init__(self, sentences: list[Sentence], labels, feats: np.ndarray | None = None):
        self.sentences = sentences
        given, labels = labels, np.asarray(labels)
        if labels.shape != (len(sentences),):
            raise DimensionMismatchError(
                f"labels of shape {labels.shape} for {len(sentences)} sentences"
            )
        # a bool among ints still makes an int array
        bools = not isinstance(given, np.ndarray) and not _BOOLS.isdisjoint(map(type, given))
        whole = (labels.dtype.kind in "iu" or not len(labels)) and not bools
        require(whole, f"labels must be integers, got {'bool' if bools else labels.dtype} values")
        self.labels = labels.astype(np.intp, copy=False)
        self.lengths = np.fromiter((s.n for s in sentences), np.intp, len(sentences))
        self.feats = feats

    def __len__(self) -> int:
        return len(self.sentences)

    def __getitem__(self, i) -> TrainItem:
        i = operator.index(i)  # one row: a slice or other non-integer is a TypeError
        sentence, feats = self.sentences[i], self.feats
        if feats is not None:
            feats = feats[i, : sentence.n] if feats.ndim == 3 else feats[i]
        return TrainItem(sentence, int(self.labels[i]), feats)


@dataclass
class TrainConfig:
    """One training run's settings; the CLI's flags and `ExperimentConfig`
    take their defaults from these fields.  `seed` draws the initial weights
    (`init_model`) and shuffles each epoch; `d` and `h` are the embedding
    and LSTM hidden widths.  A setting no run can use is a ConfigError."""

    epochs: int = 30
    batch_size: int = 8
    lr: float = 0.1
    seed: int = 0
    patience: int | None = None  # early stop on dev accuracy when set
    clip_norm: float | None = 5.0
    d: int = 16
    h: int = 16

    def __post_init__(self):
        require(self.epochs >= 1, f"epochs must be >= 1, got {self.epochs}")
        require(self.batch_size >= 1, f"batch_size must be >= 1, got {self.batch_size}")
        require(self.seed >= 0, f"seed must be >= 0, got {self.seed}")
        lr, clip, patience = self.lr, self.clip_norm, self.patience
        require(bool(np.isfinite(lr)) and lr >= 0, f"lr must be finite and >= 0, got {lr}")
        require(clip is None or clip > 0, f"clip_norm must be None or > 0, got {clip}")
        require(
            patience is None or patience >= 0, f"patience must be None or >= 0, got {patience}"
        )
        require(self.d >= 1, f"d must be >= 1, got {self.d}")
        require(self.h >= 1, f"h must be >= 1, got {self.h}")


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis; -inf entries get weight exactly 0."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class _ItemSet:
    """A PaddedItems as the arrays the model reads, checked once and read
    many times: per batch in `train`, per chunk in `evaluate_items`.  It
    holds the labels, lengths and features of `items`, whose rows a
    `_Batch` iterates, and the vocabulary ids of its words (`padded_ids`,
    unknown words and padding as UNK's 0).

    Anything but a PaddedItems raises TypeError; a label outside `0..C-1`,
    ConfigError; an empty sentence, EmptySentenceError naming its
    position; a missing feature array, MissingFeaturesError (at p = 0 it
    reads as zero-width); one of the wrong shape, DimensionMismatchError.
    """

    def __init__(self, params: ModelParams, items: PaddedItems):
        if not isinstance(items, PaddedItems):
            raise TypeError(f"expected a PaddedItems (see build_items), got {type(items).__name__}")
        labels, lengths, feats = items.labels, items.lengths, items.feats
        bad = (labels < 0) | (labels >= params.C)
        if bad.any():
            raise ConfigError(f"label {labels[bad][0]} outside 0..{params.C - 1}")
        if (lengths < 1).any():
            raise EmptySentenceError(
                f"item {int(lengths.argmin())} has no words; the model reads non-empty sentences"
            )
        if params.variant == "nnsc":
            feats = None
        else:
            word = params.variant == "word"
            what = "tag matrix" if word else "state indicator"
            longest = int(lengths.max(initial=0))
            shape = (len(items), longest, params.p) if word else (len(items), params.m_total)
            if feats is None:
                if params.p:
                    raise MissingFeaturesError(f"{params.variant} variant requires a {what}")
                feats = np.zeros(shape[:-1] + (0,))
            if feats.shape != shape:
                raise DimensionMismatchError(
                    f"{what} array is {feats.shape}, expected one of shape {shape}"
                )
        self.items, self.labels, self.lengths, self.feats = items, labels, lengths, feats
        self.ids = padded_ids(items.sentences, lengths, params.vocab, 0)

    def rows(self, rows: np.ndarray) -> tuple:
        """(ids, lengths, feats, labels) of the given rows, in that order,
        padded only to their own longest."""
        lengths = self.lengths[rows]
        T = lengths.max()
        feats = self.feats
        if feats is not None:
            feats = feats[rows, :T] if feats.ndim == 3 else feats[rows]
        return self.ids[rows, :T], lengths, feats, self.labels[rows]


class _Batch:
    """Rows of a checked item set, and the gradient buffer `loss_and_grads`
    overwrites for them.  `train` passes these in the place of a
    PaddedItems, all rows of one set checked once per run, all sharing one
    buffer; a batch iterates as its TrainItem rows and has a length."""

    __slots__ = ("data", "rows", "grads")

    def __init__(self, data: _ItemSet, rows: np.ndarray, grads: _Gradients):
        self.data, self.rows, self.grads = data, rows, grads

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return map(self.data.items.__getitem__, self.rows)


def _input_forward(params, ids, lengths, feats):
    """Embeddings of the padded ids (B, T), `word` tags appended.

    `feats` is the batch's rows of the set's feature array.  The
    backward direction reads each sentence reversed within its length, so
    its padding also comes last.  Returns both directions stacked
    time-leading, `Xd` (T, 2, B, d_in); the `instance` rows `U` (B, 0 for
    other variants); and the batch layout (lengths, mask, back, ids).
    `back` indexes a time-leading (T, B, ...) array into the backward
    direction's order, and is its own inverse; when every sentence has
    the same length it is a reversing slice, so no gather."""
    B, T = ids.shape
    steps = np.arange(T)
    mask = steps < lengths[:, None]
    Xd = np.zeros((T, 2, B, params.input_width))
    X = Xd[:, 0].swapaxes(0, 1)  # (B, T, d_in), a view
    X[mask, : params.d] = params.emb[ids[mask]]
    if params.variant == "word":
        X[..., params.d :] = feats
    U = feats if params.variant == "instance" else np.zeros((B, 0))
    if lengths.min() == T:
        back = np.s_[::-1]
    else:
        back = (np.where(mask, lengths[:, None] - 1 - steps, steps).T, np.arange(B))
    Xd[:, 1] = Xd[:, 0][back]
    return Xd, U, (lengths, mask, back, ids)


def _input_backward(dXd, layout, demb):
    """Un-reverse `dXd` (2, T, B, d), the embedding columns' gradient;
    zero `demb` and scatter-add it there, word by word in batch order."""
    _, mask, back, ids = layout
    dX = (dXd[0] + dXd[1][back]).swapaxes(0, 1)  # (B, T, d)
    demb[...] = 0.0
    np.add.at(demb, ids[mask], dX[mask])


def _lstm_forward(Xd, wx, wh, b, keep=False):
    """Both LSTM directions, stacked on axis 1 of inputs and axis 0 of weights.

    Xd is (T, 2, B, d_in), time-leading so that every step's slice is
    contiguous, the backward direction's sentences already reversed
    within their lengths.  All timesteps are projected by one matmul;
    only `h @ wh` runs per step.  Gates are ordered i, f, o, g.  The i, f
    and o columns of the weights are halved first (exact, a power of
    two), so one `tanh` over a step's gate row gives tanh(z/2) for them,
    and sigmoid(z) = (1 + tanh(z/2)) / 2, and tanh(z) for g.  The gate
    rows are computed in place in `Zx`.  Returns the hidden states
    (T, 2, B, h) and what `_lstm_backward` reads; with `keep` (training)
    every step's g and cell have their own slot, at inference one slot is
    reused.
    """
    hdim = wh.shape[1]
    half = np.where(np.arange(4 * hdim) < 3 * hdim, 0.5, 1.0)
    Zx = Xd @ (wx * half)
    Zx += (b * half)[:, None]
    wh = wh * half
    T, D, B, _ = Zx.shape
    hs = np.empty((T, D, B, hdim))
    slots = T if keep else 1
    gs = np.empty((slots, D, B, hdim))
    cells = np.empty((slots, D, B, hdim))
    h = c = np.zeros((D, B, hdim))
    for t in range(T):
        k = t if keep else 0
        z = Zx[t]
        z += h @ wh
        np.tanh(z, out=z)
        g = gs[k]
        g[...] = z[..., 3 * hdim :]
        z += 1.0
        z *= 0.5
        c = np.multiply(z[..., hdim : 2 * hdim], c, out=cells[k])
        c += z[..., :hdim] * g
        h = np.tanh(c, out=hs[t])
        h *= z[..., 2 * hdim : 3 * hdim]
    return hs, ((Xd, hs, Zx, gs, cells) if keep else None)


def _lstm_backward(dhs, saved, wx, wh, d):
    """BPTT through both stacked directions, from `_lstm_forward`'s saved tensors.

    `dhs` is time-leading like `hs`.  Returns (dXd, dwx, dwh, db), each
    stacked per direction on axis 0; dXd is (2, T, B, d), the gradient of
    the first `d` input columns only (the embeddings; the `word` tags take
    none).  Padded steps receive zero upstream gradient and follow every
    real step, so their dz is exactly zero and adds nothing.
    """
    Xd, hs, gates, g, cells = saved
    T, D, B, four_h = gates.shape
    hdim = four_h // 4
    i, f, o = (gates[..., k * hdim : (k + 1) * hdim] for k in range(3))
    tanh_c = np.tanh(cells)
    c_prev = np.concatenate([np.zeros_like(cells[:1]), cells[:-1]])
    # dz per gate i, f, o, g is coef * (dc, dc, dh, dc)
    coef = np.concatenate(
        [g * i * (1.0 - i), c_prev * f * (1.0 - f), tanh_c * o * (1.0 - o), i * (1.0 - g * g)],
        axis=-1,
    )
    dc_from_h = o * (1.0 - tanh_c * tanh_c)
    wh_t = wh.swapaxes(1, 2)
    dZ = np.empty((D, T, B, four_h))  # direction-major, as the weight gradients read it
    dh_carry = np.zeros_like(hs[0])
    dc_carry = np.zeros_like(cells[0])
    for t in range(T - 1, -1, -1):
        dh = dhs[t] + dh_carry
        dc = dc_from_h[t] * dh + dc_carry
        dz = np.multiply(np.concatenate((dc, dc, dh, dc), axis=-1), coef[t], out=dZ[:, t])
        dc_carry = f[t] * dc
        dh_carry = dz @ wh_t
    d_in = wx.shape[1]
    flat_dz = dZ.reshape(D, -1, four_h)
    X = Xd.swapaxes(0, 1).reshape(D, -1, d_in)
    h_prev = np.concatenate([np.zeros_like(hs[:1]), hs[:-1]]).swapaxes(0, 1).reshape(D, -1, hdim)
    dwx = X.swapaxes(1, 2) @ flat_dz
    dwh = h_prev.swapaxes(1, 2) @ flat_dz
    return dZ @ wx[:, :d].swapaxes(1, 2)[:, None], dwx, dwh, flat_dz.sum(axis=1)


def _attention_forward(hs, att_w, layout):
    """Bilinear attention over H (B, T, 2h), the query being the state at
    the last word; padding scores -inf.  `hs` is the LSTM's time-leading
    (T, 2, B, h).  Returns f and (H, alpha, q, Wq)."""
    lengths, mask, back, _ = layout
    rows_b = np.arange(len(lengths))
    H = np.concatenate([hs[:, 0].swapaxes(0, 1), hs[:, 1][back].swapaxes(0, 1)], axis=-1)
    q = H[rows_b, lengths - 1]
    Wq = q @ att_w.T
    alpha = _softmax(np.where(mask, (H @ Wq[:, :, None])[..., 0], -np.inf))
    f = (alpha[:, None, :] @ H)[:, 0]
    return f, (H, alpha, q, Wq)


def _attention_backward(df, saved, att_w, layout):
    """Returns `dhs` (T, 2, B, h) and `d att_w`.  f = alpha H, alpha =
    softmax(H (W q)), q = H[len - 1]; alpha is 0 on padding, so is its gradient."""
    H, alpha, q, Wq = saved
    lengths, _, back, _ = layout
    rows_b = np.arange(len(lengths))
    dalpha = (H @ df[:, :, None])[..., 0]
    dscores = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
    dWq = (dscores[:, None, :] @ H)[:, 0]
    dH = alpha[:, :, None] * df[:, None, :] + dscores[:, :, None] * Wq[:, None, :]
    datt_w = dWq.T @ q
    dH[rows_b, lengths - 1] += dWq @ att_w
    h = df.shape[1] // 2
    dH = dH.swapaxes(0, 1)  # (T, B, 2h)
    return np.stack([dH[..., :h], dH[..., h:][back]], axis=1), datt_w


def _classifier_forward(params, f, U):
    """The tanh MLP and softmax over [f, U]: returns logits, y and (g, a1, y)."""
    g = np.concatenate([f, U], axis=1)
    a1 = np.tanh(g @ params.mlp_w1 + params.mlp_b1)
    logits = a1 @ params.mlp_w2 + params.mlp_b2
    y = _softmax(logits)
    return logits, y, (g, a1, y)


def _classifier_backward(params, saved, labels):
    """Gradients of the batch-mean cross-entropy: mlp_w1, mlp_b1, mlp_w2 and
    mlp_b2 as one tuple, and df (the `instance` columns take none)."""
    g, a1, y = saved
    dlogits = y.copy()
    dlogits[np.arange(len(labels)), labels] -= 1.0
    dlogits /= len(labels)
    dz1 = (1.0 - a1 * a1) * (dlogits @ params.mlp_w2.T)
    mlp = g.T @ dz1, dz1.sum(axis=0), a1.T @ dlogits, dlogits.sum(axis=0)
    return mlp, (dz1 @ params.mlp_w1.T)[:, : 2 * params.h]


def _forward_padded(params, ids, lengths, feats, keep=False):
    """Forward pass over padded ids (B, T), layer by layer.  Returns
    (H, alpha, f, logits, y) with a leading batch axis, and what each
    layer's backward reads (LSTM state only with `keep`)."""
    Xd, U, layout = _input_forward(params, ids, lengths, feats)
    views = params._views
    hs, lstm = _lstm_forward(Xd, views["wx"], views["wh"], views["b"], keep)
    f, attention = _attention_forward(hs, params.att_w, layout)
    logits, y, classifier = _classifier_forward(params, f, U)
    H, alpha = attention[:2]
    return (H, alpha, f, logits, y), (layout, lstm, attention, classifier)


def forward(
    params: ModelParams, sentence: Sentence, feats: np.ndarray | None = None
) -> ActivationRecord:
    """Run the classifier on one sentence (a one-row PaddedItems) with the
    feature array its variant reads, as in `TrainItem`."""
    if not (feats is None or isinstance(feats, np.ndarray)):
        raise DimensionMismatchError(f"features are a {type(feats).__name__}, expected an array")
    data = _ItemSet(params, PaddedItems([sentence], [0], None if feats is None else feats[None]))
    H, alpha, f, logits, y = _forward_padded(params, data.ids, data.lengths, data.feats)[0]
    return ActivationRecord(H=H[0], alpha=alpha[0], f=f[0], logits=logits[0], y=y[0])


class _Gradients(dict):
    """Gradients by tensor name, as views into the flat vector `flat`, laid
    out like `params.theta`; `views` also holds the stacked LSTM views."""

    def __init__(self, params: ModelParams):
        self.flat = np.empty_like(params.theta)
        self.views = params.views(self.flat)
        super().__init__((name, self.views[name]) for name in _TENSOR_NAMES)


def _backward(params, saved, labels: np.ndarray, grads: _Gradients) -> _Gradients:
    """Gradient of the batch-mean cross-entropy, written over all of
    `grads`: each layer's backward, from the classifier down to the input."""
    layout, lstm, attention, classifier = saved
    views = grads.views
    mlp, df = _classifier_backward(params, classifier, labels)
    for name, grad in zip(("mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2"), mlp):
        views[name][...] = grad
    dhs, views["att_w"][...] = _attention_backward(df, attention, params.att_w, layout)
    wx, wh = params._views["wx"], params._views["wh"]
    dXd, views["wx"][...], views["wh"][...], views["b"][...] = _lstm_backward(
        dhs, lstm, wx, wh, params.d
    )
    _input_backward(dXd, layout, views["emb"])
    return grads


def loss_and_grads(
    params: ModelParams, batch: PaddedItems
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over the batch plus analytic gradients.

    One padded forward and backward pass covers the whole batch.
    Gradients mirror params.tensors(), as views into one vector laid out
    like `params.theta` (their `flat` attribute); raises NumericalError if
    the loss goes non-finite.  A `PaddedItems` is checked here (its errors
    as in `train`; an empty one raises EmptyDatasetError) and gets a fresh
    gradient vector; the batches `train` passes are rows of a set it
    checked once per run, and all write into the run's one gradient vector.
    """
    if not isinstance(batch, _Batch):
        batch = _Batch(_ItemSet(params, batch), np.arange(len(batch)), _Gradients(params))
    if not len(batch):
        raise EmptyDatasetError("empty batch")
    *inputs, labels = batch.data.rows(batch.rows)
    outputs, saved = _forward_padded(params, *inputs, keep=True)
    probs = outputs[-1][np.arange(len(labels)), labels]
    if not (np.isfinite(probs).all() and (probs > 0.0).all()):
        raise NumericalError("class probability underflowed or went non-finite")
    loss = float(-np.log(probs).sum()) / len(labels)
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite loss {loss}")
    return loss, _backward(params, saved, labels, batch.grads)


def predict(params: ModelParams, sentence: Sentence, feats: np.ndarray | None = None) -> int:
    """Most probable class for `sentence` with the feature array its variant
    reads (see `forward`); ties break toward the lowest class index."""
    return int(np.argmax(forward(params, sentence, feats).y))


def evaluate_items(params: ModelParams, items: PaddedItems) -> float:
    """Fraction of items whose prediction matches the gold label.

    The `PaddedItems` (as `build_items` makes it) is checked once
    (`_ItemSet`) and every item's words are mapped to ids in one pass.
    A label outside `0..C-1` raises ConfigError.  The items are then
    scored in order of length, in forward-only batches of at most
    INFER_CHUNK sentences, each a row gather padded only to its own longest
    and keeping no LSTM state for a backward pass.  Hits are counted per
    batch, so the order does not change the result.  Argmax ties break
    toward the lowest class index, as in `predict`.
    """
    return _evaluate(params, _ItemSet(params, items))


def _evaluate(params: ModelParams, data: _ItemSet) -> float:
    """`evaluate_items` on a set padded beforehand; 0.0 when it is empty."""
    order = np.argsort(data.lengths, kind="stable")
    hits = 0
    for lo in range(0, len(order), INFER_CHUNK):
        *inputs, labels = data.rows(order[lo : lo + INFER_CHUNK])
        outputs, _ = _forward_padded(params, *inputs)
        hits += int((outputs[-1].argmax(axis=1) == labels).sum())
    return hits / len(order) if len(order) else 0.0


def _sgd_step(params: ModelParams, flat: np.ndarray, config: TrainConfig) -> None:
    """One SGD step; the flat gradient is first scaled in place to an L2
    norm of at most `config.clip_norm`, when that is set."""
    if config.clip_norm is not None:
        norm = np.sqrt(flat @ flat)
        if norm > config.clip_norm:
            flat *= config.clip_norm / norm
    params.theta -= config.lr * flat


def train(
    params: ModelParams,
    items: PaddedItems,
    config: TrainConfig,
    dev_items: PaddedItems | None = None,
) -> tuple[ModelParams, list[dict]]:
    """Plain SGD with per-epoch shuffling; deterministic for a given seed.

    Returns the trained params and a per-epoch history of mean loss plus
    dev accuracy (when dev_items given).  With patience set, training stops
    after that many epochs without a dev-accuracy improvement and the best
    params are returned.  A numerical blow-up aborts with the last params
    that were still finite and ends the history with a record
    `{"epoch": k, "loss": None, "dev_accuracy": None, "aborted": "numerical"}`
    for the epoch it abandoned.  An empty training set raises
    `EmptyDatasetError`; a label outside `0..C-1`, or patience without
    dev_items, raises `ConfigError`; non-finite initial weights raise
    `NumericalError`.

    Both sets are `PaddedItems` (as `build_items` makes them); anything
    else raises TypeError.  Each is checked once per call, before the first
    step (`_ItemSet`): a bad label, an empty sentence or a bad feature
    array in either raises then, with `theta` unchanged.  Every batch is a
    row gather from the training set, passed to `loss_and_grads`, and
    writes its gradients into one buffer allocated once per call.
    """
    data = _ItemSet(params, items)
    if not len(items):
        raise EmptyDatasetError("empty training set")
    if config.patience is not None and dev_items is None:
        raise ConfigError("patience needs a dev set to stop on")
    if not params.all_finite():
        raise NumericalError("initial weights are not finite")
    dev = None if dev_items is None else _ItemSet(params, dev_items)
    grads = _Gradients(params)
    rng = np.random.default_rng(config.seed)
    history: list[dict] = []
    best_theta = None
    best_acc = -1.0
    stale = 0
    for epoch in range(config.epochs):
        snapshot = params.theta.copy()
        order = rng.permutation(len(items))
        total_loss = 0.0
        try:
            for lo in range(0, len(order), config.batch_size):
                batch = _Batch(data, order[lo : lo + config.batch_size], grads)
                # the module attribute, so a wrapper around it sees every batch
                loss, batch_grads = loss_and_grads(params, batch)
                _sgd_step(params, batch_grads.flat, config)
                total_loss += loss * len(batch)
        except NumericalError:
            blew_up = True
        else:
            blew_up = not params.all_finite()
        if blew_up:
            params.theta[...] = snapshot
            history.append(
                {"epoch": epoch, "loss": None, "dev_accuracy": None, "aborted": "numerical"}
            )
            break
        entry = {"epoch": epoch, "loss": total_loss / len(items), "dev_accuracy": None}
        if dev is not None:
            acc = _evaluate(params, dev)
            entry["dev_accuracy"] = acc
            if config.patience is not None:
                if acc > best_acc:
                    best_acc = acc
                    best_theta = params.theta.copy()
                    stale = 0
                else:
                    stale += 1
                    if stale > config.patience:
                        history.append(entry)
                        break
        history.append(entry)
    if best_theta is not None:
        params.theta[...] = best_theta
    return params, history


def save_model(params: ModelParams, path: str | os.PathLike) -> None:
    """Write a single self-describing checkpoint (exact float round-trip).

    A checkpoint that records the rules it was trained with is
    `rulefuse-v2`; one without a rule binding keeps the `rulefuse-v1`
    layout.  Weights with a NaN or infinity raise `NumericalError` and
    nothing is written.
    """
    if not params.all_finite():
        raise NumericalError(f"refusing to save non-finite weights to {os.fspath(path)}")
    meta = {
        "version": UNBOUND_CHECKPOINT_VERSION if params.rules is None else CHECKPOINT_VERSION,
        **{key: getattr(params, key) for key in _META},
    }
    if params.rules is None:
        del meta["rules"]  # the rulefuse-v1 layout
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **params.tensors())


def load_model(path: str | os.PathLike) -> ModelParams:
    """Read a `rulefuse-v2` or `rulefuse-v1` checkpoint (v1 has no rule binding).

    `ModelParams` checks every meta field; this reader checks only what a
    file alone can get wrong: its version, that a v2 file carries its rule
    binding, and that each vocabulary word is one a sentence can hold
    (`Sentence.from_text(word).words == (word,)`).  The words are interned
    (`sys.intern`), as sentences' words and rule literals are.  A file that
    is not a readable rulefuse checkpoint, fails a check or holds a NaN or
    infinite weight raises `CheckpointError` naming the path; a missing
    one, `FileNotFoundError`.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(data["meta"].item())
            version = meta.get("version")
            if version not in (CHECKPOINT_VERSION, UNBOUND_CHECKPOINT_VERSION):
                raise CheckpointError(f"unsupported checkpoint version {version!r}")
            if version == CHECKPOINT_VERSION and meta.get("rules") is None:
                raise CheckpointError(f"a {version} checkpoint must carry its rule binding")
            params = ModelParams(**{key: meta.get(key) for key in _META})
            odd = next((w for w in params.vocab if Sentence.from_text(w).words != (w,)), None)
            if odd is not None:
                raise CheckpointError(f"vocabulary word {odd!r} is not one a sentence can hold")
            params.vocab = {sys.intern(word): idx for word, idx in params.vocab.items()}
            for name, view in params.tensors().items():
                stored = data[name] if name in data else None
                if stored is None or stored.shape != view.shape:
                    found = "is missing" if stored is None else f"has shape {stored.shape}"
                    raise CheckpointError(f"tensor {name!r} {found}; meta gives {view.shape}")
                if not np.isfinite(stored).all():
                    raise CheckpointError(f"tensor {name!r} holds non-finite values")
                view[...] = stored
    except (ValueError, KeyError, TypeError, AttributeError, EOFError, zipfile.BadZipFile) as exc:
        why = str(exc) if isinstance(exc, RulefuseError) else f"{type(exc).__name__}: {exc}"
        raise CheckpointError(f"cannot read checkpoint {os.fspath(path)}: {why}") from exc
    return params


def load_pretrained_embeddings(params: ModelParams, path: str | os.PathLike) -> int:
    """Overwrite embedding rows from a `word v1 .. vd` text file.

    Unknown words are skipped, and a leading UTF-8 byte-order mark is
    dropped; returns the number of rows loaded.  A value
    that is not a finite number (`nan` and `inf` included) raises
    `MalformedLineError` with its line number.
    """
    loaded = 0
    with open(path, encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            word, vals = parts[0], parts[1:]
            idx = params.vocab.get(word)
            if idx is None:
                continue
            try:
                row = np.array([float(v) for v in vals])
            except ValueError:
                raise MalformedLineError(f"non-number in {word!r}'s embedding", line_no) from None
            if not np.isfinite(row).all():
                raise MalformedLineError(f"non-finite value in {word!r}'s embedding", line_no)
            if len(row) != params.d:
                raise DimensionMismatchError(
                    f"embedding for {word!r} has {len(row)} dims, expected {params.d}"
                )
            params.emb[idx] = row
            loaded += 1
    return loaded
