"""Micro-CNN built on numpy: forward, backprop, Adam, early stopping.

The fixed architecture (build_model) is three conv/pool stages into two
dense layers with dropout; layer shapes and parameter counts are pinned by
unit tests. Everything runs in float64; convolutions use im2col matmuls and
the data gradient is computed as a convolution with the flipped, channel-
transposed kernel, so no scatter-add appears on the hot path. That
convolution pads the output gradient by kernel - 1 less the forward pad on
each side, so it yields the input-sized gradient directly, with no crop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .io import read_blocks, write_blocks
from .rng import substream


def _im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(N, H, W, C) -> (N, OH, OW, kh*kw*C) patch matrix for a valid window."""
    x = np.ascontiguousarray(x)
    n, h, w, c = x.shape
    oh, ow = h - kh + 1, w - kw + 1
    s = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x, (n, oh, ow, kh, kw, c), (s[0], s[1], s[2], s[1], s[2], s[3])
    )
    return patches.reshape(n, oh, ow, kh * kw * c)


class Layer:
    """Base of every layer: no weights unless a subclass has them."""

    def params(self) -> list[np.ndarray]:
        return []

    def grads(self) -> list[np.ndarray]:
        return []


class _Weighted(Layer):
    """Glorot-uniform weights W, a zero bias b over W's last axis, and their
    gradients. Fans count every kernel position: kh*kw*in and kh*kw*out."""

    def __init__(self, shape: tuple[int, ...], rng: np.random.Generator):
        limit = np.sqrt(6.0 / (math.prod(shape[:-2]) * (shape[-2] + shape[-1])))
        self.W = rng.uniform(-limit, limit, size=shape)
        self.b = np.zeros(shape[-1])
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)

    def params(self):
        return [self.W, self.b]

    def grads(self):
        return [self.dW, self.db]


class Conv2D(_Weighted):
    """2-D convolution, stride 1, padding 'valid' or 'same'."""

    def __init__(self, in_ch: int, out_ch: int, kh: int, kw: int, padding: str, rng):
        if padding not in ("valid", "same"):
            raise ValueError(f"padding must be 'valid' or 'same', got {padding!r}")
        self.kh, self.kw, self.in_ch, self.out_ch = kh, kw, in_ch, out_ch
        self.padding = padding
        # (before, after) zero rows and columns; 'same' puts the odd one after
        self.pads = tuple(((k - 1) // 2, k // 2) if padding == "same" else (0, 0) for k in (kh, kw))
        super().__init__((kh, kw, in_ch, out_ch), rng)

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        xp = np.pad(x, ((0, 0), *self.pads, (0, 0))) if self.padding == "same" else x
        self._patches = _im2col(xp, self.kh, self.kw)
        n, oh, ow, k = self._patches.shape
        out = self._patches.reshape(-1, k) @ self.W.reshape(k, self.out_ch) + self.b
        return out.reshape(n, oh, ow, self.out_ch)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        k = self.kh * self.kw * self.in_ch
        dy2 = dy.reshape(-1, self.out_ch)
        self.dW += (self._patches.reshape(-1, k).T @ dy2).reshape(self.W.shape)
        self.db += dy2.sum(axis=0)
        # Data gradient: correlate dy with the spatially flipped, in/out-
        # transposed kernel. Padding dy by k - 1 less the forward pad on each
        # side makes the result exactly the input's size.
        (pt, pb), (pl, pr) = self.pads
        back = ((0, 0), (self.kh - 1 - pt, self.kh - 1 - pb), (self.kw - 1 - pl, self.kw - 1 - pr), (0, 0))
        wb = self.W[::-1, ::-1].transpose(0, 1, 3, 2).reshape(self.kh * self.kw * self.out_ch, self.in_ch)
        pat = _im2col(np.pad(dy, back), self.kh, self.kw)
        return (pat.reshape(-1, pat.shape[3]) @ wb).reshape(pat.shape[:3] + (self.in_ch,))


class MaxPool2D(Layer):
    """Max pooling with stride == window; floor or ceil edge handling.

    Floor mode drops trailing rows/columns that do not fill a window; ceil
    mode pads them with -inf so every input pixel belongs to some window.
    """

    def __init__(self, size: int, ceil_mode: bool = False):
        self.size = size
        self.ceil_mode = ceil_mode

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        n, h, w, c = x.shape
        s = self.size
        if self.ceil_mode:
            hp = -(-h // s) * s
            wp = -(-w // s) * s
            xp = np.full((n, hp, wp, c), -np.inf)
            xp[:, :h, :w, :] = x
        else:
            hp, wp = (h // s) * s, (w // s) * s
            xp = x[:, :hp, :wp, :]
        oh, ow = hp // s, wp // s
        windows = (
            xp.reshape(n, oh, s, ow, s, c).transpose(0, 1, 3, 2, 4, 5).reshape(n, oh, ow, s * s, c)
        )
        self._argmax = windows.argmax(axis=3)
        self._x_shape = x.shape
        return np.take_along_axis(windows, self._argmax[:, :, :, None, :], axis=3)[:, :, :, 0, :]

    def backward(self, dy: np.ndarray) -> np.ndarray:
        # Each window's gradient goes to its first maximum. The window grid
        # covers the input (ceil) or lies inside it (floor); keep the overlap.
        n, h, w, c = self._x_shape
        s = self.size
        oh, ow = dy.shape[1:3]
        g = np.zeros((n, oh, ow, s * s, c))
        np.put_along_axis(g, self._argmax[:, :, :, None, :], dy[:, :, :, None, :], axis=3)
        grid = g.reshape(n, oh, ow, s, s, c).transpose(0, 1, 3, 2, 4, 5).reshape(n, oh * s, ow * s, c)
        hh, ww = min(h, oh * s), min(w, ow * s)
        dx = np.zeros((n, h, w, c))
        dx[:, :hh, :ww, :] = grid[:, :hh, :ww, :]
        return dx


class Flatten(Layer):
    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        self._x_shape = x.shape
        return x.reshape(len(x), -1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy.reshape(self._x_shape)


class Dense(_Weighted):
    def __init__(self, in_dim: int, out_dim: int, rng):
        super().__init__((in_dim, out_dim), rng)

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        self._x = x
        return x @ self.W + self.b

    def backward(self, dy: np.ndarray) -> np.ndarray:
        self.dW += self._x.T @ dy
        self.db += dy.sum(axis=0)
        return dy @ self.W.T


class ReLU(Layer):
    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * self._mask


class Dropout(Layer):
    """Inverted dropout: active only in train mode, identity at inference."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng: np.random.Generator | None = None
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        if self.rng is None:
            raise RuntimeError("dropout needs an RNG in train mode (set by the trainer)")
        self._mask = (self.rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * self._mask

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy if self._mask is None else dy * self._mask


class CnnModel:
    """A plain layer stack ending in logits; softmax is applied by callers."""

    def __init__(self, layers: list, num_classes: int, input_shape: tuple[int, int, int]):
        self.layers = layers
        self.num_classes = num_classes
        self.input_shape = input_shape

    def logits(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 3:
            x = x[None]
        if x.shape[1:] != self.input_shape:
            raise ValueError(f"expected input shape {self.input_shape}, got {x.shape[1:]}")
        for layer in self.layers:
            x = layer.forward(x, train)
        return x

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        return softmax(self.logits(x, train))

    def backward(self, dlogits: np.ndarray) -> np.ndarray:
        g = dlogits
        for layer in reversed(self.layers):
            g = layer.backward(g)
        return g

    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params()]

    def grads(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads()]

    def zero_grads(self) -> None:
        for g in self.grads():
            g[...] = 0.0

    def get_weights(self) -> list[np.ndarray]:
        return [p.copy() for p in self.params()]

    def set_weights(self, weights: list[np.ndarray]) -> None:
        for p, w in zip(self.params(), weights, strict=True):
            p[...] = w


def build_model(num_classes: int, seed: int) -> CnnModel:
    """The fixed 32x32x1 architecture; see layer_param_counts for the summary."""
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    rng = substream(seed, "init")
    layers = [
        Conv2D(1, 16, 2, 2, "valid", rng),
        ReLU(),
        MaxPool2D(2),
        Conv2D(16, 32, 3, 3, "valid", rng),
        ReLU(),
        MaxPool2D(3),
        Conv2D(32, 64, 5, 5, "same", rng),
        ReLU(),
        MaxPool2D(5, ceil_mode=True),
        Flatten(),
        Dense(64, 128, rng),
        ReLU(),
        Dropout(0.2),
        Dense(128, num_classes, rng),
    ]
    return CnnModel(layers, num_classes, (32, 32, 1))


def layer_param_counts(model: CnnModel) -> list[int]:
    """Parameter count per summary row (conv/pool/dense/dropout; ReLU and
    Flatten are not rows)."""
    counts = []
    for layer in model.layers:
        if isinstance(layer, (ReLU, Flatten)):
            continue
        counts.append(int(sum(p.size for p in layer.params())))
    return counts


def shape_trace(model: CnnModel) -> list[tuple[int, ...]]:
    """Output shape per summary row for a single input, dropping the batch axis."""
    x = np.zeros((1,) + model.input_shape)
    shapes = []
    for layer in model.layers:
        x = layer.forward(x, train=False)
        if isinstance(layer, (ReLU, Flatten)):
            continue
        shapes.append(tuple(x.shape[1:]))
    return shapes


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(pred: np.ndarray, labels: np.ndarray) -> float:
    """Mean -log p[true]; probabilities clamped to [1e-12, 1]."""
    pred = np.atleast_2d(pred)
    labels = np.atleast_1d(labels)
    p_true = np.clip(pred[np.arange(len(labels)), labels], 1e-12, 1.0)
    return float(-np.mean(np.log(p_true)))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 15
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("learning_rate, batch_size, max_epochs must be positive")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")


@dataclass
class Adam:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if not self.m:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        for p, g, m, v in zip(params, grads, self.m, self.v, strict=True):
            m[...] = self.beta1 * m + (1.0 - self.beta1) * g
            v[...] = self.beta2 * v + (1.0 - self.beta2) * g**2
            mhat = m / (1.0 - self.beta1**self.t)
            vhat = v / (1.0 - self.beta2**self.t)
            p -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def _loss_gradient(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of the mean cross-entropy with respect to the logits."""
    grad = probs.copy()
    grad[np.arange(len(labels)), labels] -= 1.0
    grad /= len(labels)
    return grad


def _batched_eval(model: CnnModel, X: np.ndarray, y: np.ndarray, batch: int = 256):
    losses = []
    correct = 0
    for lo in range(0, len(X), batch):
        probs = model.forward(X[lo : lo + batch], train=False)
        yb = y[lo : lo + batch]
        losses.append(cross_entropy(probs, yb) * len(yb))
        correct += int(np.sum(np.argmax(probs, axis=1) == yb))
    return float(np.sum(losses) / len(X)), correct / len(X)


def train(
    model: CnnModel,
    X: np.ndarray,
    y: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    config: TrainConfig,
) -> dict[str, list[float]]:
    """Mini-batch Adam with early stopping on validation loss.

    Stops after `patience` epochs without strict improvement and restores the
    best-validation-loss weights. Returns the per-epoch history.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    X_val = np.asarray(X_val, dtype=np.float64)
    y_val = np.asarray(y_val, dtype=np.int64)
    if len(X) == 0 or len(X_val) == 0:
        raise ValueError("training and validation sets must be non-empty")
    for layer in model.layers:
        if isinstance(layer, Dropout):
            layer.rng = substream(config.seed, "dropout")
    optimizer = Adam(lr=config.learning_rate)
    history: dict[str, list[float]] = {"train_loss": [], "train_acc": [], "val_loss": [], "val_acc": []}
    best_val = np.inf
    best_weights = model.get_weights()
    bad_epochs = 0
    for epoch in range(config.max_epochs):
        perm = substream(config.seed, "shuffle", epoch).permutation(len(X))
        batch_losses = []
        correct = 0
        for lo in range(0, len(X), config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            xb, yb = X[idx], y[idx]
            probs = model.forward(xb, train=True)
            batch_losses.append(cross_entropy(probs, yb) * len(yb))
            correct += int(np.sum(np.argmax(probs, axis=1) == yb))
            model.zero_grads()
            model.backward(_loss_gradient(probs, yb))
            optimizer.step(model.params(), model.grads())
        val_loss, val_acc = _batched_eval(model, X_val, y_val)
        history["train_loss"].append(float(np.sum(batch_losses) / len(X)))
        history["train_acc"].append(correct / len(X))
        history["val_loss"].append(val_loss)
        history["val_acc"].append(val_acc)
        if val_loss < best_val:
            best_val = val_loss
            best_weights = model.get_weights()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break
    model.set_weights(best_weights)
    return history


# Frames per inference forward pass. A batch's activations are about 418 KiB
# per frame, so 32 keeps the peak small; on OpenBLAS the probabilities are
# bit-equal to a 256-frame batch (a test pins that).
PREDICT_BATCH = 32


def _batched_proba(model: CnnModel, X: np.ndarray) -> np.ndarray:
    starts = range(0, len(X), PREDICT_BATCH)
    return np.concatenate([model.forward(X[lo : lo + PREDICT_BATCH], train=False) for lo in starts])


def predict(model: CnnModel, X: np.ndarray) -> np.ndarray:
    return np.argmax(_batched_proba(model, X), axis=1)


def predict_proba(model: CnnModel, X: np.ndarray) -> np.ndarray:
    return _batched_proba(model, X)


def images_to_input(images: np.ndarray) -> np.ndarray:
    """uint8 (N, H, W) images -> float64 (N, H, W, 1) scaled to [0, 1]."""
    arr = np.asarray(images)
    if arr.ndim == 2:
        arr = arr[None]
    return arr.astype(np.float64)[..., None] / 255.0


def gradient_check(
    model: CnnModel, x: np.ndarray, y: np.ndarray, step: float = 1e-4
) -> float:
    """Max relative error between backprop and central finite differences.

    Runs in deterministic mode (dropout off). Checks every element of every
    parameter, so call it on tiny models only.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))

    def loss() -> float:
        return cross_entropy(model.forward(x, train=False), y)

    model.zero_grads()
    model.backward(_loss_gradient(model.forward(x, train=False), y))
    analytic = [g.copy() for g in model.grads()]

    max_rel = 0.0
    for p, g in zip(model.params(), analytic, strict=True):
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + step
            lp = loss()
            flat_p[i] = orig - step
            lm = loss()
            flat_p[i] = orig
            fd = (lp - lm) / (2.0 * step)
            rel = abs(fd - flat_g[i]) / max(abs(fd), abs(flat_g[i]), 1e-8)
            max_rel = max(max_rel, rel)
    return max_rel


def save_cnn(path, model: CnnModel) -> None:
    """Versioned flat weight file; architecture is implied by the schema."""
    meta = {"schema": "cnn/1", "num_classes": model.num_classes}
    arrays = {f"param_{i:03d}": p for i, p in enumerate(model.params())}
    write_blocks(path, meta, arrays)


def load_cnn(path) -> CnnModel:
    meta, arrays = read_blocks(path)
    if meta.get("schema") != "cnn/1":
        raise ValueError(f"{path}: not a cnn model file (schema {meta.get('schema')!r})")
    if not isinstance(meta.get("num_classes"), int):
        raise ValueError(f"{path}: meta num_classes must be an integer")
    model = build_model(meta["num_classes"], seed=0)
    names = [f"param_{i:03d}" for i in range(len(model.params()))]
    if sorted(arrays) != names:
        raise ValueError(f"{path}: expected arrays {names[0]}..{names[-1]}, got {sorted(arrays)}")
    for name, p in zip(names, model.params()):
        a = arrays[name]
        if a.shape != p.shape or a.dtype.kind != "f" or not np.all(np.isfinite(a)):
            raise ValueError(
                f"{path}: {name} has shape {a.shape} and dtype {a.dtype}, "
                f"expected {p.shape} finite float"
            )
    model.set_weights([arrays[name] for name in names])
    return model
