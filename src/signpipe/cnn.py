"""Micro-CNN built on numpy: forward, backprop, Adam, early stopping.

The fixed architecture (build_model) is three conv -> max-pool -> ReLU
stages into two dense layers with dropout; layer shapes and parameter
counts are pinned by unit tests. Pooling before the ReLU is the same
function as the usual conv -> ReLU -> pool order, because ReLU is monotone
and returns one of its inputs: max(relu(a), relu(b)) == relu(max(a, b))
bit for bit. It runs the ReLU on maps 4, 9 and 16 times smaller. The
gradients differ only in the sign and place of exact zeros, which leave
every weight update unchanged.

Everything runs in float32, the dtype of every weight: activations,
gradients and Adam's moments follow the parameters, and no layer upcasts.
Only gradient_check computes in float64, on its own copy of the layers.

Convolutions use im2col matmuls and the data gradient is computed as a
convolution with the flipped, channel-transposed kernel, so no scatter-add
appears on the hot path. That convolution pads the output gradient by
kernel - 1 less the forward pad on each side, so it yields the input-sized
gradient directly, with no crop. A one-channel patch matrix is kh*kw slice
copies; more channels take one copy of a strided view. Convolutions and
dense layers add the bias in place on the matmul output.

A pool takes each window row's maximum over its columns, then each
window's maximum over its rows: 2(s-1) maxima on strided views, the same
pass in both modes, so both give the same bytes, signed zeros included.
Train mode also records the first offset that holds each maximum, as argmax
would; its backward is one scatter to those offsets.

The model reads float (N, 32, 32, 1) input, which its forward casts to its
weights' dtype, or 8-bit frames as uint8 (N, 32, 32, 1), which it scales
with images_to_input. train, predict and predict_proba slice uint8 splits
and streams as they are, so they hold one batch of floats, not a float copy
of them all; the values are the same.

Each backward pass assigns its layer's weight and bias gradients (dW, db),
so a training step's single pass leaves exactly that batch's gradients.
Only a train-mode forward keeps what backward reads, and backward releases
it once read. The model's backward stops at the first layer's weight
gradients: nothing reads the gradient with respect to the image.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .io import read_blocks, write_blocks
from .rng import substream


def _zero_pad(x: np.ndarray, rows: tuple[int, int], cols: tuple[int, int]) -> np.ndarray:
    """(N, H, W, C) with (before, after) zero rows and columns added."""
    n, h, w, c = x.shape
    out = np.zeros((n, h + rows[0] + rows[1], w + cols[0] + cols[1], c), dtype=x.dtype)
    out[:, rows[0] : rows[0] + h, cols[0] : cols[0] + w] = x
    return out


def _im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(N, H, W, C) -> (N, OH, OW, kh*kw*C) patch matrix for a valid window.

    One channel is gathered as kh*kw slice copies, one per kernel position;
    more channels as one copy of a strided (kh, kw, C) view, whose inner runs
    are then long enough to beat kh*kw slices."""
    n, h, w, c = x.shape
    oh, ow = h - kh + 1, w - kw + 1
    if c == 1:
        patches = np.empty((n, oh, ow, kh * kw), dtype=x.dtype)
        for i in range(kh):
            for j in range(kw):
                patches[..., i * kw + j] = x[:, i : i + oh, j : j + ow, 0]
        return patches
    x = np.ascontiguousarray(x)
    s = x.strides
    view = np.ndarray((n, oh, ow, kh, kw, c), x.dtype, x, 0, (s[0], s[1], s[2], s[1], s[2], s[3]))
    return view.reshape(n, oh, ow, kh * kw * c)


class Layer:
    """Base of every layer: no weights unless a subclass has them."""

    def params(self) -> list[np.ndarray]:
        return []

    def grads(self) -> list[np.ndarray]:
        return []


class _Weighted(Layer):
    """Glorot-uniform float32 weights W and a zero bias b over W's last axis;
    backward assigns dW and db. Fans count every kernel position: kh*kw*in and
    kh*kw*out. The draws are float64, rounded once to float32."""

    def __init__(self, shape: tuple[int, ...], rng: np.random.Generator):
        limit = np.sqrt(6.0 / (math.prod(shape[:-2]) * (shape[-2] + shape[-1])))
        self.W = rng.uniform(-limit, limit, size=shape).astype(np.float32)
        self.b = np.zeros(shape[-1], np.float32)

    def params(self):
        return [self.W, self.b]

    def grads(self):
        return [self.dW, self.db]


class Conv2D(_Weighted):
    """2-D convolution, stride 1, padding 'valid' or 'same'.

    backward returns the gradient with respect to the input unless
    input_grad is False, which the model sets on its first layer.
    """

    input_grad = True

    def __init__(self, in_ch: int, out_ch: int, kh: int, kw: int, padding: str, rng):
        if padding not in ("valid", "same"):
            raise ValueError(f"padding must be 'valid' or 'same', got {padding!r}")
        self.kh, self.kw, self.in_ch, self.out_ch = kh, kw, in_ch, out_ch
        self.padding = padding
        # (before, after) zero rows and columns; 'same' puts the odd one after
        self.pads = tuple(((k - 1) // 2, k // 2) if padding == "same" else (0, 0) for k in (kh, kw))
        super().__init__((kh, kw, in_ch, out_ch), rng)

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        xp = _zero_pad(x, *self.pads) if self.padding == "same" else x
        patches = _im2col(xp, self.kh, self.kw)
        if train:
            self._patches = patches
        n, oh, ow, k = patches.shape
        out = patches.reshape(-1, k) @ self.W.reshape(k, self.out_ch)
        out += self.b
        return out.reshape(n, oh, ow, self.out_ch)

    def backward(self, dy: np.ndarray) -> np.ndarray | None:
        self.weight_backward(dy)
        return self.data_backward(dy) if self.input_grad else None

    def weight_backward(self, dy: np.ndarray) -> None:
        """Assign dW and db."""
        k = self.kh * self.kw * self.in_ch
        dy2 = dy.reshape(-1, self.out_ch)
        self.dW = (self._patches.reshape(-1, k).T @ dy2).reshape(self.W.shape)
        self._patches = None
        self.db = dy2.sum(axis=0)

    def data_backward(self, dy: np.ndarray) -> np.ndarray:
        """The gradient with respect to the layer's input."""
        # Correlate dy with the spatially flipped, in/out-
        # transposed kernel. Padding dy by k - 1 less the forward pad on each
        # side makes the result exactly the input's size.
        (pt, pb), (pl, pr) = self.pads
        rows, cols = (self.kh - 1 - pt, self.kh - 1 - pb), (self.kw - 1 - pl, self.kw - 1 - pr)
        wb = self.W[::-1, ::-1].transpose(0, 1, 3, 2).reshape(self.kh * self.kw * self.out_ch, self.in_ch)
        pat = _im2col(_zero_pad(dy, rows, cols), self.kh, self.kw)
        return (pat.reshape(-1, pat.shape[3]) @ wb).reshape(pat.shape[:3] + (self.in_ch,))


class MaxPool2D(Layer):
    """Max pooling with stride == window; floor or ceil edge handling.

    Floor mode drops trailing rows/columns that do not fill a window; ceil
    mode keeps them as smaller edge windows, so every input pixel belongs to
    some window. Training keeps each window's first-maximum offset
    k = i*size + j in one byte, so size is at most 16.
    """

    def __init__(self, size: int, ceil_mode: bool = False):
        if not 1 <= size <= 16:
            raise ValueError(f"pool size must be in [1, 16], got {size}")
        self.size = size
        self.ceil_mode = ceil_mode

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        h, w = x.shape[1:3]
        s = self.size
        oh, ow = (-(-h // s), -(-w // s)) if self.ceil_mode else (h // s, w // s)
        # Each window row's maximum over its column offsets j, then each
        # window's maximum over its row offsets i. On the window grid the view
        # at offset j (or i) holds that offset of every window; it is shorter
        # where ceil-mode edge windows lack the offset. np.maximum returns its
        # second operand where the two compare equal, so a zero maximum keeps
        # the sign of the earlier offset. Train mode also keeps the first
        # maximum's offset i*s + j in raster order, as argmax does: a later
        # offset takes over only where strictly greater, and offsets grow
        # (row i's exceed every earlier row's), so taking over is a maximum
        # with the new offset.
        rows = x[:, : oh * s, 0 : ow * s : s].copy()
        cols = np.zeros(rows.shape, np.uint8) if train else None
        for j in range(1, min(s, w)):
            v = x[:, : oh * s, j : ow * s : s]
            o = rows[:, :, : v.shape[2]]
            if train:
                hit = np.greater(v, o).view(np.uint8)
                hit *= j
                a = cols[:, :, : v.shape[2]]
                np.maximum(a, hit, out=a)
            np.maximum(v, o, out=o)
        out = rows[:, ::s].copy()
        argmax = cols[:, ::s].copy() if train else None
        for i in range(1, min(s, h)):
            v = rows[:, i::s]
            o = out[:, : v.shape[1]]
            if train:
                hit = np.greater(v, o).view(np.uint8)
                hit *= cols[:, i::s] + i * s
                a = argmax[:, : v.shape[1]]
                np.maximum(a, hit, out=a)
            np.maximum(v, o, out=o)
        if train:
            self._argmax = argmax
            self._x_shape = x.shape
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        # Each window's gradient goes to its first maximum: one scatter at
        # the flat input positions of window corner plus offset.
        n, h, w, c = self._x_shape
        s = self.size
        oh, ow = dy.shape[1:3]
        offsets = np.array([(i * w + j) * c for i in range(s) for j in range(s)])
        at = offsets[self._argmax]
        self._argmax = None
        at += np.arange(n)[:, None, None, None] * (h * w * c)
        at += np.arange(oh)[:, None, None] * (s * w * c)
        at += np.arange(ow)[:, None] * (s * c) + np.arange(c)
        dx = np.zeros(self._x_shape, dy.dtype)
        dx.reshape(-1)[at] = dy
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
        if train:
            self._x = x
        out = x @ self.W
        out += self.b
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        self.dW = self._x.T @ dy
        self._x = None
        self.db = dy.sum(axis=0)
        return dy @ self.W.T


class ReLU(Layer):
    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        mask = x > 0
        if train:
            self._mask = mask
        return np.where(mask, x, 0.0)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        mask, self._mask = self._mask, None
        return dy * mask


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
        self._mask = (self.rng.random(x.shape) >= self.rate).astype(x.dtype) / (1.0 - self.rate)
        return x * self._mask

    def backward(self, dy: np.ndarray) -> np.ndarray:
        mask, self._mask = self._mask, None
        return dy if mask is None else dy * mask


class CnnModel:
    """A plain layer stack; forward applies softmax to the last layer's logits."""

    def __init__(self, layers: list, num_classes: int, input_shape: tuple[int, int, int]):
        self.layers = layers
        self.num_classes = num_classes
        self.input_shape = input_shape

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        x = np.asarray(x)
        if x.shape[1:] != self.input_shape:
            raise ValueError(f"expected input shape {self.input_shape}, got {x.shape[1:]}")
        if x.dtype == np.uint8:
            x = images_to_input(x)
        x = x.astype(self.layers[0].W.dtype, copy=False)
        for layer in self.layers:
            x = layer.forward(x, train)
        return softmax(x)

    def backward(self, dlogits: np.ndarray) -> None:
        """Backpropagate a train-mode forward's loss gradient. Nothing reads
        the gradient with respect to the image, so the first layer (a
        convolution) computes its weight gradients only."""
        self.layers[0].input_grad = False
        for layer in reversed(self.layers):
            dlogits = layer.backward(dlogits)

    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params()]

    def grads(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads()]

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
        MaxPool2D(2),
        ReLU(),
        Conv2D(16, 32, 3, 3, "valid", rng),
        MaxPool2D(3),
        ReLU(),
        Conv2D(32, 64, 5, 5, "same", rng),
        MaxPool2D(5, ceil_mode=True),
        ReLU(),
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


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam, updated in place. Each step evaluates, operation by operation,

        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g**2
        p -= lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)

    with two scratch arrays per parameter instead of temporaries."""

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.m: list[np.ndarray] = []
        self.v: list[np.ndarray] = []
        self._scratch: list[tuple[np.ndarray, np.ndarray]] = []

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if not self.m:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
            self._scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
        self.t += 1
        mscale, vscale = 1.0 - ADAM_BETA1**self.t, 1.0 - ADAM_BETA2**self.t
        for p, g, m, v, (a, b) in zip(params, grads, self.m, self.v, self._scratch, strict=True):
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
            v *= ADAM_BETA2
            v += np.multiply(np.square(g, out=a), 1.0 - ADAM_BETA2, out=a)
            np.divide(m, mscale, out=a)
            a *= self.lr
            np.divide(v, vscale, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b
            p -= a


def _loss_gradient(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of the mean cross-entropy with respect to the logits."""
    grad = probs.copy()
    grad[np.arange(len(labels)), labels] -= 1.0
    grad /= len(labels)
    return grad


def _batched_eval(model: CnnModel, X: np.ndarray, y: np.ndarray):
    probs = _batched_proba(model, X)
    # The loss sums the means of 256-row slices: the order behind every saved val_loss.
    losses = []
    for lo in range(0, len(X), 256):
        yb = y[lo : lo + 256]
        losses.append(cross_entropy(probs[lo : lo + 256], yb) * len(yb))
    correct = int(np.sum(np.argmax(probs, axis=1) == y))
    return float(np.sum(losses) / len(X)), correct / len(X)


@np.errstate(over="ignore", invalid="ignore")  # a diverging run ends in the loss check
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
    best-validation-loss weights. Returns the per-epoch history. X and X_val
    are float input or uint8 frames, each batch scaled by the forward pass.
    An epoch whose training or validation loss is not finite raises
    FloatingPointError naming the epoch: the run has diverged.
    """
    X, X_val = np.asarray(X), np.asarray(X_val)
    y = np.asarray(y, dtype=np.int64)
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
            model.backward(_loss_gradient(probs, yb))
            optimizer.step(model.params(), model.grads())
        val_loss, val_acc = _batched_eval(model, X_val, y_val)
        train_loss = float(np.sum(batch_losses) / len(X))
        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            raise FloatingPointError(
                f"diverged at epoch {epoch + 1}: training loss {train_loss}, "
                f"validation loss {val_loss}"
            )
        history["train_loss"].append(train_loss)
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


# Frames per inference forward pass. A float32 pass's traced peak is about
# 131 KiB per frame: 8 frames hold about 1.1 MB and run as fast per frame as
# 32. On OpenBLAS the probabilities are bit-equal to a 256-frame batch (a
# test pins that).
PREDICT_BATCH = 8


# predict and _batched_eval bypass predict_proba, which bench/tracing.py times: no pass counts twice.
def _batched_proba(model: CnnModel, X: np.ndarray) -> np.ndarray:
    if len(X) <= PREDICT_BATCH:
        return model.forward(X, train=False)
    batches = (X[lo : lo + PREDICT_BATCH] for lo in range(0, len(X), PREDICT_BATCH))
    return np.concatenate([model.forward(xb, train=False) for xb in batches])


def predict(model: CnnModel, X: np.ndarray) -> np.ndarray:
    return np.argmax(_batched_proba(model, X), axis=1)


def predict_proba(model: CnnModel, X: np.ndarray) -> np.ndarray:
    return _batched_proba(model, X)


def images_to_input(images: np.ndarray) -> np.ndarray:
    """uint8 (N, H, W) or (N, H, W, 1) images, or one (H, W) image, -> a new
    float32 (N, H, W, 1) array scaled to [0, 1], each value v / 255 rounded
    once. CnnModel.forward calls it on uint8 (N, H, W, 1) frames."""
    arr = np.asarray(images)
    if arr.ndim == 2:
        arr = arr[None]
    x = arr.astype(np.float32)
    if x.ndim == 3:
        x = x[..., None]
    x /= 255.0
    return x


def gradient_check(model: CnnModel, x: np.ndarray, y: np.ndarray) -> float:
    """Max relative error between backprop and central finite differences.

    Both run on a float64 copy of the model's layers without dropout, which
    is the identity at inference; the analytic pass runs them in train mode.
    The model's own parameters are left as they were, dtype and bytes.
    Checks every element of every parameter, so call it on tiny models only.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    step = 1e-4
    layers = [copy.copy(layer) for layer in model.layers if not isinstance(layer, Dropout)]
    for layer in layers:
        if isinstance(layer, _Weighted):
            layer.W, layer.b = layer.W.astype(np.float64), layer.b.astype(np.float64)
    plain = CnnModel(layers, model.num_classes, model.input_shape)

    def loss() -> float:
        return cross_entropy(plain.forward(x, train=False), y)

    plain.backward(_loss_gradient(plain.forward(x, train=True), y))
    analytic = plain.grads()

    max_rel = 0.0
    for p, g in zip(plain.params(), analytic, strict=True):
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
    num_classes = meta.get("num_classes")
    if type(num_classes) is not int or num_classes < 2:  # JSON true is a bool, not a class count
        raise ValueError(f"{path}: meta num_classes must be an integer >= 2, got {num_classes!r}")
    # Shapes of a 2-class model with its output layer widened to num_classes:
    # the stored arrays are checked before a model of that size is built.
    shapes = [p.shape for p in build_model(2, seed=0).params()]
    shapes[-2:] = [(shapes[-2][0], num_classes), (num_classes,)]
    names = [f"param_{i:03d}" for i in range(len(shapes))]
    if sorted(arrays) != names:
        raise ValueError(f"{path}: expected arrays {names[0]}..{names[-1]}, got {sorted(arrays)}")
    for name, shape in zip(names, shapes):
        a = arrays[name]
        # Any float file loads into the float32 model, a wider one rounded once.
        with np.errstate(over="ignore"):
            w = a.astype(np.float32) if a.shape == shape and a.dtype.kind == "f" else None
        if w is None or not np.isfinite(w).all():
            raise ValueError(
                f"{path}: {name} has shape {a.shape} and dtype {a.dtype}, "
                f"expected {shape} float, finite in float32"
            )
    model = build_model(num_classes, seed=0)
    model.set_weights([arrays[name] for name in names])
    return model
