"""Dense networks with hand-rolled reverse-mode gradients, plus Adam.

A ParamTree owns the weights of `copies` MLPs of one spec (one, or twin
critics) together with gradient buffers and Adam moments; forward passes
optionally record a tape that the matching backward pass consumes. Gradients
accumulate across backward calls until an optimizer step zeroes them, which
is what lets a loss with several expectation terms sum its pieces first.

A ParamTree keeps four contiguous vectors, `params`, `grads`, `m` and `v`,
copy-major: each copy is one span, laid out layer by layer (weights
row-major, then biases). Every DenseLayer array (`w`, `b`, `gw`, `gb`, `mw`,
`vw`, `mb`, `vb`) is a view into one of them, (in, out) and (out,) for one
copy, (copies, in, out) and (copies, 1, out) for more; `copy`, pickling and
deepcopy rebuild those views. So the passes work per layer while Adam and
Polyak averaging are a few whole-vector ops, which give the same bits as a
loop over the layer arrays, and checkpoints save whole vectors.

Every pass works on (N, d) rows; there are no one-row forms. `forward`
takes one or more column blocks, say state features and an action box, and
joins them once in the tree's dtype; `backward` returns one input gradient
per block, so a caller reads the block it chains into. Every copy reads the
same rows and gives (copies, N, out); a one-copy tree also takes (m, N, d)
blocks, one gemm per slice, and backpropagates one slice `part` of that
tape. The passes transpose the last two axes and sum biases over axis -2,
which is one network's arithmetic, so each copy or slice gets its own bits.

One precision per tree: the four vectors are in the tree's `dtype`, float32
for every tree the lab builds, and the passes, gradient accumulation, Adam
and Polyak averaging run in it on the layer views themselves. Both passes
take and return float64, and the output layer's activation runs in float64
after its bias, since TANH_CAP = 1 - 1e-12 rounds to 1.0 in float32. A
backward must see the weights of its own forward, so `adam_step` refuses to
run while a tape is pending. Float64 trees run the same code: the reference
that finite-difference tests check. Checkpoints store float64, which holds a
float32 tree exactly; loading refuses a value the tree's dtype cannot hold.

A layer's forward pass writes its bias and activation into its own matmul
output, and the backward pass multiplies activation derivatives into its
running gradient in place. Arrays on the tape (the input and every layer
output) are never written after they are recorded. A recorded forward puts
its hidden layers in buffers the tree keeps per input shape, reused by the
next one, instead of freeing blocks that glibc may return to the OS and fault
in again. Only the tape, which the next recorded forward replaces, reaches
them; `copy` and pickling drop them.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, ConfigError, OptimizerError, StateError

ACTIVATIONS = ("relu", "leaky_relu", "tanh", "identity")
OUTPUT_ACTIVATIONS = ("identity", "tanh")
LEAKY_SLOPE = 0.01

LOG_STD_MIN = -10.0
LOG_STD_MAX = 2.0

# float64 tanh rounds to exactly +-1.0 when saturated; outputs that must stay
# strictly inside the open interval are capped just inside it
TANH_CAP = 1.0 - 1e-12

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # published defaults, arXiv:1412.6980
FLUSH_EVERY = 100  # Adam steps between flushes of subnormal moments to 0

_VECTORS = ("params", "grads", "m", "v")


# ---------------------------------------------------------------------------
# numerics helpers shared across modules


def sigmoid(x):
    e = np.exp(-np.abs(x))  # at most 1, so neither branch overflows
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softplus(x):
    # log(1 + e^x) without overflow for large |x|
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def tanh_log_jacobian(z):
    # log(1 - tanh(z)^2) = 2*(log 2 - z - softplus(-2z)), exact and stable
    return 2.0 * (np.log(2.0) - z - softplus(-2.0 * z))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MLPSpec:
    """Shape and activation description of one dense network."""

    input_dim: int
    hidden: tuple
    output_dim: int
    activation: str = "relu"
    output_activation: str = "identity"

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise ConfigError(f"non-positive dims in {self}")
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ConfigError(f"hidden sizes must be a non-empty positive list, got {self.hidden}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ConfigError(f"unknown output activation {self.output_activation!r}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))

    def dims(self):
        return (self.input_dim,) + self.hidden + (self.output_dim,)

    def canonical(self) -> str:
        return (
            f"mlp:in={self.input_dim};hidden={','.join(map(str, self.hidden))};"
            f"out={self.output_dim};act={self.activation};outact={self.output_activation}"
        )


class DenseLayer:
    """One layer's slices of its tree's flat buffers, as (in, out) and (out,) views,
    or (copies, in, out) and (copies, 1, out) views for a stacked tree."""

    def __init__(self, buffers, start: int, fan_in: int, fan_out: int, copies: int):
        mid = start + fan_in * fan_out
        shapes = ((copies, fan_in, fan_out), (copies, 1, fan_out)) if copies > 1 else (
            (fan_in, fan_out), (fan_out,))
        (self.w, self.b), (self.gw, self.gb), (self.mw, self.mb), (self.vw, self.vb) = (
            (x[:, start:mid].reshape(shapes[0]), x[:, mid : mid + fan_out].reshape(shapes[1]))
            for x in buffers)


class ParamTree:
    """Weights + grads + Adam state for `copies` MLPs of one spec, with a single
    forward tape. Layer arrays view the flat vectors: writing `layer.w` writes `params`."""

    def __init__(self, spec: MLPSpec, step: int = 0, dtype=np.float32, copies: int = 1):
        dims = spec.dims()
        n = sum(i * o + o for i, o in zip(dims[:-1], dims[1:]))
        self.spec = spec
        self.dtype = np.dtype(dtype)
        self.copies = copies
        vectors = np.zeros((4, copies, n), self.dtype)
        self.params, self.grads, self.m, self.v = (x.reshape(-1) for x in vectors)
        self.layers, start = [], 0
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            self.layers.append(DenseLayer(vectors, start, fan_in, fan_out, copies))
            start += fan_in * fan_out + fan_out
        self.step = step
        self._tape = None
        self._acts = {}  # input shape -> hidden activation buffers of recorded forwards

    @classmethod
    def init(cls, spec: MLPSpec, rng: np.random.Generator, copies: int = 1) -> "ParamTree":
        """Glorot-uniform weights, zero biases; copy j draws as the j-th one-copy init."""
        tree, one = cls(spec, copies=copies), cls(spec)
        for span in tree.params.reshape(copies, -1):
            for l in one.layers:
                fan_in, fan_out = l.w.shape
                bound = np.sqrt(6.0 / (fan_in + fan_out))
                # rng.uniform(-bound, bound), -bound + 2 * bound * U, drawn in float64
                # and cast, so the generator moves as it would for a float64 tree
                l.w[...] = rng.random(l.w.shape) * (2.0 * bound) - bound
            span[...] = one.params
        return tree

    def member(self, j: int) -> "ParamTree":
        """Copy j of this tree as a one-copy tree with its own vectors."""
        one = ParamTree(self.spec, self.step, self.dtype)
        for name in _VECTORS:
            getattr(one, name)[...] = getattr(self, name).reshape(self.copies, -1)[j]
        return one

    def copy(self) -> "ParamTree":
        clone = ParamTree.__new__(ParamTree)
        clone.__setstate__(self.__getstate__())
        return clone

    def __getstate__(self):
        # `copy`, pickle and deepcopy keep the four vectors and rebuild the
        # layer views on them; a pending tape and the activation buffers are dropped
        return {"spec": self.spec, "step": self.step, "dtype": self.dtype,
                "copies": self.copies, **{name: getattr(self, name) for name in _VECTORS}}

    def __setstate__(self, state):
        self.__init__(state["spec"], state["step"], state["dtype"], state["copies"])
        for name in _VECTORS:
            getattr(self, name)[...] = state[name]

    def digest(self) -> str:
        h = hashlib.sha256(self.spec.canonical().encode())
        h.update(self.params.tobytes())
        return h.hexdigest()

    # -- forward / backward --------------------------------------------------

    def forward(self, *blocks, record: bool = False) -> np.ndarray:
        """Outputs of the rows the (N, d_i) column `blocks` make: (N, out), (copies,
        N, out) for a stacked tree, or (m, N, out) for (m, N, d_i) blocks."""
        a = (np.asarray(blocks[0], self.dtype) if len(blocks) == 1
             else np.concatenate(blocks, axis=-1, dtype=self.dtype))
        if a.ndim not in (2, 3 if self.copies == 1 else 2) or a.shape[-1] != self.spec.input_dim:
            raise ConfigError(f"input shape {a.shape} is not (N, {self.spec.input_dim})")
        last = len(self.layers) - 1
        if record:  # hidden layers go to this input shape's buffers, made on first use
            inputs, outs = [a], self._acts.get(a.shape, [None] * last)
        for i, l in enumerate(self.layers):
            a = np.matmul(a, l.w, out=outs[i]) if record and i < last else a @ l.w
            a += l.b
            if i == last:  # output activation in float64, see TANH_CAP
                a = a.astype(np.float64, copy=False)
            act = self.spec.output_activation if i == last else self.spec.activation
            if act == "relu":
                np.maximum(a, 0.0, out=a)
            elif act == "leaky_relu":  # same bits as np.where(a >= 0, a, LEAKY_SLOPE * a)
                np.maximum(a, LEAKY_SLOPE * a, out=a)
            elif act == "tanh":
                np.tanh(a, out=a)
                if i == last:
                    np.minimum(np.maximum(a, -TANH_CAP, out=a), TANH_CAP, out=a)
            if record and i < last:
                inputs.append(a)
        if record:
            self._tape = (inputs, a, [np.shape(b)[-1] for b in blocks])
            self._acts[inputs[0].shape] = inputs[1:]
        return a

    def backward(self, upstream: np.ndarray, accumulate: bool = True,
                 input_grad: bool = True, part: int | None = None) -> tuple | None:
        """d loss / d input from `upstream` = d loss / d output, as one
        gradient per input block of the recorded forward; with `input_grad`
        False the first layer skips it and None is returned. A tape of (m, N,
        d) blocks backpropagates its slice `part` only; no other tape takes one."""
        if self._tape is None:
            raise StateError("backward called without a recorded forward pass")
        inputs, out, widths = self._tape
        self._tape = None
        if (part is None) != (inputs[0].ndim == 2):
            raise ConfigError("a tape of (m, N, d) blocks backpropagates one slice `part`")
        if part is not None:
            inputs, out = [x[part] for x in inputs], out[part]
        d = np.asarray(upstream, dtype=np.float64)
        if d.shape != out.shape:
            raise ConfigError(f"upstream shape {d.shape} != output shape {out.shape}")
        # activation derivatives come from the layer outputs: every supported
        # activation is sign-preserving or smooth. `d` may still be `upstream`
        # here, so only the fresh arrays after the first matmul are scaled in place
        if self.spec.output_activation == "tanh":
            g = out * out
            d = np.multiply(d, np.subtract(1.0, g, out=g), out=g)
        d = d.astype(self.dtype, copy=False)
        act = self.spec.activation
        for i in range(len(self.layers) - 1, -1, -1):
            l = self.layers[i]
            if accumulate:
                l.gw += inputs[i].mT @ d
                l.gb += np.add.reduce(d, -2, keepdims=self.copies > 1)
            if i == 0 and not input_grad:
                return None
            # for a width-1 layer `d @ w.T` runs matmul's slow non-BLAS loop: form the
            # same products, plus the +0.0 its zeroed sum adds (-0.0 becomes 0.0)
            d = d * l.w.mT + 0.0 if l.w.shape[-1] == 1 else d @ l.w.mT
            if i > 0 and act == "relu":
                d *= inputs[i] > 0.0
            elif i > 0 and act == "leaky_relu":
                d *= np.maximum(inputs[i] > 0.0, self.dtype.type(LEAKY_SLOPE))
            elif i > 0 and act == "tanh":
                g = inputs[i] * inputs[i]
                d *= np.subtract(1.0, g, out=g)
        d = d.astype(np.float64, copy=False)
        return tuple(d[..., end - w : end] for w, end in zip(widths, itertools.accumulate(widths)))

    # -- Adam -----------------------------------------------------------------

    def adam_step(self, lr: float) -> None:
        """One Adam step in the tree's dtype, zeroing the gradients; changes
        nothing if a tape is pending (`StateError`) or a gradient is not finite.
        A moment whose gradient stays 0 sticks at a subnormal (0.9 times a few
        ulps rounds to itself), which slows every step, so these are set to 0."""
        if self._tape is not None:
            raise StateError("adam_step called while a recorded forward awaits its backward")
        g, m, v = self.grads, self.m, self.v
        if not np.isfinite(g).all():
            k, l = next((k, l) for k, l in enumerate(self.layers)
                        if not (np.isfinite(l.gw).all() and np.isfinite(l.gb).all()))
            raise OptimizerError(
                f"non-finite gradient in layer {k} of {self.spec.canonical()}: "
                f"{int(np.sum(~np.isfinite(l.gw)))} weight entries, "
                f"{int(np.sum(~np.isfinite(l.gb)))} bias entries; step aborted"
            )
        self.step += 1
        c1 = 1.0 - ADAM_BETA1 ** self.step
        c2 = 1.0 - ADAM_BETA2 ** self.step
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        if self.step % FLUSH_EVERY == 0:
            m[np.abs(m) < np.finfo(self.dtype).tiny] = 0.0
            v[v < np.finfo(self.dtype).tiny] = 0.0
        self.params -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        g[...] = 0.0


def chunked_rows(fn, chunk: int, *arrays) -> np.ndarray:
    """`fn(*arrays)` run on `chunk` rows at a time, the last chunk padded with
    zero rows whose outputs are dropped. A float32 matmul may round a row
    differently with another row count, as BLAS picks its kernel by shape; at
    exactly `chunk` rows each row gets the bits of a `chunk`-row minibatch."""
    out = []
    for i in range(0, len(arrays[0]), chunk):
        rows = [a[i : i + chunk] for a in arrays]
        pad = chunk - len(rows[0])
        rows = [np.concatenate([r, np.zeros((pad,) + r.shape[1:], r.dtype)]) if pad else r
                for r in rows]
        out.append(fn(*rows)[: chunk - pad])
    return np.concatenate(out)


class AdamScalar:
    """Adam for a single scalar parameter (entropy temperature)."""

    def __init__(self, value: float):
        self.value = float(value)
        self.m = 0.0
        self.v = 0.0
        self.step = 0

    def update(self, grad: float, lr: float) -> None:
        if not np.isfinite(grad):
            raise OptimizerError(f"non-finite scalar gradient {grad}")
        self.step += 1
        self.m = ADAM_BETA1 * self.m + (1.0 - ADAM_BETA1) * grad
        self.v = ADAM_BETA2 * self.v + (1.0 - ADAM_BETA2) * grad * grad
        mhat = self.m / (1.0 - ADAM_BETA1 ** self.step)
        vhat = self.v / (1.0 - ADAM_BETA2 ** self.step)
        self.value -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# diagonal Gaussians


@dataclass
class GaussianDist:
    """Diagonal Gaussian given by mean and clamped log-std (vector or batch)."""

    mean: np.ndarray
    log_std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.log_std = np.minimum(np.maximum(np.asarray(self.log_std, dtype=np.float64),
                                             LOG_STD_MIN), LOG_STD_MAX)

    @property
    def std(self):
        return np.exp(self.log_std)

    def sample(self, noise: np.ndarray) -> np.ndarray:
        noise = np.asarray(noise, dtype=np.float64)
        if noise.shape != self.mean.shape:
            raise ConfigError(f"noise shape {noise.shape} != mean shape {self.mean.shape}")
        return self.mean + self.std * noise

    def kl_to_standard(self) -> np.ndarray:
        """KL(N(mean, std) || N(0, I)), summed over dims; >= 0 always."""
        var = np.exp(2.0 * self.log_std)
        per_dim = 0.5 * (self.mean ** 2 + var - 1.0) - self.log_std
        return per_dim.sum(axis=-1)


def gaussian_head(raw: np.ndarray):
    """Split a (..., 2d) network output into a GaussianDist plus clamp mask.

    The mask is 1 where the raw log-std fell inside the clamp bounds, which is
    the subgradient callers multiply into the log-std upstream when chaining
    through the head. GaussianDist does the clamping.
    """
    if raw.shape[-1] % 2 != 0:
        raise ConfigError(f"gaussian head needs an even output width, got {raw.shape[-1]}")
    d = raw.shape[-1] // 2
    raw_ls = raw[..., d:]
    mask = ((raw_ls > LOG_STD_MIN) & (raw_ls < LOG_STD_MAX)).astype(np.float64)
    return GaussianDist(raw[..., :d], raw_ls), mask


# ---------------------------------------------------------------------------
# checkpoint form of a tree

_SAVED_BUFFERS = ("params", "m", "v")


def tree_state(tree: ParamTree, name: str) -> tuple:
    """Checkpoint entries of `tree` under `name`: the header field `name`
    (spec canonical string and Adam step) and the arrays `name.params`,
    `name.m` and `name.v`. Gradients are not saved, nor is a stacked tree."""
    if tree.copies > 1:
        raise ConfigError(f"{name} stacks {tree.copies} networks; only one-copy trees are saved")
    header = {name: {"spec": tree.spec.canonical(), "step": tree.step}}
    return header, {f"{name}.{b}": getattr(tree, b) for b in _SAVED_BUFFERS}


def tree_from_state(spec: MLPSpec, header: dict, arrays: dict, name: str) -> ParamTree:
    """The tree `tree_state` saved under `name`; it must have been written
    for `spec`, and every saved value must cast to the tree's dtype exactly.
    Its layers view its own copies of the loaded buffers."""
    entry = header[name]
    if entry["spec"] != spec.canonical():
        raise CheckpointError(f"{name} was written for {entry['spec']}, not {spec.canonical()}")
    tree = ParamTree(spec, step=int(entry["step"]))
    for b in _SAVED_BUFFERS:
        buf, saved = getattr(tree, b), arrays[f"{name}.{b}"]
        if saved.shape != buf.shape:
            raise CheckpointError(f"{name}.{b} has shape {saved.shape}, not {buf.shape}")
        with np.errstate(over="ignore"):
            buf[...] = saved
        if not np.array_equal(buf, saved, equal_nan=True):
            raise CheckpointError(f"{name}.{b} holds values that {tree.dtype} cannot hold exactly")
    return tree
