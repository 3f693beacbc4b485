"""Allocating forward and backward passes: the layer code in-place kernels replaced.

Kept as the oracle the kernel tests compare with. Here every layer builds
`a @ w + b` as a new array, applies its activation into another one, and the
backward pass multiplies each activation derivative in as a fresh array,
including the multiply by ones for an identity output. The in-place kernels
do the same elementwise arithmetic, so the two must agree bit for bit. A
stacked tree's (copies, in, out) weights give (copies, N, out) outputs here
too, by matmul broadcasting over the copies.
"""

import numpy as np

import perarray
from lapal.errors import ConfigError, StateError
from lapal.nncore import LEAKY_SLOPE, TANH_CAP


def _act(name, x):
    if name == "relu":
        return np.maximum(x, 0.0)
    if name == "leaky_relu":
        return np.where(x >= 0.0, x, LEAKY_SLOPE * x)
    if name == "tanh":
        return np.tanh(x)
    return x


def _act_grad_from_output(name, a):
    if name == "relu":
        return (a > 0.0).astype(np.float64)
    if name == "leaky_relu":
        return np.where(a > 0.0, 1.0, LEAKY_SLOPE)
    if name == "tanh":
        return 1.0 - a * a
    return np.ones_like(a)


class Net:
    """Own copy of a ParamTree's layers with the allocating passes."""

    def __init__(self, tree):
        self.spec = tree.spec
        self.layers = [perarray.Layer(l) for l in tree.layers]
        self._tape = None

    def forward(self, x, record=False):
        squeeze = x.ndim == 1
        a = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if a.shape[1] != self.spec.input_dim:
            raise ConfigError(f"input width {a.shape[1]} != {self.spec.input_dim}")
        inputs = [a] if record else None
        last = len(self.layers) - 1
        for i, l in enumerate(self.layers):
            z = a @ l.w + l.b
            act = self.spec.output_activation if i == last else self.spec.activation
            a = _act(act, z)
            if i == last and act == "tanh":
                a = np.clip(a, -TANH_CAP, TANH_CAP)
            if record and i < last:
                inputs.append(a)
        if record:
            self._tape = (inputs, a)
        return a[0] if squeeze else a

    def backward(self, upstream, accumulate=True):
        if self._tape is None:
            raise StateError("backward called without a recorded forward pass")
        inputs, out = self._tape
        self._tape = None
        d = np.atleast_2d(np.asarray(upstream, dtype=np.float64))
        if d.shape != out.shape:
            raise ConfigError(f"upstream shape {d.shape} != output shape {out.shape}")
        d = d * _act_grad_from_output(self.spec.output_activation, out)
        for i in range(len(self.layers) - 1, -1, -1):
            l = self.layers[i]
            if accumulate:
                l.gw += np.swapaxes(inputs[i], -1, -2) @ d
                l.gb += d.sum(axis=-2).reshape(l.gb.shape)
            d = d @ np.swapaxes(l.w, -1, -2)
            if i > 0:
                d *= _act_grad_from_output(self.spec.activation, inputs[i])
        return d if upstream.ndim > 1 else d[0]
