"""Per-array Adam and Polyak updates: the optimizer code flat buffers replaced.

Kept as the oracle the flat-buffer tests compare with. Here every layer's
weights, biases, gradients and moments are separate arrays, and each update
loops over them one array at a time. The flat path does the same elementwise
arithmetic in the same operand order, so the two must agree bit for bit.
"""

import numpy as np

from lapal.errors import OptimizerError

NAMES = ("w", "b", "gw", "gb", "mw", "vw", "mb", "vb")


class Layer:
    """Own copies of one layer's arrays."""

    def __init__(self, layer):
        for name in NAMES:
            setattr(self, name, getattr(layer, name).copy())


class Tree:
    """Per-array copy of a ParamTree: separate arrays per layer, no flat buffer."""

    def __init__(self, tree):
        self.spec = tree.spec
        self.layers = [Layer(l) for l in tree.layers]
        self.step = tree.step

    def take_grads(self, tree) -> None:
        for mine, theirs in zip(self.layers, tree.layers):
            mine.gw[...] = theirs.gw
            mine.gb[...] = theirs.gb


def adam_step(tree: Tree, lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    for k, l in enumerate(tree.layers):
        if not (np.all(np.isfinite(l.gw)) and np.all(np.isfinite(l.gb))):
            bad_w = int(np.sum(~np.isfinite(l.gw)))
            bad_b = int(np.sum(~np.isfinite(l.gb)))
            raise OptimizerError(
                f"non-finite gradient in layer {k} of {tree.spec.canonical()}: "
                f"{bad_w} weight entries, {bad_b} bias entries; step aborted"
            )
    tree.step += 1
    c1 = 1.0 - beta1 ** tree.step
    c2 = 1.0 - beta2 ** tree.step
    for l in tree.layers:
        for p, g, m, v in ((l.w, l.gw, l.mw, l.vw), (l.b, l.gb, l.mb, l.vb)):
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    for l in tree.layers:
        l.gw[...] = 0.0
        l.gb[...] = 0.0


def polyak_update(pairs, tau: float) -> None:
    """`pairs` is a list of (critic, target) Trees."""
    for critic, target in pairs:
        for lc, lt in zip(critic.layers, target.layers):
            lt.w += tau * (lc.w - lt.w)
            lt.b += tau * (lc.b - lt.b)
