"""Shared test helpers: finite-difference gradient probes, tiny specs and
the float64 reference path."""

import numpy as np

from lapal import nncore

BUFFERS = ("params", "grads", "m", "v")


def trees_in(obj):
    """Every ParamTree in `obj`: a tree, or a lab object holding trees (an
    agent, codec, discriminator, policy bundle or run result)."""
    if isinstance(obj, nncore.ParamTree):
        yield obj
    elif type(obj).__module__.startswith("lapal."):
        for value in vars(obj).values():
            yield from trees_in(value)


def float64(obj):
    """Run every ParamTree in `obj` (see `trees_in`) in float64, the
    reference precision that finite differences and float64 oracles check to
    tight tolerances. Each tree's four buffers are converted (exactly) and its
    layers rebound to views of the new ones; a pending tape is dropped.
    Returns `obj`.
    """
    for tree in trees_in(obj):
        ref = nncore.ParamTree(tree.spec, step=tree.step, dtype=np.float64)
        for name in BUFFERS:
            getattr(ref, name)[...] = getattr(tree, name)
        vars(tree).update(vars(ref))
    return obj


def fd_loss_gradient(loss_fn, trees, h=1e-5, n_probes=100, seed=0):
    """Probe d(loss)/d(param) by central differences at random coordinates.

    loss_fn() must recompute the scalar loss from the trees' current
    parameters. Returns (probe coords, fd values, analytic values); the
    caller is responsible for having accumulated analytic gradients before
    calling (they are read once, up front).
    """
    if isinstance(trees, nncore.ParamTree):
        trees = [trees]
    analytic_full = np.concatenate([t.grads for t in trees])
    flats = [t.params for t in trees]
    offsets = np.cumsum([0] + [f.size for f in flats])
    rng = np.random.default_rng(seed)
    coords = rng.choice(offsets[-1], size=min(n_probes, offsets[-1]), replace=False)
    fd = np.empty(len(coords))
    for j, c in enumerate(coords):
        k = np.searchsorted(offsets, c, side="right") - 1
        i = c - offsets[k]
        orig = flats[k][i]
        flats[k][i] = orig + h
        up = loss_fn()
        flats[k][i] = orig - h
        down = loss_fn()
        flats[k][i] = orig
        fd[j] = (up - down) / (2.0 * h)
    return coords, fd, analytic_full[coords]


def assert_grads_close(fd, analytic, rtol=1e-4, floor=1e-6):
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), floor)
    rel = np.abs(fd - analytic) / denom
    worst = float(np.max(rel))
    assert worst < rtol, f"worst relative gradient error {worst:.3e} >= {rtol}"


def scalar_probe_loss(tree, x, proj_seed=0):
    """Deterministic scalar loss: fixed random projection of the outputs."""
    rng = np.random.default_rng(proj_seed)
    w = rng.standard_normal(tree.spec.output_dim)

    def loss(record=False):
        y = tree.forward(x, record=record)
        return float((np.atleast_2d(y) * w).sum())

    return loss, w
