import copy
import pickle

import numpy as np
import pytest

import outofplace
import perarray
from conftest import assert_grads_close, fd_loss_gradient, float64
from lapal import configio, envsim, nncore
from lapal.errors import CheckpointError, ConfigError, OptimizerError, StateError
from lapal.nncore import GaussianDist, MLPSpec, ParamTree

# every network shape family used elsewhere in the package
REPO_SPECS = [
    MLPSpec(6, (16, 16), 8, activation="relu"),                      # actor head
    MLPSpec(8, (16, 16), 1, activation="relu"),                      # critic
    MLPSpec(8, (16, 16), 1, activation="tanh"),                      # discriminator
    MLPSpec(8, (16, 16), 8, activation="leaky_relu"),                # codec encoder
    MLPSpec(7, (16, 16), 3, activation="leaky_relu", output_activation="tanh"),
]


def test_zero_network_forward_is_zero():
    spec = MLPSpec(3, (5, 4), 2)
    tree = ParamTree(spec)
    x = np.array([[1.0, -2.0, 0.5]])
    assert np.array_equal(tree.forward(x), np.zeros((1, 2)))


def test_identity_single_layer():
    spec = MLPSpec(2, (2,), 2, activation="identity")
    tree = ParamTree(spec)
    tree.layers[0].w[...] = np.eye(2)
    tree.layers[1].w[...] = np.eye(2)
    assert np.allclose(tree.forward(np.array([[1.0, 2.0]])), [[1.0, 2.0]])


def test_forward_matches_straight_line_oracle():
    spec = MLPSpec(1, (4,), 2, activation="tanh")
    tree = float64(ParamTree.init(spec, np.random.default_rng(0)))
    x = np.array([[0.5]])
    got = tree.forward(x)
    l0, l1 = tree.layers
    expect = np.tanh(x @ l0.w + l0.b) @ l1.w + l1.b
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-15)


def test_forward_shape_mismatch_raises():
    tree = ParamTree(MLPSpec(3, (4,), 2))
    for x in (np.zeros((1, 5)), np.zeros(3), np.zeros((1, 1, 1, 3)), np.zeros((2, 1, 5))):
        with pytest.raises(ConfigError):
            tree.forward(x)
    with pytest.raises(ConfigError):  # a stacked tree feeds every copy the same rows
        ParamTree(MLPSpec(3, (4,), 2), copies=2).forward(np.zeros((2, 1, 3)))


def test_backward_linear_case():
    # single effective linear layer, loss = sum(outputs): dW = outer(x, 1)
    spec = MLPSpec(2, (3,), 3, activation="identity")
    tree = ParamTree(spec)
    tree.layers[0].w[...] = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]])
    tree.layers[1].w[...] = np.eye(3)
    x = np.array([[1.0, 2.0]])
    tree.forward(x, record=True)
    tree.backward(np.ones((1, 3)))
    np.testing.assert_allclose(tree.layers[1].gb, np.ones(3))
    np.testing.assert_allclose(tree.layers[0].gw, np.outer(x[0], np.ones(3)))


def test_backward_without_forward_raises():
    tree = ParamTree(MLPSpec(2, (3,), 1))
    with pytest.raises(StateError):
        tree.backward(np.ones((1, 1)))
    tree.forward(np.zeros((1, 2)), record=True)
    tree.backward(np.ones((1, 1)))
    with pytest.raises(StateError):
        tree.backward(np.ones((1, 1)))  # tape consumed


def test_zero_upstream_gives_zero_grads():
    tree = ParamTree.init(MLPSpec(3, (8,), 2), np.random.default_rng(1))
    tree.forward(np.random.default_rng(2).standard_normal((4, 3)), record=True)
    tree.backward(np.zeros((4, 2)))
    assert np.all(tree.grads == 0.0)


@pytest.mark.parametrize("spec", REPO_SPECS, ids=lambda s: s.canonical())
def test_gradients_match_finite_differences(spec):
    rng = np.random.default_rng(7)
    tree = float64(ParamTree.init(spec, rng))
    x = rng.standard_normal((8, spec.input_dim))
    proj = rng.standard_normal(spec.output_dim)

    def loss(record=False):
        return float((tree.forward(x, record=record) * proj).sum())

    loss(record=True)
    tree.backward(np.tile(proj, (8, 1)))
    _, fd, analytic = fd_loss_gradient(loss, tree, n_probes=100, seed=11)
    assert_grads_close(fd, analytic, rtol=1e-4)


def test_input_gradient_matches_finite_differences():
    spec = MLPSpec(5, (12, 12), 3, activation="tanh")
    rng = np.random.default_rng(3)
    tree = float64(ParamTree.init(spec, rng))
    x = rng.standard_normal((1, 5))
    proj = rng.standard_normal((1, 3))
    tree.forward(x, record=True)
    (din,) = tree.backward(proj, accumulate=False)
    assert np.all(tree.grads == 0.0)  # accumulate=False leaves grads alone
    h = 1e-6
    for i in range(5):
        xp, xm = x.copy(), x.copy()
        xp[0, i] += h
        xm[0, i] -= h
        fd = ((tree.forward(xp) * proj).sum() - (tree.forward(xm) * proj).sum()) / (2 * h)
        assert abs(fd - din[0, i]) < 1e-6 * max(1.0, abs(fd))


def test_adam_first_step_is_signed_lr():
    spec = MLPSpec(1, (1,), 1, activation="identity")
    tree = ParamTree(spec)
    tree.layers[0].gw[...] = 0.37
    tree.layers[1].gw[...] = -2.5
    tree.adam_step(lr=0.01)
    assert tree.layers[0].w[0, 0] == pytest.approx(-0.01, rel=1e-6)
    assert tree.layers[1].w[0, 0] == pytest.approx(0.01, rel=1e-6)
    assert np.all(tree.grads == 0.0)  # zeroed after the step


def test_adam_zero_grad_keeps_params():
    tree = ParamTree.init(MLPSpec(2, (3,), 1), np.random.default_rng(0))
    before = tree.params.copy()
    tree.adam_step(lr=0.1)
    np.testing.assert_array_equal(tree.params, before)


def test_adam_converges_on_quadratic():
    spec = MLPSpec(1, (1,), 1, activation="identity")
    tree = ParamTree(spec)
    # single scalar parameter path: y = w * 1; minimize (w - 3)^2
    tree.layers[1].w[...] = 1.0
    for _ in range(200):
        w = tree.layers[0].w[0, 0]
        tree.layers[0].gw[...] = 2.0 * (w - 3.0)
        tree.layers[1].gw[...] = 0.0
        tree.layers[0].gb[...] = 0.0
        tree.layers[1].gb[...] = 0.0
        tree.adam_step(lr=0.1)
        tree.layers[1].w[...] = 1.0
    assert abs(tree.layers[0].w[0, 0] - 3.0) < 0.05


def test_adam_rejects_nonfinite_grads():
    tree = ParamTree.init(MLPSpec(3, (6, 5), 2), np.random.default_rng(4))
    rng = np.random.default_rng(5)
    for _ in range(3):  # non-zero moments
        tree.forward(rng.standard_normal((4, 3)), record=True)
        tree.backward(rng.standard_normal((4, 2)))
        tree.adam_step(lr=1e-2)
    tree.forward(rng.standard_normal((4, 3)), record=True)
    tree.backward(rng.standard_normal((4, 2)))
    tree.layers[1].gw[0, 0] = np.nan
    tree.layers[1].gb[2] = np.inf
    before = [x.tobytes() for x in (tree.params, tree.m, tree.v)]
    with pytest.raises(OptimizerError, match=r"layer 1 of .*: 1 weight entries, 1 bias"):
        tree.adam_step(lr=1e-2)
    assert [x.tobytes() for x in (tree.params, tree.m, tree.v)] == before
    assert tree.step == 3


def test_adam_moments_stay_finite():
    tree = ParamTree.init(MLPSpec(2, (4,), 1), np.random.default_rng(5))
    rng = np.random.default_rng(6)
    for _ in range(500):
        tree.forward(rng.standard_normal((4, 2)), record=True)
        tree.backward(rng.standard_normal((4, 1)) * 100.0)
        tree.adam_step(lr=1e-3)
    for l in tree.layers:
        assert np.all(np.isfinite(l.mw)) and np.all(np.isfinite(l.vw))
        assert np.all(np.isfinite(l.w))


def test_init_casts_float64_draws_and_moves_the_rng_as_float64_would():
    spec = MLPSpec(5, (7, 6), 3)
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    tree = ParamTree.init(spec, rng)
    for l in tree.layers:
        bound = np.sqrt(6.0 / sum(l.w.shape))
        want = ref.uniform(-bound, bound, l.w.shape)  # the float64 weights of a float64 init
        assert l.w.dtype == np.float32 and _same(l.w, want.astype(np.float32))
        assert not l.b.any()
    assert rng.bit_generator.state == ref.bit_generator.state


def test_determinism_bit_identical():
    def run():
        tree = ParamTree.init(MLPSpec(3, (16, 16), 2), np.random.default_rng(42))
        rng = np.random.default_rng(43)
        for _ in range(50):
            x = rng.standard_normal((8, 3))
            tree.forward(x, record=True)
            tree.backward(rng.standard_normal((8, 2)))
            tree.adam_step(lr=3e-4)
        return tree.params.copy()

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_tanh_output_strictly_bounded():
    spec = MLPSpec(4, (16,), 3, output_activation="tanh")
    tree = ParamTree.init(spec, np.random.default_rng(0))
    tree.layers[-1].w *= 50.0  # push toward saturation
    x = np.random.default_rng(1).standard_normal((1000, 4)) * 10
    y = tree.forward(x)
    assert np.all(y > -1.0) and np.all(y < 1.0)


@pytest.mark.parametrize("n", [1, 4, 5, 8])
def test_chunked_rows_runs_full_chunks_and_drops_the_padding(n):
    seen = []

    def fn(x, y):
        seen.append(x.copy())
        return x[:, 0] * y

    x, y = np.arange(1.0, 2 * n + 1).reshape(n, 2), np.arange(1.0, n + 1)
    out = nncore.chunked_rows(fn, 4, x, y)
    assert out.tobytes() == (x[:, 0] * y).tobytes()
    assert [len(rows) for rows in seen] == [4] * -(-n // 4)
    assert np.all(seen[-1][n - 4 * (len(seen) - 1):] == 0.0)


# -- flat buffers ------------------------------------------------------------


def _trees_in_use():
    """One tree of every kind the package builds, at arm3 sizes."""
    from lapal import adversary, latentact, sacgen

    agent = sacgen.SacAgent(15, 2, sacgen.SacConfig(), 0)
    codec = latentact.make_codec("arm3", latentact.CVAEConfig(latent_dim=2), 1)
    disc = adversary.make_discriminator(
        adversary.DiscComposition("arm3", "latent", 15, 2), (64, 64), 2)
    return {"critic": agent.critics.member(0), "critics": agent.critics, "actor": agent.actor,
            "encoder": codec.encoder, "decoder": codec.decoder, "discriminator": disc.tree}


def _same_bits(tree, ref):
    return tree.step == ref.step and all(
        getattr(l, name).tobytes() == getattr(r, name).tobytes()
        for l, r in zip(tree.layers, ref.layers) for name in perarray.NAMES)


@pytest.mark.parametrize("kind", ["critic", "critics", "actor", "encoder", "decoder",
                                  "discriminator"])
def test_flat_adam_matches_per_array_oracle(kind):
    tree = _trees_in_use()[kind]
    ref = perarray.Tree(tree)
    rng = np.random.default_rng(31)
    for _ in range(20):
        y = tree.forward(rng.standard_normal((16, tree.spec.input_dim)), record=True)
        tree.backward(rng.standard_normal(y.shape))
        ref.take_grads(tree)
        perarray.adam_step(ref, lr=1e-2)
        tree.adam_step(lr=1e-2)
    assert _same_bits(tree, ref)


def test_flat_polyak_matches_per_array_oracle():
    from lapal import sacgen

    agent = sacgen.SacAgent(15, 2, sacgen.SacConfig(), 3)
    rng = np.random.default_rng(32)
    agent.critics.params += rng.standard_normal(agent.critics.params.size)
    pairs = [(perarray.Tree(agent.critics), perarray.Tree(agent.targets))]
    for _ in range(20):
        sacgen.polyak_update(agent, 0.05)
        perarray.polyak_update(pairs, 0.05)
    assert _same_bits(agent.targets, pairs[0][1])


def test_layer_arrays_are_views_of_flat_buffers():
    tree = ParamTree.init(MLPSpec(3, (4,), 2), np.random.default_rng(0))
    tree.layers[1].w[2, 1] = 7.5
    assert tree.params[3 * 4 + 4 + 2 * 2 + 1] == 7.5
    tree.layers[0].gb[...] = 1.0
    assert np.array_equal(tree.grads[12:16], np.ones(4))
    for l in tree.layers:
        for bufname, names in (("params", "w b"), ("grads", "gw gb"),
                               ("m", "mw mb"), ("v", "vw vb")):
            for name in names.split():
                assert np.shares_memory(getattr(l, name), getattr(tree, bufname))
    clone = tree.copy()
    for a in (tree.params, tree.grads, tree.m, tree.v):
        for b in (clone.params, clone.grads, clone.m, clone.v):
            assert not np.shares_memory(a, b)
    clone.layers[0].w[...] = 0.0
    assert np.any(tree.layers[0].w != 0.0)


# -- in-place layer kernels --------------------------------------------------

# REPO_SPECS plus the activation branches they leave out
KERNEL_SPECS = REPO_SPECS + [
    MLPSpec(5, (7,), 2, activation="identity"),
    MLPSpec(5, (7, 6), 2, activation="tanh", output_activation="tanh"),
    MLPSpec(5, (7,), 4, activation="relu", output_activation="tanh"),
]


def _kernel_case(spec, batch, seed):
    """A tree with random weights and biases (some exactly +-0.0) and inputs
    with +-0.0 entries, all-zero rows (so first-layer units with a zero bias
    see exactly 0.0) and rows large enough to saturate tanh."""
    rng = np.random.default_rng(seed)
    tree = ParamTree.init(spec, rng)
    for l in tree.layers:
        l.b[...] = rng.standard_normal(l.b.size)
        l.b[::3] = 0.0
        l.b[1::3] = -0.0
    x = rng.standard_normal((batch, spec.input_dim))
    x[:, 0] = 0.0
    x[:, -1] = -0.0
    x[1::4] *= 1e3
    x[2::7] = 0.0
    x[3::7] = -0.0
    up = rng.standard_normal((batch, spec.output_dim))
    up[::5] = -0.0
    return tree, x, up


def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("accumulate", [True, False])
@pytest.mark.parametrize("batch", [1, 128])
@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=lambda s: s.canonical())
def test_kernels_match_out_of_place_oracle(spec, batch, accumulate):
    tree, x, up = _kernel_case(spec, batch, seed=batch)
    float64(tree)
    tree.grads[...] = np.random.default_rng(5).standard_normal(tree.grads.size)
    ref = outofplace.Net(tree)
    for xs, ups in ((x, up), (x[:1], up[:1])):
        assert _same(tree.forward(xs, record=True), ref.forward(xs, record=True))
        assert _same(tree.backward(ups, accumulate)[0], ref.backward(ups, accumulate))
    for l, r in zip(tree.layers, ref.layers):
        assert _same(l.gw, r.gw) and _same(l.gb, r.gb)


@pytest.mark.parametrize("precision", ["float64", "float32"])
@pytest.mark.parametrize("batch", [1, 128])
@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=lambda s: s.canonical())
def test_skipped_input_gradient_keeps_parameter_gradients(spec, batch, precision):
    tree, x, up = _kernel_case(spec, batch, seed=batch)
    if precision == "float64":
        float64(tree)
    twin, ref = tree.copy(), outofplace.Net(tree)
    tree.forward(x, record=True)
    assert tree.backward(up, input_grad=False) is None
    twin.forward(x, record=True)
    twin.backward(up)
    assert _same(tree.grads, twin.grads)
    if precision == "float64":
        ref.forward(x, record=True)
        ref.backward(up)
        assert _same(tree.grads, np.concatenate(
            [r for l in ref.layers for r in (l.gw.ravel(), l.gb)]))


@pytest.mark.parametrize("precision", ["float64", "float32"])
@pytest.mark.parametrize("batch", [1, 128])
@pytest.mark.parametrize("hidden", [(16, 12), (1, 12)])
def test_width_one_layer_backward_equals_matmul(hidden, batch, precision):
    # a critic or discriminator head (and, with hidden width 1, a first layer
    # whose broadcast gradient is the returned input gradient) against
    # `d @ w.T` in the tree's dtype, bit for bit, -0.0 included
    tree, x, up = _kernel_case(MLPSpec(8, hidden, 1, activation="relu"), batch, seed=6)
    if precision == "float64":
        float64(tree)
    weights = [(l.w.astype(tree.dtype), l.b.astype(tree.dtype)) for l in tree.layers]
    hs = [x.astype(tree.dtype)]
    for w, b in weights[:-1]:
        hs.append(np.maximum(hs[-1] @ w + b, 0.0))
    d, grads = up.astype(tree.dtype), []
    for i in range(len(weights) - 1, -1, -1):
        grads[:0] = [hs[i].T @ d, d.sum(axis=0)]
        d = d @ weights[i][0].T
        if i > 0:
            d = d * (hs[i] > 0.0)
    tree.forward(x, record=True)
    assert _same(tree.backward(up)[0], d.astype(np.float64))
    assert _same(tree.grads, np.concatenate([g.ravel() for g in grads]))


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=lambda s: s.canonical())
def test_forward_matches_oracle_on_nonfinite_rows(spec):
    tree, x, _ = _kernel_case(spec, 8, seed=3)
    float64(tree)
    x[2, 1] = np.inf
    x[3, 0] = -np.inf
    x[4, -1] = np.nan
    x[5] = [np.inf, -np.inf, np.nan] * (spec.input_dim // 3) + [np.nan] * (spec.input_dim % 3)
    ref = outofplace.Net(tree)
    with np.errstate(invalid="ignore"):
        y = tree.forward(x)
        assert _same(y, ref.forward(x))
    assert not np.isfinite(y[2:6]).all() and np.isfinite(y[6:]).all()


@pytest.mark.parametrize("out_act", nncore.OUTPUT_ACTIVATIONS)
@pytest.mark.parametrize("act", nncore.ACTIVATIONS)
def test_activations_match_oracle_on_special_values(act, out_act):
    # 1-1-1 network with unit weights and -0.0 biases, so the special values
    # reach the hidden activation (the matmul turns a -0.0 input into +0.0)
    tree = float64(ParamTree(MLPSpec(1, (1,), 1, activation=act,
                                           output_activation=out_act)))
    for l in tree.layers:
        l.w[...] = 1.0
        l.b[...] = -0.0
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308,
                1.5, -1.5, 40.0, -40.0]
    x = np.array(specials)[:, None]
    ref = outofplace.Net(tree)
    with np.errstate(invalid="ignore", over="ignore"):
        assert _same(tree.forward(x, record=True), ref.forward(x, record=True))
        up = np.ones_like(x)
        assert _same(tree.backward(up)[0], ref.backward(up))
    assert _same(tree.grads, np.concatenate([r for l in ref.layers for r in (l.gw.ravel(), l.gb)]))


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=lambda s: s.canonical())
def test_kernels_leave_inputs_and_tape_alone(spec):
    tree, x, up = _kernel_case(spec, 16, seed=4)
    x_before, up_before = x.copy(), up.copy()
    twin = tree.copy()
    tree.forward(x, record=True)
    tree.forward(np.ones_like(x))  # unrecorded, on other data
    (dx,) = tree.backward(up)
    assert _same(x, x_before) and _same(up, up_before)
    twin.forward(x, record=True)
    assert _same(dx, twin.backward(up)[0]) and _same(tree.grads, twin.grads)


@pytest.mark.parametrize("precision", ["float64", "float32"])
@pytest.mark.parametrize("spec", REPO_SPECS, ids=lambda s: s.canonical())
def test_column_blocks_are_the_joined_rows(spec, precision):
    # blocks of widths 1, 2 and the rest, given as float64 arrays, run as their
    # joined rows would; backward hands back each block's columns of the
    # joined input gradient
    tree, x, up = _kernel_case(spec, 16, seed=8)
    if precision == "float64":
        float64(tree)
    twin = tree.copy()
    blocks = (x[:, :1], x[:, 1:3], x[:, 3:])
    assert _same(tree.forward(*blocks, record=True), twin.forward(x, record=True))
    grads, (joined,) = tree.backward(up), twin.backward(up)
    assert [g.shape for g in grads] == [b.shape for b in blocks]
    assert _same(np.hstack(grads), joined) and _same(tree.grads, twin.grads)
    tree.forward(*blocks, record=True)
    assert tree.backward(up, input_grad=False) is None


def test_blocks_that_do_not_make_rows_raise():
    tree = ParamTree(MLPSpec(3, (4,), 2))
    for blocks in ((np.zeros((2, 1)), np.zeros((2, 1))), (np.zeros((2, 1)), np.zeros((2, 3))),
                   (np.zeros(1), np.zeros(2))):
        with pytest.raises(ConfigError):
            tree.forward(*blocks)
    with pytest.raises(ValueError):  # rows that do not line up
        tree.forward(np.zeros((2, 1)), np.zeros((3, 2)))
    tree.forward(np.zeros((2, 1)), np.zeros((2, 2)), record=True)
    with pytest.raises(ConfigError):  # one-row upstream for a two-row forward
        tree.backward(np.ones(2))


@pytest.mark.parametrize("clone", ["pickle", "deepcopy"])
def test_pickled_and_deep_copied_trees_still_train(clone):
    # the layer arrays must view the clone's own flat vectors, or backward
    # accumulates into detached arrays and Adam never moves the weights
    tree, x, up = _kernel_case(MLPSpec(6, (16, 16), 8), 16, seed=9)
    tree.forward(x, record=True)
    tree.backward(up)
    tree.adam_step(lr=1e-2)
    twin = pickle.loads(pickle.dumps(tree)) if clone == "pickle" else copy.deepcopy(tree)
    ref = tree.copy()
    for t in (twin, ref):
        assert all(np.shares_memory(l.w, t.params) and np.shares_memory(l.gb, t.grads)
                   for l in t.layers)
        assert _same(t.forward(x, record=True), ref.forward(x))
        t.backward(up)
        assert t.grads.any()
        t.adam_step(lr=1e-2)
    assert twin.step == ref.step == 2 and twin.dtype == ref.dtype
    for name in ("params", "grads", "m", "v"):
        assert _same(getattr(twin, name), getattr(ref, name))
    assert not _same(twin.params, tree.params)


# -- stacked trees and activation buffers -------------------------------------

# relu, leaky_relu and tanh hidden layers; width-1, identity and tanh outputs
STACK_SPECS = [
    MLPSpec(9, (16, 12), 1, activation="relu"),
    MLPSpec(9, (16, 12), 6, activation="relu"),
    MLPSpec(9, (16,), 4, activation="leaky_relu", output_activation="tanh"),
    MLPSpec(9, (12, 8), 1, activation="tanh"),
]


def _twins(spec, precision, seed=0):
    """A copies=2 tree and the two one-copy trees it stacks, with random
    biases (some +-0.0), so every copy differs from the other."""
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    stacked = ParamTree.init(spec, rng, copies=2)
    ones = [ParamTree.init(spec, ref), ParamTree.init(spec, ref)]
    assert _same(stacked.params, np.concatenate([t.params for t in ones]))
    for t in ones:
        for l in t.layers:
            l.b[...] = ref.standard_normal(l.b.size)
            l.b[::3] = 0.0
            l.b[1::3] = -0.0
    stacked.params[...] = np.concatenate([t.params for t in ones])
    if precision == "float64":
        float64(stacked)
        for t in ones:
            float64(t)
    assert stacked.copies == 2 and stacked.dtype == ones[0].dtype
    return stacked, ones


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("spec", STACK_SPECS, ids=lambda s: s.canonical())
def test_stacked_tree_matches_one_copy_trees(spec, precision):
    stacked, ones = _twins(spec, precision)
    for l, o in zip(stacked.layers, ones[0].layers):
        assert l.w.shape == (2,) + o.w.shape and l.b.shape == (2, 1) + o.b.shape
        assert l.gw.shape == l.mw.shape == l.w.shape and l.gb.shape == l.vb.shape == l.b.shape
    rng = np.random.default_rng(1)
    x = _kernel_case(spec, 128, seed=2)[1]
    blocks = (x[:, :4], x[:, 4:])
    for accumulate, input_grad in ((True, True), (False, True), (True, False)):
        up = rng.standard_normal((2, 128, spec.output_dim))
        y = stacked.forward(*blocks, record=True)
        assert y.shape == (2, 128, spec.output_dim)
        got = stacked.backward(up, accumulate=accumulate, input_grad=input_grad)
        for j, t in enumerate(ones):
            assert _same(y[j], t.forward(*blocks, record=True))
            want = t.backward(up[j], accumulate=accumulate, input_grad=input_grad)
            if input_grad:
                assert all(_same(g[j], w) for g, w in zip(got, want))
            else:
                assert got is want is None
    assert stacked.grads.any()
    assert _same(stacked.grads, np.concatenate([t.grads for t in ones]))
    for step in range(120):  # crosses FLUSH_EVERY
        up = rng.standard_normal((2, 16, spec.output_dim))
        stacked.forward(x[:16], record=True)
        stacked.backward(up)
        stacked.adam_step(lr=1e-2)
        for j, t in enumerate(ones):
            t.forward(x[:16], record=True)
            t.backward(up[j])
            t.adam_step(lr=1e-2)
    for name in ("params", "grads", "m", "v"):
        assert _same(getattr(stacked, name), np.concatenate([getattr(t, name) for t in ones]))
    target, targets = stacked.copy(), [t.copy() for t in ones]
    stacked.params += 0.1
    for t in ones:
        t.params += 0.1
    for _ in range(3):  # Polyak averaging as sacgen writes it
        target.params += 0.05 * (stacked.params - target.params)
        for t, c in zip(targets, ones):
            t.params += 0.05 * (c.params - t.params)
    assert _same(target.params, np.concatenate([t.params for t in targets]))
    for j, t in enumerate(ones):
        member = stacked.member(j)
        assert member.copies == 1 and member.step == t.step == stacked.step == 120
        assert member.digest() == t.digest() and _same(member.params, t.params)
        assert not np.shares_memory(member.params, stacked.params)


@pytest.mark.parametrize("spec", STACK_SPECS[:3], ids=lambda s: s.canonical())
def test_stacked_tree_matches_out_of_place_oracle(spec):
    stacked, _ = _twins(spec, "float64")
    stacked.grads[...] = np.random.default_rng(5).standard_normal(stacked.grads.size)
    ref = outofplace.Net(stacked)
    x, up = _kernel_case(spec, 32, seed=3)[1], np.random.default_rng(4).standard_normal(
        (2, 32, spec.output_dim))
    assert _same(stacked.forward(x, record=True), ref.forward(x, record=True))
    assert _same(stacked.backward(up)[0], ref.backward(up))
    for l, r in zip(stacked.layers, ref.layers):
        assert _same(l.gw, r.gw) and _same(l.gb, r.gb)


def test_init_copies_is_successive_inits():
    spec = MLPSpec(5, (7, 6), 3)
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    stacked = ParamTree.init(spec, rng, copies=3)
    for j in range(3):
        one = ParamTree.init(spec, ref)
        assert _same(stacked.member(j).params, one.params)
        assert stacked.member(j).digest() == one.digest()
        assert all(_same(l.w[j], o.w) for l, o in zip(stacked.layers, one.layers))
    assert rng.bit_generator.state == ref.bit_generator.state
    single = ParamTree.init(spec, np.random.default_rng(8), copies=1)
    assert [l.w.shape for l in single.layers] == [(5, 7), (7, 6), (6, 3)]
    assert [l.b.shape for l in single.layers] == [(7,), (6,), (3,)]


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("spec", STACK_SPECS, ids=lambda s: s.canonical())
def test_stacked_input_slices_match_per_slice_passes(spec, precision):
    tree, x, _ = _kernel_case(spec, 64, seed=7)
    if precision == "float64":
        float64(tree)
    xs = np.stack([x, x[::-1] * 0.5, -x])
    up = np.random.default_rng(8).standard_normal((3, 64, spec.output_dim))
    twin = tree.copy()
    y = tree.forward(xs[:, :, :2], xs[:, :, 2:], record=True)
    assert y.shape == (3, 64, spec.output_dim)
    for j in range(3):
        assert _same(y[j], twin.forward(xs[j]))
    for j in (1, 2):
        tree.forward(xs[:, :, :2], xs[:, :, 2:], record=True)
        got = tree.backward(up[j], part=j)
        twin.forward(xs[j, :, :2], xs[j, :, 2:], record=True)
        want = twin.backward(up[j])
        assert all(_same(g, w) for g, w in zip(got, want))
        assert _same(tree.grads, twin.grads)
    tree.forward(xs, record=True)
    with pytest.raises(ConfigError, match="part"):
        tree.backward(up)
    tree.forward(x, record=True)
    with pytest.raises(ConfigError, match="part"):
        tree.backward(up[0], part=0)


def test_recorded_forwards_reuse_activation_buffers():
    # 128, then 256, then 128 rows: each shape keeps its own buffers and every
    # pass gives the bits of a fresh tree's
    spec = MLPSpec(9, (16, 12), 3, activation="tanh")
    tree, x, _ = _kernel_case(spec, 256, seed=10)
    up = np.random.default_rng(11).standard_normal((256, 3))
    tapes = []
    for n in (128, 256, 128):
        fresh = tree.copy()
        assert _same(tree.forward(x[:n], record=True), fresh.forward(x[:n], record=True))
        tapes.append(tree._tape[0])
        assert _same(tree.backward(up[:n])[0], fresh.backward(up[:n])[0])
        assert _same(tree.grads, fresh.grads)
        tree.grads[...] = 0.0
    assert all(np.shares_memory(a, b) for a, b in zip(tapes[0][1:], tapes[2][1:]))
    assert not any(np.shares_memory(a, b) for a in tapes[0] for b in tapes[1])
    tree.forward(x[:128])  # unrecorded forwards allocate
    assert not any(np.shares_memory(tree.forward(x[:128]), a) for a in tapes[0])


@pytest.mark.parametrize("clone", ["copy", "pickle", "deepcopy"])
def test_clones_share_no_activation_buffer(clone):
    rng = np.random.default_rng(12)
    tree = ParamTree.init(MLPSpec(6, (16, 16), 8), rng, copies=2)
    x, up = rng.standard_normal((16, 6)), rng.standard_normal((2, 16, 8))
    tree.forward(x, record=True)
    mine = tree._tape[0][1:]
    twin = {"copy": tree.copy, "pickle": lambda: pickle.loads(pickle.dumps(tree)),
            "deepcopy": lambda: copy.deepcopy(tree)}[clone]()
    assert twin.copies == 2 and twin._tape is None
    twin.forward(x, record=True)
    assert not any(np.shares_memory(a, b) for a in mine for b in twin._tape[0])
    twin.backward(up)
    twin.adam_step(lr=1e-2)
    tree.backward(up)
    tree.adam_step(lr=1e-2)
    assert _same(twin.params, tree.params) and twin.step == tree.step == 1


def test_tree_state_refuses_a_stacked_tree():
    with pytest.raises(ConfigError, match="stacks 2"):
        nncore.tree_state(ParamTree(MLPSpec(3, (4,), 1), copies=2), "critics")


def test_sigmoid_on_special_values():
    # the two-branch form without boolean masks: every non-NaN value keeps the
    # bits of the masked gathers and scatters it replaced
    x = np.concatenate([np.random.default_rng(13).standard_normal(400_000) * 40.0,
                        [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 1e-300, -1e-300,
                         np.nan, -np.nan]])
    want = np.empty_like(x)
    pos = x >= 0
    with np.errstate(over="ignore", invalid="ignore"):
        want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        want[~pos] = np.exp(x[~pos]) / (1.0 + np.exp(x[~pos]))
        got = nncore.sigmoid(x)
    assert np.array_equal(got, want, equal_nan=True) and np.isnan(got[-2:]).all()
    assert got[:-2].tobytes() == want[:-2].tobytes()  # only a NaN's sign bit may differ
    assert got[-10:-4].tolist() == [0.5, 0.5, 1.0, 0.0, 1.0, 0.0]


# float32 passes against the float64 reference: every entry of the output,
# the input gradient and the accumulated parameter gradients lies within
# F32_RTOL of the float64 value, relative to the largest magnitude in its array
# (measured: at most 5.3e-7)
F32_RTOL = 1e-4


def _scaled_close(got, ref):
    np.testing.assert_allclose(got, ref, rtol=0, atol=F32_RTOL * np.max(np.abs(ref)))


@pytest.mark.parametrize("batch", [1, 128])
@pytest.mark.parametrize("case", [pytest.param(s, id=s.canonical()) for s in REPO_SPECS]
                         + ["critic", "actor", "encoder", "decoder", "discriminator"])
def test_float32_passes_match_float64_reference(case, batch):
    rng = np.random.default_rng(batch)
    tree = _trees_in_use()[case] if isinstance(case, str) else ParamTree.init(case, rng)
    assert tree.dtype == np.float32
    tree.params += 0.1 * rng.standard_normal(tree.params.size)  # non-zero biases
    tree.grads[...] = rng.standard_normal(tree.grads.size)
    ref = float64(tree.copy())
    x = rng.standard_normal((batch, tree.spec.input_dim))
    up = rng.standard_normal((batch, tree.spec.output_dim))
    y, y_ref = tree.forward(x, record=True), ref.forward(x, record=True)
    (dx,), (dx_ref,) = tree.backward(up), ref.backward(up)
    assert y.dtype == dx.dtype == np.float64 and tree.grads.dtype == np.float32
    for got, want in ((y, y_ref), (dx, dx_ref), (tree.grads, ref.grads)):
        _scaled_close(got, want)
    assert tree.params.astype(np.float64).tobytes() == ref.params.tobytes()


def test_adam_step_refuses_a_pending_tape():
    # a backward must run on the weights of its own forward, so no step may
    # move them in between; the refused step changes nothing
    tree = ParamTree.init(MLPSpec(3, (8,), 2), np.random.default_rng(0))
    twin = tree.copy()
    x, up = np.ones((4, 3)), np.ones((4, 2))
    for t in (tree, twin):
        t.forward(x, record=True)
        t.backward(up)
        t.adam_step(lr=1e-2)
    tree.forward(x, record=True)
    tree.grads[...] = 1.0
    before = [b.tobytes() for b in (tree.params, tree.grads, tree.m, tree.v)]
    with pytest.raises(StateError, match="awaits its backward"):
        tree.adam_step(lr=1e-2)
    assert [b.tobytes() for b in (tree.params, tree.grads, tree.m, tree.v)] == before
    assert tree.step == 1
    tree.grads[...] = 0.0
    twin.forward(x, record=True)
    assert _same(tree.backward(up)[0], twin.backward(up)[0]) and _same(tree.grads, twin.grads)
    tree.adam_step(lr=1e-2)
    twin.adam_step(lr=1e-2)
    assert _same(tree.params, twin.params) and tree.step == twin.step == 2


def test_adam_step_flushes_moments_stuck_at_subnormals(monkeypatch):
    # a moment whose gradient stays 0 decays to a few ulps above 0 and stays
    # there (0.9 and 0.999 times 3 ulps round back to 3 ulps); every
    # FLUSH_EVERY-th step sets those to 0 and leaves the rest as it was
    tree = ParamTree.init(MLPSpec(3, (8,), 2), np.random.default_rng(0))
    stuck = np.float32(3 * 2.0 ** -149)
    tree.m[:5] = stuck * np.array([1, -1, 1, 1, -1], np.float32)
    tree.v[:5] = stuck
    twin = tree.copy()
    grads = np.random.default_rng(1).standard_normal((nncore.FLUSH_EVERY, tree.params.size))
    grads[:, :5] = 0.0
    with monkeypatch.context() as mp:
        mp.setattr(nncore, "FLUSH_EVERY", 10 ** 9)
        for g in grads:
            twin.grads[...] = g
            twin.adam_step(lr=1e-2)
    for g in grads:
        assert _same(tree.m[:5], twin.m[:5]) and _same(tree.v[:5], twin.v[:5])
        tree.grads[...] = g
        tree.adam_step(lr=1e-2)
    assert tree.step == nncore.FLUSH_EVERY and np.all(twin.m[:5] != 0)
    assert not tree.m[:5].any() and not tree.v[:5].any()
    assert _same(tree.m[5:], twin.m[5:]) and _same(tree.v[5:], twin.v[5:])
    assert _same(tree.params, twin.params)


def test_forward_backward_accept_array_likes():
    tree = ParamTree.init(MLPSpec(2, (4,), 1), np.random.default_rng(0))
    twin = tree.copy()
    y = tree.forward([[0.1, 0.2]], record=True)
    assert y.shape == (1, 1) and _same(y, twin.forward(np.array([[0.1, 0.2]]), record=True))
    assert _same(tree.backward([[1.0]])[0], twin.backward(np.array([[1.0]]))[0])
    tree.forward([[0.1]], [[0.2]], record=True)
    twin.forward(np.array([[0.1, 0.2]]), record=True)
    assert _same(np.hstack(tree.backward([[1.0]])), twin.backward(np.array([[1.0]]))[0])
    assert _same(tree.grads, twin.grads)


# -- Gaussians ---------------------------------------------------------------


def test_gaussian_sample_zero_noise_is_mean():
    d = GaussianDist(np.array([1.0, -2.0]), np.array([0.3, -0.7]))
    np.testing.assert_array_equal(d.sample(np.zeros(2)), d.mean)


def test_gaussian_sample_unit_logstd():
    d = GaussianDist(np.array([1.0, 2.0]), np.zeros(2))
    np.testing.assert_allclose(d.sample(np.array([1.0, -1.0])), [2.0, 1.0])


def test_gaussian_sample_monte_carlo_mean():
    n = 100_000
    d = GaussianDist(np.full((n, 2), [0.4, -1.2]), np.full((n, 2), 0.1))
    rng = np.random.default_rng(0)
    s = d.sample(rng.standard_normal((n, 2)))
    sigma = np.exp(0.1)
    tol = 3.0 * sigma / np.sqrt(n)
    assert np.all(np.abs(s.mean(axis=0) - [0.4, -1.2]) < tol)


def gaussian_kl_to_standard(d: GaussianDist) -> float:
    return float(np.sum(d.kl_to_standard()))


def test_kl_standard_cases():
    assert gaussian_kl_to_standard(GaussianDist(np.zeros(3), np.zeros(3))) == 0.0
    assert gaussian_kl_to_standard(
        GaussianDist(np.array([1.0]), np.array([0.0]))
    ) == pytest.approx(0.5)


def test_kl_matches_monte_carlo():
    rng = np.random.default_rng(12)
    mean = rng.uniform(-1, 1, 3)
    log_std = rng.uniform(-0.8, 0.5, 3)
    d = GaussianDist(mean, log_std)
    closed = gaussian_kl_to_standard(d)
    n = 1_000_000
    z = rng.standard_normal((n, 3))
    x = mean + np.exp(log_std) * z
    log_q = (-0.5 * z**2 - log_std - 0.5 * np.log(2 * np.pi)).sum(axis=1)
    log_p = (-0.5 * x**2 - 0.5 * np.log(2 * np.pi)).sum(axis=1)
    mc = float(np.mean(log_q - log_p))
    assert abs(mc - closed) < 0.01 * max(1.0, abs(closed))


def test_kl_nonnegative_and_zero_iff_standard():
    rng = np.random.default_rng(3)
    for _ in range(200):
        d = GaussianDist(rng.uniform(-3, 3, 4), rng.uniform(-4, 1.5, 4))
        kl = gaussian_kl_to_standard(d)
        assert kl >= 0.0
        if kl == 0.0:
            assert np.allclose(d.mean, 0.0) and np.allclose(d.log_std, 0.0)


def test_gaussian_log_std_clamped():
    d = GaussianDist(np.zeros(2), np.array([-50.0, 50.0]))
    assert d.log_std[0] == nncore.LOG_STD_MIN
    assert d.log_std[1] == nncore.LOG_STD_MAX
    assert np.all(d.std > 0)


def test_gaussian_head_split_and_mask():
    raw = np.array([[0.5, -0.5, 0.0, 25.0]])
    d, mask = nncore.gaussian_head(raw)
    np.testing.assert_array_equal(d.mean, [[0.5, -0.5]])
    assert d.log_std[0, 1] == nncore.LOG_STD_MAX
    np.testing.assert_array_equal(mask, [[1.0, 0.0]])


# -- checkpoint form of a tree ----------------------------------------------


def save_tree(path, tree):
    header, arrays = nncore.tree_state(tree, "net")
    header.update(kind="tree", env_id="pointmass",
                  env_digest=envsim.env_spec("pointmass").digest())
    configio.write_checkpoint(path, header, arrays)


def load_tree(path, spec):
    return configio.read_checkpoint(
        path, "tree", lambda h, a: nncore.tree_from_state(spec, h, a, "net"))


def test_tree_state_round_trip(tmp_path):
    spec = MLPSpec(3, (8, 8), 2, activation="leaky_relu")
    tree = ParamTree.init(spec, np.random.default_rng(9))
    rng = np.random.default_rng(10)
    for _ in range(3):
        tree.forward(rng.standard_normal((4, 3)), record=True)
        tree.backward(rng.standard_normal((4, 2)))
        tree.adam_step(lr=1e-3)
    save_tree(tmp_path / "a", tree)
    back = load_tree(tmp_path / "a", spec)
    assert back.step == tree.step
    np.testing.assert_array_equal(back.params, tree.params)
    for la, lb in zip(tree.layers, back.layers):
        np.testing.assert_array_equal(la.mw, lb.mw)
        np.testing.assert_array_equal(la.vb, lb.vb)
    for name in ("params", "m", "v"):
        assert getattr(back, name).tobytes() == getattr(tree, name).tobytes()
    back.layers[0].w[0, 0] = 123.0  # the loaded layers are views of its buffers
    assert back.params[0] == 123.0
    # byte determinism
    save_tree(tmp_path / "b", tree)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


@pytest.mark.parametrize("buffer", ["params", "m", "v"])
@pytest.mark.parametrize("value", [0.1, 1e300, -1e-300, 2.0 ** -150])
def test_tree_state_rejects_values_the_dtype_cannot_hold(tmp_path, buffer, value):
    # float64 trees save what they hold; a float32 tree refuses to round it,
    # so a file written with float64 master weights does not load
    spec = MLPSpec(3, (8,), 2)
    tree = float64(ParamTree.init(spec, np.random.default_rng(0)))
    save_tree(tmp_path / "a", tree)
    assert load_tree(tmp_path / "a", spec).digest() == ParamTree.init(
        spec, np.random.default_rng(0)).digest()
    getattr(tree, buffer)[5] = value
    save_tree(tmp_path / "b", tree)
    with pytest.raises(CheckpointError, match=rf"net\.{buffer} holds values that float32"):
        load_tree(tmp_path / "b", spec)


def test_tree_state_rejects_wrong_spec(tmp_path):
    spec = MLPSpec(3, (8,), 2)
    save_tree(tmp_path / "a", ParamTree.init(spec, np.random.default_rng(0)))
    with pytest.raises(CheckpointError):
        load_tree(tmp_path / "a", MLPSpec(3, (9,), 2))


def test_spec_validation():
    with pytest.raises(ConfigError):
        MLPSpec(3, (), 2)
    with pytest.raises(ConfigError):
        MLPSpec(3, (4,), 2, activation="gelu")
    with pytest.raises(ConfigError):
        MLPSpec(0, (4,), 2)
