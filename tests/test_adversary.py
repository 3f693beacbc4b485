import math

import numpy as np
import pytest

import oracle
from conftest import assert_grads_close, fd_loss_gradient, float64
from lapal import adversary
from lapal.adversary import (
    DiscComposition,
    Discriminator,
    disc_logit,
    disc_loss,
    disc_loss_and_grad,
    disc_reward,
    make_discriminator,
)
from lapal.errors import CheckpointError, ConfigError
from lapal.nncore import MLPSpec, ParamTree, sigmoid


def disc_prob(d, states, actions):
    return sigmoid(disc_logit(d, states, actions))


def tiny_disc(seed=0, state_dim=3, u_dim=2, hidden=(16, 16)):
    comp = DiscComposition(env_id="pointmass", input_kind="raw",
                           state_dim=state_dim, u_dim=u_dim)
    return make_discriminator(comp, hidden, seed)


def test_zero_weight_logit_is_half_probability():
    d = tiny_disc()
    for layer in d.tree.layers:
        layer.w[...] = 0.0
        layer.b[...] = 0.0
    s, u = np.zeros((4, 3)), np.ones((4, 2))
    assert np.all(disc_logit(d, s, u) == 0.0)
    np.testing.assert_allclose(disc_prob(d, s, u), 0.5)


def test_logit_pure_function():
    d = tiny_disc(1)
    rng = np.random.default_rng(2)
    s, u = rng.standard_normal((5, 3)), rng.standard_normal((5, 2))
    np.testing.assert_array_equal(disc_logit(d, s, u), disc_logit(d, s, u))


def test_logit_matches_straight_line_oracle():
    d = float64(tiny_disc(3, hidden=(8,)))
    rng = np.random.default_rng(4)
    s, u = rng.standard_normal((1, 3)), rng.standard_normal((1, 2))
    x = np.concatenate([s, u], axis=1)
    l0, l1 = d.tree.layers
    expect = np.tanh(x @ l0.w + l0.b) @ l1.w + l1.b
    assert disc_logit(d, s, u)[0] == pytest.approx(expect[0, 0], rel=1e-14)


def test_dim_mismatch_rejected():
    d = tiny_disc()
    with pytest.raises(ConfigError):
        disc_logit(d, np.zeros((2, 3)), np.zeros((2, 5)))


def test_uninformed_loss_is_log4():
    d = tiny_disc()
    for layer in d.tree.layers:
        layer.w[...] = 0.0
        layer.b[...] = 0.0
    batch = (np.zeros((8, 3)), np.zeros((8, 2)))
    assert disc_loss(d, batch, batch) == pytest.approx(math.log(4.0), abs=1e-12)


def test_reward_closed_forms():
    d = tiny_disc()
    # force specific logits through the final bias
    for layer in d.tree.layers:
        layer.w[...] = 0.0
        layer.b[...] = 0.0
    s, u = np.zeros((1, 3)), np.zeros((1, 2))
    d.tree.layers[-1].b[...] = 0.0
    assert disc_reward(d, s, u)[0] == pytest.approx(math.log(2.0), abs=1e-15)
    d.tree.layers[-1].b[...] = -20.0
    assert disc_reward(d, s, u)[0] == pytest.approx(2.0611536181902037e-09, rel=1e-9)
    d.tree.layers[-1].b[...] = 3.0
    # identity: softplus(3) == -log(1 - sigmoid(3)), evaluated at high precision
    import mpmath

    mpmath.mp.dps = 40
    expect = float(-mpmath.log(1 - mpmath.mpf(1) / (1 + mpmath.e**-3)))
    assert disc_reward(d, s, u)[0] == pytest.approx(expect, rel=1e-14)


def test_reward_nonnegative_and_finite_fuzz():
    d = tiny_disc(7)
    d.tree.layers[-1].w *= 40.0  # exaggerate logits
    rng = np.random.default_rng(8)
    r = disc_reward(d, rng.standard_normal((500, 3)) * 5, rng.standard_normal((500, 2)) * 5)
    assert np.all(r >= 0.0) and np.all(np.isfinite(r))


def test_gradients_match_finite_differences():
    d = float64(tiny_disc(9, hidden=(12, 12)))
    rng = np.random.default_rng(10)
    expert = (rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
    agent = (rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
    disc_loss_and_grad(d, expert, agent)

    def loss_fn():
        return disc_loss(d, expert, agent)

    _, fd, analytic = fd_loss_gradient(loss_fn, d.tree, n_probes=100, seed=11)
    assert_grads_close(fd, analytic, rtol=1e-4)


def test_input_gradients_match_finite_differences():
    d = float64(tiny_disc(12, hidden=(10,)))
    rng = np.random.default_rng(13)
    expert = (rng.standard_normal((3, 3)), rng.standard_normal((3, 2)))
    agent = (rng.standard_normal((3, 3)), rng.standard_normal((3, 2)))
    _, d_in = disc_loss_and_grad(d, expert, agent, want_input_grads=True)
    assert [g.shape for g in d_in] == [(6, 3), (6, 2)]
    ga = d_in[1][3:]
    h = 1e-6
    # probe a few coordinates of the agent action inputs
    for row, col in ((0, 0), (1, 1), (2, 0)):
        up = (agent[0], agent[1].copy())
        dn = (agent[0], agent[1].copy())
        up[1][row, col] += h
        dn[1][row, col] -= h
        fd = (disc_loss(d, expert, up) - disc_loss(d, expert, dn)) / (2 * h)
        assert ga[row, col] == pytest.approx(fd, rel=1e-5, abs=1e-10)


def test_label_symmetry_one_step():
    # from a symmetric init (all logits zero), swapping the class labels
    # exactly negates every nonzero gradient, so the one-step parameter
    # deltas of the final layer are opposite; the final bias gradient is
    # label-invariant by construction (mean sigma - 1) and stays zero here
    rng = np.random.default_rng(14)
    expert = (rng.standard_normal((6, 3)), rng.standard_normal((6, 2)))
    agent = (rng.standard_normal((6, 3)), rng.standard_normal((6, 2)))

    def one_step(swap):
        d = float64(tiny_disc(15))
        d.tree.layers[-1].w[...] = 0.0
        d.tree.layers[-1].b[...] = 0.0
        a, b = (agent, expert) if swap else (expert, agent)
        disc_loss_and_grad(d, a, b)
        grad = d.tree.layers[-1].gw.copy()
        before = d.tree.layers[-1].w.copy()
        d.tree.adam_step(lr=1e-3)
        return grad, d.tree.layers[-1].w - before

    (g_fwd, d_fwd), (g_rev, d_rev) = one_step(False), one_step(True)
    np.testing.assert_allclose(g_fwd, -g_rev, atol=1e-15)
    nz = np.abs(d_fwd) > 0
    assert nz.any()
    np.testing.assert_allclose(d_fwd[nz], -d_rev[nz], rtol=1e-9)


def test_separable_batches_drive_loss_to_zero():
    d = tiny_disc(16, hidden=(16, 16))
    expert = (np.full((8, 3), 1.0), np.full((8, 2), 1.0))
    agent = (np.full((8, 3), -1.0), np.full((8, 2), -1.0))
    losses = []
    for _ in range(1500):
        losses.append(disc_loss_and_grad(d, expert, agent))
        d.tree.adam_step(lr=1e-3)
    assert losses[-1] < 0.05 < losses[0]


def test_discriminator_converges_to_density_ratio():
    """Train on two 8-point discrete distributions; sigmoid(logit) must match
    p_e/(p_e+p_t) at every support point and the objective must approach
    2 JS - log 4."""
    rng = np.random.default_rng(17)
    support_s = rng.standard_normal((8, 3))
    support_u = rng.standard_normal((8, 2))
    p_e = oracle.DiscreteDist.from_weights([8, 12, 4, 9, 6, 10, 7, 8])
    p_t = oracle.DiscreteDist.from_weights([3, 5, 14, 9, 12, 6, 10, 5])
    # exact-expectation batches: each point repeated per its 64ths weight
    idx_e = np.repeat(np.arange(8), (np.array(p_e.probs) * 64).astype(int))
    idx_t = np.repeat(np.arange(8), (np.array(p_t.probs) * 64).astype(int))
    expert = (support_s[idx_e], support_u[idx_e])
    agent = (support_s[idx_t], support_u[idx_t])
    d = tiny_disc(18, hidden=(32, 32))
    for _ in range(3000):
        disc_loss_and_grad(d, expert, agent)
        d.tree.adam_step(lr=3e-3)
    d_star, j_star = oracle.optimal_gan_objective(p_e, p_t)
    probs = disc_prob(d, support_s, support_u)
    assert np.max(np.abs(probs - d_star)) < 0.02
    achieved = -disc_loss(d, expert, agent)  # E[log D] + E[log(1-D)]
    assert achieved == pytest.approx(j_star, abs=0.01)


def test_checkpoint_round_trip_and_composition_guard(tmp_path):
    d = tiny_disc(19)
    rng = np.random.default_rng(20)
    disc_loss_and_grad(d, (rng.standard_normal((4, 3)), rng.standard_normal((4, 2))),
                       (rng.standard_normal((4, 3)), rng.standard_normal((4, 2))))
    d.tree.adam_step(lr=1e-3)
    path = tmp_path / "disc.ckpt"
    adversary.save_discriminator(path, d)
    adversary.save_discriminator(tmp_path / "disc2.ckpt", d)
    assert path.read_bytes() == (tmp_path / "disc2.ckpt").read_bytes()
    back = adversary.load_discriminator(path, expected=d.composition)
    assert back.digest() == d.digest()
    wrong = DiscComposition(env_id="pointmass", input_kind="latent",
                            state_dim=3, u_dim=2, codec_digest="f" * 64)
    with pytest.raises(CheckpointError):
        adversary.load_discriminator(path, expected=wrong)
