import dataclasses

import numpy as np
import pytest
import scipy.stats

from conftest import assert_grads_close, fd_loss_gradient, float64
from lapal import envsim, latentact, sacgen
from lapal.errors import ConfigError, StateError
from lapal.nncore import gaussian_head
from lapal.sacgen import (
    ReplayBuffer,
    SacAgent,
    SacConfig,
    act,
    actor_loss,
    actor_loss_and_grad,
    actor_update,
    critic_update,
    polyak_update,
    sample_with_log_prob,
)

SMALL = SacConfig(actor_hidden=(16, 16), critic_hidden=(16, 16))


def small_agent(seed=0, state_dim=4, u_dim=2, cfg=SMALL):
    return SacAgent(state_dim, u_dim, cfg, seed)


@pytest.mark.parametrize("field,value", [
    ("batch_size", 0), ("batch_size", -5), ("buffer_capacity", 0), ("tau", -0.1),
    ("tau", 1.5), ("gamma", 1.0), ("gamma", -0.5), ("actor_lr", -1e-3),
    ("critic_lr", float("nan")), ("alpha_lr", float("inf")), ("init_alpha", 0.0),
    ("init_alpha", -1.0), ("init_alpha", float("nan")),
])
def test_sac_config_rejects_values_that_cannot_train(field, value):
    with pytest.raises(ConfigError):
        SacConfig(**{field: value})


def test_zero_actor_deterministic_action_is_zero():
    agent = small_agent()
    for layer in agent.actor.layers:
        layer.w[...] = 0.0
        layer.b[...] = 0.0
    np.testing.assert_array_equal(act(agent.actor, np.ones((1, 4))), np.zeros((1, 2)))


def test_actions_strictly_inside_box_fuzz():
    agent = small_agent(1)
    agent.actor.layers[-1].w *= 30.0  # saturate the squash
    rng = np.random.default_rng(2)
    states = rng.standard_normal((100_000, 4)) * 5
    u, _, _, _ = sample_with_log_prob(agent, states, rng.standard_normal((100_000, 2)))
    assert np.all(u > -1.0) and np.all(u < 1.0)
    det = act(agent.actor, states[:100])
    assert np.all(det > -1.0) and np.all(det < 1.0)


def test_act_rows_match_one_row_calls():
    agent = float64(small_agent(8))
    rng = np.random.default_rng(9)
    feats, noise = rng.standard_normal((6, 4)), rng.standard_normal((6, 2))
    for eps in (None, noise):
        rows = act(agent.actor, feats, eps)
        assert rows.shape == (6, 2)
        for i in range(6):
            one = act(agent.actor, feats[i:i + 1], None if eps is None else eps[i:i + 1])
            np.testing.assert_allclose(rows[i:i + 1], one, rtol=0, atol=1e-12)
    dist = gaussian_head(agent.actor.forward(feats))[0]
    np.testing.assert_array_equal(act(agent.actor, feats, noise),
                                  sacgen.squash(dist.mean + dist.std * noise))
    with pytest.raises(ConfigError, match="noise"):
        act(agent.actor, feats, noise[:, :1])


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_collection_and_learner_draw_the_same_u(precision):
    """On arm3 features, `act` with noise is the learner's sample bit for bit,
    and without it the squashed mean half of the actor head."""
    feat_dim = envsim.feature_dim("arm3")
    agent = SacAgent(feat_dim, 3, SMALL, 30)
    if precision == "float64":
        float64(agent)
    f = envsim.feature_map("arm3", np.stack([envsim.env_reset("arm3", i) for i in range(7)]))
    noise = np.random.default_rng(31).standard_normal((7, 3))
    u = act(agent.actor, f, noise)
    assert u.tobytes() == sample_with_log_prob(agent, f, noise)[0].tobytes()
    mean = act(agent.actor, f)
    assert mean.tobytes() == sacgen.squash(agent.actor.forward(f)[:, :3]).tobytes()
    assert u.shape == mean.shape == (7, 3) and mean.tobytes() != u.tobytes()


def test_log_prob_matches_cdf_difference_oracle():
    """For a 1-D actor the squashed density must equal the numerical
    derivative of P(tanh(Z) <= u) with Z ~ N(mean, std)."""
    agent = small_agent(3, state_dim=3, u_dim=1)
    rng = np.random.default_rng(4)
    states = rng.standard_normal((64, 3))
    u, log_prob, _, _ = sample_with_log_prob(agent, states, rng.standard_normal((64, 1)))
    dist = gaussian_head(agent.actor.forward(states))[0]
    h = 1e-6
    for i in range(0, 64, 7):
        mu, sd = dist.mean[i, 0], dist.std[i, 0]
        cdf = lambda a: scipy.stats.norm.cdf((np.arctanh(a) - mu) / sd)
        dens = (cdf(u[i, 0] + h) - cdf(u[i, 0] - h)) / (2 * h)
        assert np.exp(log_prob[i]) == pytest.approx(dens, rel=1e-3)


def test_log_prob_integrates_to_one():
    agent = small_agent(5, state_dim=2, u_dim=1)
    state = np.tile(np.array([[0.3, -0.2]]), (1, 1))
    dist = gaussian_head(agent.actor.forward(state))[0]
    mu, sd = dist.mean[0, 0], dist.std[0, 0]
    grid = np.linspace(-1 + 1e-9, 1 - 1e-9, 200_001)
    z = np.arctanh(grid)
    log_gauss = -0.5 * ((z - mu) / sd) ** 2 - np.log(sd) - 0.5 * np.log(2 * np.pi)
    dens = np.exp(log_gauss) / (1 - grid**2)
    integral = np.trapezoid(dens, grid)
    assert integral == pytest.approx(1.0, abs=1e-4)


# -- replay buffer ------------------------------------------------------------


def test_buffer_fifo_eviction():
    buf = ReplayBuffer(2, 1, 1)
    for v in (1.0, 2.0, 3.0):
        buf.push([[v]], [[v]], [[v]])
    assert len(buf) == 2
    assert set(buf.states[:2, 0]) == {3.0, 2.0}


@pytest.mark.parametrize("capacity,filled,k", [
    pytest.param(16, 3, 9, id="inside"),
    pytest.param(16, 11, 9, id="crosses-wrap"),
    pytest.param(16, 16, 16, id="full-ring"),
    pytest.param(16, 5, 37, id="k-over-capacity"),
])
def test_batch_push_equals_one_row_pushes(capacity, filled, k):
    rng = np.random.default_rng(capacity + filled + k)
    rows = [rng.standard_normal((filled + k, d)) for d in (3, 2, 3)]
    one, batch = (ReplayBuffer(capacity, 3, 2) for _ in range(2))
    for buf in (one, batch):
        for i in range(filled):
            buf.push(*[r[i : i + 1] for r in rows])
    for i in range(filled, filled + k):
        one.push(*[r[i : i + 1] for r in rows])
    batch.push(*[r[filled:] for r in rows])
    assert (batch.cursor, batch.size) == (one.cursor, one.size)
    assert one.size == min(filled + k, capacity)
    for name in ("states", "actions", "next_states"):
        got, want = getattr(batch, name)[: one.size], getattr(one, name)[: one.size]
        assert got.tobytes() == want.tobytes(), name
    if k >= capacity:  # the last `capacity` rows survive
        kept = np.roll(rows[0][-capacity:], batch.cursor, axis=0)
        assert batch.states.tobytes() == kept.tobytes()


def test_buffer_sample_membership():
    buf = ReplayBuffer(16, 1, 1)
    for v in range(10):
        buf.push([[v]], [[v]], [[v]])
    idx = buf.sample(np.random.default_rng(0), 64)
    assert idx.shape == (64,)
    assert set(buf.states[idx, 0]).issubset(set(range(10)))
    assert not hasattr(buf, "reward") and not hasattr(buf, "rewards")


def test_push_takes_k_rows_of_each_column_only():
    # a (1, a) action block would broadcast over k feature rows, and one-row
    # vectors have no row count; both are refused and leave the ring as it was
    buf = ReplayBuffer(8, 3, 2)
    buf.push(np.ones((2, 3)), np.ones((2, 2)), np.ones((2, 3)))
    for rows in ((np.zeros((4, 3)), np.zeros((1, 2)), np.zeros((4, 3))),
                 (np.zeros((4, 3)), np.zeros((4, 3)), np.zeros((4, 3))),
                 (np.zeros((4, 3)), np.zeros((4, 2)), np.zeros((3, 3))),
                 (np.zeros(3), np.zeros(2), np.zeros(3))):
        with pytest.raises(ConfigError):
            buf.push(*rows)
    assert (buf.size, buf.cursor) == (2, 2) and not (buf.states[:2] - 1.0).any()


def test_buffer_empty_sample_raises():
    buf = ReplayBuffer(4, 1, 1)
    with pytest.raises(StateError):
        buf.sample(np.random.default_rng(0), 1)


def test_buffer_sampling_uniformity_chi_square():
    buf = ReplayBuffer(16, 1, 1)
    for v in range(10):
        buf.push([[v]], [[v]], [[v]])
    idx = buf.sample(np.random.default_rng(1), 100_000)
    counts = np.bincount(buf.states[idx, 0].astype(int), minlength=10)
    _, p = scipy.stats.chisquare(counts)
    assert p > 0.01


# -- critic updates -----------------------------------------------------------


def _fill_batch(rng, n, sdim, udim):
    return (rng.standard_normal((n, sdim)), np.tanh(rng.standard_normal((n, udim))),
            rng.standard_normal((n, sdim)))


def test_polyak_extremes():
    rng = np.random.default_rng(6)
    s, u, s2 = _fill_batch(rng, 8, 4, 2)

    agent = small_agent(7, cfg=SacConfig(tau=1.0, actor_hidden=(16, 16), critic_hidden=(16, 16)))
    critic_update(agent, s, u, s2, np.zeros(len(s)), rng)
    np.testing.assert_array_equal(agent.target1.params, agent.critic1.params)

    agent = small_agent(7, cfg=SacConfig(tau=0.0, actor_hidden=(16, 16), critic_hidden=(16, 16)))
    before = agent.target1.params.copy()
    critic_update(agent, s, u, s2, np.zeros(len(s)), rng)
    np.testing.assert_array_equal(agent.target1.params, before)


def test_polyak_gap_monotone():
    agent = small_agent(8)
    rng = np.random.default_rng(9)
    for layer in agent.critic1.layers:
        layer.w += rng.standard_normal(layer.w.shape)
    gaps = []
    for _ in range(50):
        polyak_update(agent, 0.05)
        gaps.append(np.linalg.norm(agent.target1.params - agent.critic1.params))
    assert all(b < a for a, b in zip(gaps[:-1], gaps[1:]))


def test_critic_fixed_point_matches_scalar_oracle():
    # a single self-loop transition with a near-deterministic frozen actor:
    # Q(s, u*) must converge to the scalar soft-Bellman fixed point
    # q* = (r0 - gamma * alpha * E[log pi]) / (1 - gamma)
    cfg = SacConfig(gamma=0.9, tau=0.1, critic_lr=5e-3, actor_hidden=(16, 16),
                    critic_hidden=(16, 16), alpha_lr=0.0, init_alpha=0.2)
    agent = small_agent(10, cfg=cfg)
    # pin the policy noise so the bootstrap action equals the stored action
    agent.actor.layers[-1].w[:, 2:] = 0.0
    agent.actor.layers[-1].b[2:] = -4.0
    rng = np.random.default_rng(11)
    s = rng.standard_normal(4)
    S = np.tile(s, (32, 1))
    U = np.tile(act(agent.actor, s[None]), (32, 1))
    r0 = 1.7
    for _ in range(1500):
        critic_update(agent, S, U, S, np.full(len(S), r0), rng)
    _, logp, _, _ = sample_with_log_prob(agent, np.tile(s, (20_000, 1)),
                                         np.random.default_rng(12).standard_normal((20_000, 2)))
    e_logp = float(np.mean(logp))
    q_star = (r0 - cfg.gamma * cfg.init_alpha * e_logp) / (1.0 - cfg.gamma)
    q = agent.critic1.forward(np.concatenate([S[:1], U[:1]], axis=1))[0, 0]
    assert q == pytest.approx(q_star, rel=0.05)


# -- actor updates ------------------------------------------------------------


def test_actor_gradients_match_finite_differences():
    agent = float64(small_agent(13, state_dim=3, u_dim=2,
                                cfg=SacConfig(actor_hidden=(10, 10), critic_hidden=(10, 10))))
    rng = np.random.default_rng(14)
    states = rng.standard_normal((2, 3))
    eps = rng.standard_normal((2, 2))
    actor_loss_and_grad(agent, states, eps)

    def loss_fn():
        return actor_loss(agent, states, eps)

    _, fd, analytic = fd_loss_gradient(loss_fn, agent.actor, n_probes=100, seed=15)
    assert_grads_close(fd, analytic, rtol=1e-4)


def test_actor_update_leaves_critic_params_alone():
    agent = small_agent(16)
    rng = np.random.default_rng(17)
    before1 = agent.critic1.params.copy()
    grads_before = agent.critic1.grads.copy()
    actor_update(agent, rng.standard_normal((8, 4)), rng)
    np.testing.assert_array_equal(agent.critic1.params, before1)
    np.testing.assert_array_equal(agent.critic1.grads, grads_before)


def test_constant_critic_update_is_entropy_ascent():
    cfg = SacConfig(actor_hidden=(16, 16), critic_hidden=(16, 16),
                    alpha_lr=0.0, init_alpha=0.5, actor_lr=3e-3)
    agent = small_agent(18, cfg=cfg)
    for critic in (agent.critic1, agent.critic2):
        for layer in critic.layers:
            layer.w[...] = 0.0
            layer.b[...] = 0.0
    rng = np.random.default_rng(19)
    states = rng.standard_normal((32, 4))
    before = float(np.mean(gaussian_head(agent.actor.forward(states))[0].log_std))
    for _ in range(100):
        actor_update(agent, states, rng)
    after = float(np.mean(gaussian_head(agent.actor.forward(states))[0].log_std))
    assert after > before + 0.1


def test_alpha_gradient_sign_flips_at_target_entropy():
    rng = np.random.default_rng(20)
    states = rng.standard_normal((64, 4))

    def run(log_std_bias):
        agent = small_agent(21)
        agent.actor.layers[-1].b[2:] = log_std_bias
        before = agent.log_alpha.value
        actor_update(agent, states, rng)
        return agent.log_alpha.value - before

    assert run(+1.0) < 0.0   # entropy above target: temperature decreases
    assert run(-5.0) > 0.0   # entropy below target: temperature increases


def test_zero_alpha_lr_keeps_temperature_fixed():
    # SAC's fixed temperature is alpha_lr=0.0; the default step moves it
    def alphas(alpha_lr):
        agent = small_agent(22, cfg=dataclasses.replace(SMALL, alpha_lr=alpha_lr))
        rng = np.random.default_rng(23)
        states = rng.standard_normal((16, 4))
        before = agent.alpha
        for _ in range(5):
            actor_update(agent, states, rng)
        return before, agent.alpha

    fixed, moved = alphas(0.0), alphas(SMALL.alpha_lr)
    assert fixed[1] == fixed[0]
    assert moved[1] != moved[0]


def test_updates_deterministic():
    def run():
        agent = small_agent(22)
        rng = np.random.default_rng(23)
        for _ in range(10):
            s, u, s2 = _fill_batch(rng, 16, 4, 2)
            critic_update(agent, s, u, s2, np.ones(len(s)), rng)
            actor_update(agent, s, rng)
        return agent.digest()

    assert run() == run()


def test_decoder_path_leaves_actor_update_bit_identical():
    """The adversarial decoder pathway must not perturb the actor's own
    update; only the decoder parameters move."""
    import warnings

    from lapal import adversary
    from lapal.latentact import CVAEConfig, train_codec

    demos = envsim.collect_demos("pointmass", n_episodes=4, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        codec, _ = train_codec(demos, CVAEConfig(latent_dim=2, epochs=2), seed=0)
    disc = adversary.make_discriminator(
        adversary.DiscComposition("pointmass", "latent", 4, 2, codec.digest()),
        (16, 16), 1)

    def run(with_path):
        agent = small_agent(24, state_dim=4, u_dim=2)
        c = codec.copy(frozen=False)
        rng = np.random.default_rng(25)
        states = rng.standard_normal((8, 4))
        for _ in range(3):
            out = actor_update(agent, states, rng)
            if with_path:
                sacgen.decoder_adversarial_step(c, disc, 1e-3, states, out["u"])
        return agent.actor.digest(), c.decoder.digest()

    (actor_a, dec_a), (actor_b, dec_b) = run(False), run(True)
    assert actor_a == actor_b
    assert dec_a != dec_b


def test_decoder_path_respects_frozen_codec():
    import warnings

    from lapal import adversary
    from lapal.latentact import CVAEConfig, train_codec

    demos = envsim.collect_demos("pointmass", n_episodes=4, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        codec, _ = train_codec(demos, CVAEConfig(latent_dim=2, epochs=1), seed=0)
    codec.frozen = True
    disc = adversary.make_discriminator(
        adversary.DiscComposition("pointmass", "latent", 4, 2, codec.digest()),
        (8,), 1)
    agent = small_agent(26, state_dim=4, u_dim=2)
    rng = np.random.default_rng(27)
    states = rng.standard_normal((4, 4))
    out = actor_update(agent, states, rng)
    with pytest.raises(StateError):
        sacgen.decoder_adversarial_step(codec, disc, 1e-3, states, out["u"])


def test_decoder_path_gradient_on_arm_features():
    """Decoder gradient of the adversarial decoder step on arm3, where the
    15 feature columns differ from the 8 state columns."""
    from lapal import adversary
    from lapal.latentact import CVAEConfig, make_codec

    codec = float64(make_codec("arm3", CVAEConfig(latent_dim=2, encoder_hidden=(12, 12),
                                                  decoder_hidden=(12, 12)), 40))
    disc = float64(adversary.make_discriminator(
        adversary.DiscComposition("arm3", "latent", 15, 2, codec.digest()), (12, 12), 41))
    rng = np.random.default_rng(42)
    states = np.stack([envsim.env_reset("arm3", i) for i in range(6)])
    feats = envsim.feature_map("arm3", states)
    assert states.shape[1] == 8 and feats.shape[1] == envsim.feature_dim(codec.env_id) == 15
    u = np.tanh(rng.standard_normal((6, 2)))
    codec.decoder.adam_step = lambda lr: None  # keep the accumulated gradient
    sacgen.decoder_adversarial_step(codec, disc, 1e-3, feats, u)

    def loss_fn():
        abar = latentact.encode_mean(codec, feats, latentact.decode(codec, feats, u))
        return float(np.mean(-sacgen.softplus(adversary.disc_logit(disc, feats, abar))))

    _, fd, analytic = fd_loss_gradient(loss_fn, codec.decoder, n_probes=100, seed=43)
    assert np.any(analytic != 0.0)
    assert_grads_close(fd, analytic, rtol=1e-4)
