import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

from conftest import BUFFERS, assert_grads_close, fd_loss_gradient, float64, trees_in
from lapal import adversary, envsim, latentact, orchestrator, sacgen
from lapal.errors import ConfigError, DivergenceError
from lapal.latentact import CVAEConfig, train_codec
from lapal.nncore import MLPSpec, ParamTree, chunked_rows
from lapal.orchestrator import (
    ALGOS,
    ExpertPolicy,
    PolicyBundle,
    RandomPolicy,
    RunConfig,
    aggregate_curves,
    evaluate_policy,
    load_policy,
    run_training,
    save_policy,
    transfer_policy,
)
from lapal.sacgen import SacConfig

SMALL_SAC = SacConfig(batch_size=64, actor_hidden=(24, 24), critic_hidden=(24, 24))
ENVS = ("pointmass", "arm2", "arm3", "arm3-perturbed")
REGISTERED = ("pointmass", "arm1", "arm2", "arm3", "arm6", "arm3-perturbed", "arm6-perturbed")


def small_run_cfg(algo, **kw):
    base = dict(
        algo=algo, env_id="pointmass", total_env_steps=600,
        steps_per_iteration=200, disc_updates_per_iteration=20,
        gen_updates_per_iteration=30, eval_every=200, eval_episodes=4,
        disc_hidden=(24, 24), divergence_guard=False,
    )
    base.update(kw)
    return RunConfig(**base)


def curve_repr(curve):
    """Exact text of every curve number; unlike `==`, equal NaNs compare equal."""
    return [repr(dataclasses.astuple(r)) for r in curve]


def env_run_cfg(algo, env_id, **kw):
    """small_run_cfg on pointmass; three tiny iterations on the arms."""
    if env_id != "pointmass":
        kw = dict(env_id=env_id, total_env_steps=300, steps_per_iteration=100,
                  eval_every=100, disc_updates_per_iteration=5,
                  gen_updates_per_iteration=10, eval_episodes=2, **kw)
    return small_run_cfg(algo, **kw)


@pytest.fixture(scope="module")
def pm_demos():
    return envsim.collect_demos("pointmass", n_episodes=16, seed=0)


@pytest.fixture(scope="module")
def pm_codec(pm_demos):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        codec, _ = train_codec(pm_demos, CVAEConfig(latent_dim=2, epochs=20), seed=0)
    return codec


@pytest.fixture(scope="module")
def env_inputs(pm_demos, pm_codec):
    """env_id -> (demos, codec); arm inputs are built on first use."""
    cache = {"pointmass": (pm_demos, pm_codec)}

    def get(env_id):
        if env_id not in cache:
            demos = envsim.collect_demos(env_id, n_episodes=8, seed=0)
            codec, _ = train_codec(demos, CVAEConfig(latent_dim=2, epochs=5), seed=0)
            cache[env_id] = demos, codec
        return cache[env_id]

    return get


def demos_digest(demos):
    h = hashlib.sha256()
    for arr in (demos.states, demos.actions, demos.next_states, demos.rewards):
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("field,value", [
    ("total_env_steps", 0), ("total_env_steps", -600), ("steps_per_iteration", 0),
    ("steps_per_iteration", -50), ("eval_every", 0), ("eval_every", -200),
    ("eval_episodes", 0), ("disc_updates_per_iteration", -1),
    ("gen_updates_per_iteration", -1),
])
def test_run_config_rejects_non_positive_budgets(field, value):
    with pytest.raises(ConfigError, match="positive|negative"):
        small_run_cfg("gail", **{field: value})


def test_zero_update_counts_only_collect(pm_demos):
    cfg = small_run_cfg("gail", disc_updates_per_iteration=0, gen_updates_per_iteration=0)
    trace = []
    res = run_training(cfg, SMALL_SAC, pm_demos, seed=0, on_iteration=trace.append)
    assert [r["buffer_size"] for r in trace] == [200, 400, 600]
    assert len({r["actor_digest"] for r in trace}) == 1
    assert [r.env_steps for r in res.curve] == [200, 400, 600]
    for row in res.curve:
        assert np.isnan([row.disc_loss, row.actor_loss, row.critic_loss, row.entropy]).all()
        assert row.alpha == SMALL_SAC.init_alpha


def test_losses_of_updates_that_never_ran_are_nan(pm_demos):
    """A discriminator-only run reports its discriminator loss and NaN for
    the generator's losses, and its divergence guard checks only the losses
    of the updates that ran."""
    cfg = small_run_cfg("gail", gen_updates_per_iteration=0, divergence_guard=True)
    res = run_training(cfg, SMALL_SAC, pm_demos, seed=0)
    assert len(res.curve) == 3
    for row in res.curve:
        assert np.isfinite(row.disc_loss)
        assert np.isnan([row.actor_loss, row.critic_loss, row.entropy]).all()


def test_algo_codec_pairing_validated(pm_demos, pm_codec):
    with pytest.raises(ConfigError):
        run_training(small_run_cfg("lapal-agnostic"), SMALL_SAC, pm_demos, seed=0)
    with pytest.raises(ConfigError):
        run_training(small_run_cfg("gail"), SMALL_SAC, pm_demos, codec=pm_codec, seed=0)
    arm_demos = envsim.collect_demos("arm2", n_episodes=2, seed=0)
    with pytest.raises(ConfigError):
        run_training(small_run_cfg("lapal-agnostic", env_id="arm2"), SMALL_SAC,
                     arm_demos, codec=pm_codec, seed=0)


def test_unknown_algo_rejected():
    with pytest.raises(ConfigError):
        small_run_cfg("bc")


def test_agnostic_mode_needs_the_codec_warm_start():
    # the agnostic mode freezes its codec: from scratch it would freeze a random one
    with pytest.raises(ConfigError, match="warm start"):
        small_run_cfg("lapal-agnostic", codec_warm_start=False)
    small_run_cfg("lapal-aware", codec_warm_start=False)


def test_aware_from_scratch_trains_on_arm3(env_inputs):
    """The online task-aware codec: lapal-aware with a freshly initialized
    codec in place of the pretrained one."""
    demos, codec = env_inputs("arm3")

    def run():
        res = run_training(env_run_cfg("lapal-aware", "arm3", codec_warm_start=False),
                           SMALL_SAC, demos, codec=codec, seed=21)
        assert len(res.curve) == 3
        assert all(np.isfinite(r.mean_eval_return) and np.isfinite(r.recon_mse)
                   for r in res.curve)
        assert res.bundle.codec.encoder.digest() != codec.encoder.digest()
        assert not res.bundle.codec.frozen
        return curve_repr(res.curve), res.bundle.digest()

    first = run()
    assert run() == first
    warm = run_training(env_run_cfg("lapal-aware", "arm3"), SMALL_SAC, demos,
                        codec=codec, seed=21)
    assert warm.bundle.digest() != first[1]


@pytest.mark.parametrize("env_id", ENVS)
@pytest.mark.parametrize("algo", ALGOS)
def test_smoke_runs_and_buffer_hygiene(algo, env_id, env_inputs):
    demos, codec = env_inputs(env_id)
    before = demos_digest(demos)
    res = run_training(env_run_cfg(algo, env_id), SMALL_SAC, demos,
                       codec=codec if algo != "gail" else None, seed=1)
    steps = [r.env_steps for r in res.curve]
    assert steps == sorted(steps) and len(set(steps)) == len(steps)
    assert all(np.isfinite(r.mean_eval_return) for r in res.curve)
    assert res.expert_return > res.random_return
    assert demos_digest(demos) == before


def test_frozen_codec_untouched_by_agnostic_run(pm_demos, pm_codec):
    before = pm_codec.digest()
    res = run_training(small_run_cfg("lapal-agnostic"), SMALL_SAC, pm_demos,
                       codec=pm_codec, seed=2)
    assert pm_codec.digest() == before
    assert res.bundle.codec.digest() == before  # run copy trained nothing either
    assert res.discriminator.composition.codec_digest == before
    assert res.bundle.codec.frozen


def test_aware_run_moves_codec(pm_demos, pm_codec, tmp_path):
    """The codec moves, and the returned discriminator names the codec the run
    ends with, so it saves and loads against that codec's composition."""
    cfg = small_run_cfg("lapal-aware", codec_disc_lr=1e-3, codec_gen_lr=1e-3)
    res = run_training(cfg, SMALL_SAC, pm_demos, codec=pm_codec, seed=2)
    trained = res.bundle.codec.digest()
    assert trained != pm_codec.digest()
    assert res.discriminator.composition.codec_digest == trained
    adversary.save_discriminator(tmp_path / "disc", res.discriminator)
    expected = adversary.DiscComposition("pointmass", "latent", envsim.feature_dim("pointmass"),
                                         pm_codec.latent_dim, trained)
    back = adversary.load_discriminator(tmp_path / "disc", expected)
    assert back.digest() == res.discriminator.digest()


@pytest.mark.parametrize("env_id", ENVS)
def test_mode_boundary_differential(env_id, env_inputs):
    """lapal-aware with codec learning rates forced to zero must walk the
    task-agnostic update sequence bit-identically."""
    demos, codec = env_inputs(env_id)
    traces = {}
    for algo, lrs in (("lapal-agnostic", None), ("lapal-aware", 0.0)):
        kw = {} if lrs is None else {"codec_disc_lr": 0.0, "codec_gen_lr": 0.0}
        trace = []
        run_training(env_run_cfg(algo, env_id, **kw), SMALL_SAC, demos,
                     codec=codec, seed=3, on_iteration=trace.append)
        traces[algo] = trace
    a, b = traces["lapal-agnostic"], traces["lapal-aware"]
    assert len(a) == len(b) == 3
    for ra, rb in zip(a, b):
        assert ra["actor_digest"] == rb["actor_digest"]
        assert ra["critic_digest"] == rb["critic_digest"]
        assert ra["disc_digest"] == rb["disc_digest"]
        assert ra["alpha"] == rb["alpha"]
        assert ra["codec_digest"] == rb["codec_digest"]


def test_divergence_guard_on_nonfinite_loss(pm_demos, monkeypatch):
    def poisoned(d, states, u):
        return np.full(len(np.atleast_2d(states)), np.nan)

    monkeypatch.setattr(orchestrator.adversary, "disc_reward", poisoned)
    with pytest.raises(DivergenceError):
        run_training(small_run_cfg("gail", divergence_guard=True), SMALL_SAC,
                     pm_demos, seed=4)


def test_divergence_guard_below_random_baseline(pm_demos, monkeypatch):
    # reward a saturated corner action: the policy learns to fly away, so
    # eval return sits below the random baseline at half budget and the
    # guard must abort
    def runaway(d, states, u):
        u2 = np.atleast_2d(u)
        return -np.sum((u2 - 1.0) ** 2, axis=1)

    monkeypatch.setattr(orchestrator.adversary, "disc_reward", runaway)
    cfg = small_run_cfg("gail", divergence_guard=True, total_env_steps=2000,
                        gen_updates_per_iteration=150)
    with pytest.raises(DivergenceError, match="below the random baseline"):
        run_training(cfg, SMALL_SAC, pm_demos, seed=4)


def test_evaluate_policy_deterministic_and_ordered():
    for env_id in ("pointmass", "arm2"):
        e1 = evaluate_policy(ExpertPolicy(env_id), env_id, 6, seed=9)
        e2 = evaluate_policy(ExpertPolicy(env_id), env_id, 6, seed=9)
        assert e1 == e2
        r1 = evaluate_policy(RandomPolicy(env_id), env_id, 6, seed=9)
        assert e1[0] > r1[0]


def test_policy_checkpoint_round_trip(tmp_path, pm_demos, pm_codec):
    res = run_training(small_run_cfg("lapal-agnostic"), SMALL_SAC, pm_demos,
                       codec=pm_codec, seed=5)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_policy(p1, res.bundle)
    save_policy(p2, res.bundle)
    assert p1.read_bytes() == p2.read_bytes()
    back = load_policy(p1)
    assert back.digest() == res.bundle.digest()
    before = evaluate_policy(res.bundle, "pointmass", 4, seed=6)
    after = evaluate_policy(back, "pointmass", 4, seed=6)
    assert before == after


def test_raw_policy_checkpoint(tmp_path, pm_demos):
    res = run_training(small_run_cfg("gail"), SMALL_SAC, pm_demos, seed=6)
    save_policy(tmp_path / "p.ckpt", res.bundle)
    back = load_policy(tmp_path / "p.ckpt")
    assert back.codec is None
    assert evaluate_policy(back, "pointmass", 3, 0) == evaluate_policy(
        res.bundle, "pointmass", 3, 0)


def test_every_tree_the_lab_builds_copies_or_loads_is_one_precision(tmp_path, pm_demos,
                                                                     pm_codec):
    agent = sacgen.SacAgent(envsim.feature_dim("pointmass"), 2, SMALL_SAC, 0)
    res = run_training(small_run_cfg("lapal-aware", total_env_steps=200), SMALL_SAC,
                       pm_demos, pm_codec, seed=0)
    moved, _ = transfer_policy(res.bundle, pm_demos, CVAEConfig(latent_dim=2, epochs=1))
    save_policy(tmp_path / "p", res.bundle)
    latentact.save_codec(tmp_path / "c", pm_codec)
    adversary.save_discriminator(tmp_path / "d", res.discriminator)
    built = [agent, pm_codec, pm_codec.copy(), res, moved, load_policy(tmp_path / "p"),
             latentact.load_codec(tmp_path / "c"), adversary.load_discriminator(tmp_path / "d")]
    trees = [t for obj in built for t in trees_in(obj)]
    assert len(trees) == 3 + 2 + 2 + 4 + 3 + 3 + 2 + 1
    assert res.bundle.actor.step > 0 and res.bundle.codec.decoder.step > 0
    for tree in trees:
        assert tree.dtype == np.float32
        for name in BUFFERS:
            assert getattr(tree, name).dtype == tree.dtype
        for l in tree.layers:
            assert {a.dtype for a in (l.w, l.b, l.gw, l.gb, l.mw, l.mb, l.vw, l.vb)} == {tree.dtype}
            assert np.shares_memory(l.w, tree.params) and np.shares_memory(l.vb, tree.v)


def test_bundle_rejects_actor_that_does_not_fit_its_action_box():
    """The actor's head must be 2 x the codec's latent_dim, or 2 x the env's
    action_dim for a raw policy."""
    codec = latentact.make_codec("arm3", CVAEConfig(latent_dim=2), 0)
    feat = envsim.feature_dim("arm3")
    three_latents = ParamTree.init(MLPSpec(feat, (8,), 6), np.random.default_rng(1))
    with pytest.raises(ConfigError, match="2-wide action box"):
        PolicyBundle("arm3", three_latents, codec)
    two_actions = ParamTree.init(MLPSpec(feat, (8,), 4), np.random.default_rng(2))
    with pytest.raises(ConfigError, match="3-wide action box"):
        PolicyBundle("arm3", two_actions)
    assert PolicyBundle("arm3", three_latents).u_dim == 3


def test_aggregate_curves_over_identical_seeds(pm_demos):
    res = run_training(small_run_cfg("gail"), SMALL_SAC, pm_demos, seed=7)
    agg = aggregate_curves([res.curve, res.curve])
    assert agg[0]["std_norm_return"] == 0.0


@pytest.mark.parametrize("env_id", ENVS)
@pytest.mark.parametrize("algo", ALGOS)
def test_run_training_deterministic(algo, env_id, env_inputs):
    demos, codec = env_inputs(env_id)

    def run():
        res = run_training(env_run_cfg(algo, env_id), SMALL_SAC, demos,
                           codec=codec if algo != "gail" else None, seed=8)
        return curve_repr(res.curve), res.bundle.digest()

    assert run() == run()


@pytest.mark.parametrize("env_id", ENVS)
@pytest.mark.parametrize("algo", ALGOS)
def test_run_training_deterministic_with_ragged_segments(algo, env_id, env_inputs):
    """Iterations that are not a multiple of the horizon start and end
    collection inside an episode."""
    demos, codec = env_inputs(env_id)
    spi = 97 if env_id == "pointmass" else 177     # horizon 60 or 140, plus 37
    cfg = small_run_cfg(algo, env_id=env_id, total_env_steps=2 * spi,
                        steps_per_iteration=spi, eval_every=2 * spi, eval_episodes=2,
                        disc_updates_per_iteration=5, gen_updates_per_iteration=10)

    def run():
        trace = []
        res = run_training(cfg, SMALL_SAC, demos, codec=codec if algo != "gail" else None,
                           seed=24, on_iteration=trace.append)
        assert [r["buffer_size"] for r in trace] == [spi, 2 * spi]
        return curve_repr(res.curve), res.bundle.digest(), trace

    assert run() == run()


def test_transfer_identity_and_validation(pm_demos, pm_codec):
    res = run_training(small_run_cfg("lapal-agnostic"), SMALL_SAC, pm_demos,
                       codec=pm_codec, seed=9)
    cfg2 = CVAEConfig(latent_dim=2, epochs=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t1, _ = transfer_policy(res.bundle, pm_demos, cfg2, seed=11)
        t2, _ = transfer_policy(res.bundle, pm_demos, cfg2, seed=11)
    assert t1.digest() == t2.digest()
    assert evaluate_policy(t1, "pointmass", 4, 12) == evaluate_policy(
        t2, "pointmass", 4, 12)
    with pytest.raises(ConfigError):
        transfer_policy(res.bundle, pm_demos, CVAEConfig(latent_dim=3), seed=0)
    # raw policies cannot transfer
    raw = run_training(small_run_cfg("gail", total_env_steps=200), SMALL_SAC,
                       pm_demos, seed=10)
    with pytest.raises(ConfigError):
        transfer_policy(raw.bundle, pm_demos, cfg2, seed=0)


def test_aware_disc_step_encoder_gradient_on_arm_features():
    """Encoder gradient that the aware discriminator step chains through the
    discriminator's input gradient, on arm3's 15 feature columns."""
    cvae_cfg = CVAEConfig(latent_dim=2, encoder_hidden=(12, 12), decoder_hidden=(12, 12))
    codec = float64(latentact.make_codec("arm3", cvae_cfg, 50))
    disc = float64(adversary.make_discriminator(
        adversary.DiscComposition("arm3", "latent", 15, 2, codec.digest()), (12, 12), 51))
    rng = np.random.default_rng(52)
    feats = envsim.feature_map("arm3", np.stack([envsim.env_reset("arm3", i)
                                                 for i in range(8)]))
    actions = rng.uniform(-1.0, 1.0, (8, 3))
    se, ea, sa, aa = feats[:4], actions[:4], feats[4:], actions[4:]
    codec.encoder.adam_step = lambda lr: None  # keep the accumulated gradient
    disc.tree.adam_step = lambda lr: None
    cfg = small_run_cfg("lapal-aware", env_id="arm3")
    orchestrator._disc_step(cfg, disc, codec, se, ea, sa, aa)
    # the mean encoding leaves the log-std half of the encoder head untouched
    head = codec.encoder.layers[-1]
    assert np.all(head.gw[:, 2:] == 0.0) and np.all(head.gb[2:] == 0.0)

    def loss_fn():
        u = latentact.encode_mean(codec, feats, actions)
        return adversary.disc_loss(disc, (se, u[:4]), (sa, u[4:]))

    _, fd, analytic = fd_loss_gradient(loss_fn, codec.encoder, n_probes=100, seed=53)
    assert np.any(analytic != 0.0)
    assert_grads_close(fd, analytic, rtol=1e-4)


def disc_step_inputs(env_id, env_inputs, n=8):
    """A float64 latent bundle over a mutable copy of `env_id`'s codec, a
    discriminator in its box, and n expert (features, actions) rows from the
    demos against n agent rows with uniform actions."""
    demos, codec = env_inputs(env_id)
    codec = float64(codec.copy(frozen=False))
    feat_dim, spec = envsim.feature_dim(env_id), envsim.env_spec(env_id)
    disc = float64(adversary.make_discriminator(
        adversary.DiscComposition(env_id, "latent", feat_dim, codec.latent_dim,
                                  codec.digest()), (12,), 60))
    actor = ParamTree.init(MLPSpec(feat_dim, (4,), 2 * codec.latent_dim),
                           np.random.default_rng(61))
    rng = np.random.default_rng(62)
    rows = rng.integers(0, len(demos.states), 2 * n)
    feats = envsim.feature_map(env_id, demos.states[rows])
    se, ea = feats[:n], demos.actions[rows[:n]]
    sa, aa = feats[n:], rng.uniform(-1.0, 1.0, (n, spec.action_dim))
    return PolicyBundle(env_id, actor, codec), disc, (se, ea, sa, aa)


@pytest.mark.parametrize("env_id", ENVS)
def test_to_box_is_the_current_mean_encoding(env_id, env_inputs):
    """A latent bundle's box points are tanh of the current encoder's mean:
    no randomness, and nothing cached, so moving the encoder moves them."""
    bundle, _, (se, ea, _, _) = disc_step_inputs(env_id, env_inputs)
    u = bundle.to_box(se, ea)
    assert u.tobytes() == np.tanh(latentact.encode(bundle.codec, se, ea).mean).tobytes()
    assert bundle.to_box(se, ea).tobytes() == u.tobytes()
    assert np.all(np.abs(u) <= 1.0)
    bundle.codec.encoder.layers[-1].b[-1] += 0.25   # a log-std bias: the mean stays
    assert bundle.to_box(se, ea).tobytes() == u.tobytes()
    bundle.codec.encoder.params += 0.01
    moved = bundle.to_box(se, ea)
    assert moved.tobytes() != u.tobytes()
    assert moved.tobytes() == latentact.encode_mean(bundle.codec, se, ea).tobytes()


@pytest.mark.parametrize("env_id", REGISTERED)
def test_raw_bundle_maps_return_their_input(env_id):
    """Without a codec the box is the env's unit action box: `to_env` and
    `to_box` return the bytes they are given, whatever the features."""
    spec, feat_dim = envsim.env_spec(env_id), envsim.feature_dim(env_id)
    actor = ParamTree.init(MLPSpec(feat_dim, (4,), 2 * spec.action_dim),
                           np.random.default_rng(63))
    bundle = PolicyBundle(env_id, actor)
    rng = np.random.default_rng(64)
    feats, u = rng.standard_normal((6, feat_dim)), rng.uniform(-1.0, 1.0, (6, spec.action_dim))
    assert bundle.to_env(feats, u).tobytes() == u.tobytes()
    assert bundle.to_box(feats, u).tobytes() == u.tobytes()


@pytest.mark.parametrize("env_id", ENVS)
def test_disc_step_loss_is_on_pre_step_mean_encodings(env_id, env_inputs):
    """The aware step scores the discriminator on the mean encodings of both
    halves under the encoder as it was before the step, then steps the
    discriminator and the encoder; it leaves the decoder."""
    bundle, disc, (se, ea, sa, aa) = disc_step_inputs(env_id, env_inputs)
    codec = bundle.codec
    enc, dec, d = codec.encoder.params.copy(), codec.decoder.params.copy(), disc.tree.params.copy()
    u = latentact.encode_mean(codec, np.concatenate([se, sa]), np.concatenate([ea, aa]))
    want = adversary.disc_loss(disc, (se, u[:len(se)]), (sa, u[len(se):]))
    cfg = small_run_cfg("lapal-aware", env_id=env_id)
    loss = orchestrator._disc_step(cfg, disc, codec, se, ea, sa, aa)
    assert np.isclose(loss, want, rtol=1e-12, atol=0.0)
    assert disc.tree.params.tobytes() != d.tobytes()
    assert codec.decoder.params.tobytes() == dec.tobytes()
    assert codec.encoder.params.tobytes() != enc.tobytes()


@pytest.mark.parametrize("env_id", ENVS)
def test_aware_disc_step_at_zero_encoder_lr_is_the_agnostic_step(env_id, env_inputs):
    """One discriminator step of the mode boundary: aware at encoder learning
    rate 0 returns the loss of the agnostic step, a discriminator step on the
    box points of both halves, and leaves the same discriminator and encoder,
    bit for bit."""
    out = {}
    for algo, kw in (("lapal-agnostic", {}), ("lapal-aware", {"codec_disc_lr": 0.0})):
        bundle, disc, (se, ea, sa, aa) = disc_step_inputs(env_id, env_inputs)
        cfg = small_run_cfg(algo, env_id=env_id, **kw)
        enc = bundle.codec.encoder.params.tobytes()
        if cfg.algo == "lapal-aware":
            loss = orchestrator._disc_step(cfg, disc, bundle.codec, se, ea, sa, aa)
        else:
            u = bundle.to_box(np.concatenate([se, sa]), np.concatenate([ea, aa]))
            loss = adversary.disc_loss_and_grad(disc, (se, u[:len(se)]), (sa, u[len(se):]))
            disc.tree.adam_step(orchestrator.DISC_LR)
        assert bundle.codec.encoder.params.tobytes() == enc
        out[algo] = loss, disc.tree.params.tobytes(), disc.tree.m.tobytes()
    assert out["lapal-aware"] == out["lapal-agnostic"]


@pytest.mark.parametrize("n", [300, 301])
@pytest.mark.parametrize("latent", [False, True])
def test_chunked_passes_match_minibatch_passes(latent, n, env_inputs):
    """Box points and rewards computed once over n rows in 128-row chunks,
    the tail padded, equal per-minibatch passes over random 128-row gathers
    of the rows bit for bit, with float32 networks. Unpadded, the
    discriminator's width-1 output layer can round the 45-row tail of 301
    rows differently; the 44-row tail of 300 rows it rounds the same."""
    demos, codec = env_inputs("arm3")
    spec, feat_dim = envsim.env_spec("arm3"), envsim.feature_dim("arm3")
    rng = np.random.default_rng(70)
    S = envsim.feature_map("arm3", demos.states[rng.integers(0, len(demos), n)])
    A = rng.uniform(-1.0, 1.0, (n, spec.action_dim))
    u_dim = codec.latent_dim if latent else spec.action_dim
    actor = ParamTree.init(MLPSpec(feat_dim, (4,), 2 * u_dim), np.random.default_rng(71))
    bundle = PolicyBundle("arm3", actor, codec if latent else None)
    comp = (adversary.DiscComposition("arm3", "latent", feat_dim, u_dim, codec.digest())
            if latent else adversary.DiscComposition("arm3", "raw", feat_dim, u_dim))
    disc = adversary.make_discriminator(comp, (64, 64), 72)
    box = chunked_rows(bundle.to_box, 128, S, A)
    rewards = chunked_rows(lambda s, u: adversary.disc_reward(disc, s, u), 128, S, box)
    assert box.shape == (n, u_dim) and rewards.shape == (n,)
    tail_rows = 0
    for _ in range(8):
        i = rng.integers(0, n, 128)
        tail_rows += int(np.sum(i >= 256))
        assert bundle.to_box(S[i], A[i]).tobytes() == box[i].tobytes()
        assert adversary.disc_reward(disc, S[i], box[i]).tobytes() == rewards[i].tobytes()
    assert tail_rows > 0


@pytest.mark.parametrize("disc_updates, gen_updates", [(5, 10), (20, 40), (0, 0), (5, 0)])
def test_one_encoding_and_reward_pass_per_phase(disc_updates, gen_updates, monkeypatch,
                                                pm_demos, pm_codec):
    """One agnostic iteration encodes the demos and the buffer once each and
    scores the buffer once, in batch-size chunks, however many updates it
    runs, and skips each pass that no update reads: the demos without
    discriminator updates, the buffer without any update, and the scores
    without generator updates. The evaluation's reconstruction probe encodes
    once more."""
    calls = {"encode": [], "disc_reward": []}
    for module, name in ((latentact, "encode"), (adversary, "disc_reward")):
        def counting(*args, _f=getattr(module, name), _name=name, **kw):
            calls[_name].append(len(args[1]))
            return _f(*args, **kw)

        monkeypatch.setattr(module, name, counting)
    cfg = small_run_cfg("lapal-agnostic", total_env_steps=200,
                        disc_updates_per_iteration=disc_updates,
                        gen_updates_per_iteration=gen_updates)
    run_training(cfg, SMALL_SAC, pm_demos, codec=pm_codec, seed=5)
    batch = SMALL_SAC.batch_size
    demo_pass, buffer_pass = [batch] * -(-len(pm_demos) // batch), [batch] * -(-200 // batch)
    assert calls["encode"] == (demo_pass * bool(disc_updates)
                               + buffer_pass * bool(disc_updates or gen_updates)
                               + [min(512, len(pm_demos))])
    assert calls["disc_reward"] == buffer_pass * bool(gen_updates)


@pytest.mark.parametrize("disc_updates, gen_updates", [(5, 10), (0, 10), (5, 0)])
def test_gail_reads_its_actions_as_box_points(disc_updates, gen_updates, monkeypatch,
                                              pm_demos):
    """A raw policy's box points are its actions, so a `gail` run never calls
    `to_box`: its reward pass scores action-wide rows."""
    def refuse(*args):
        raise AssertionError("a raw run called to_box")

    seen = []
    score = adversary.disc_reward
    monkeypatch.setattr(PolicyBundle, "to_box", refuse)
    monkeypatch.setattr(adversary, "disc_reward", lambda d, s, u: seen.append(u) or score(d, s, u))
    cfg = small_run_cfg("gail", total_env_steps=200, disc_updates_per_iteration=disc_updates,
                        gen_updates_per_iteration=gen_updates)
    res = run_training(cfg, SMALL_SAC, pm_demos, seed=5)
    assert len(res.curve) == 1 and bool(seen) == bool(gen_updates)
    assert all(u.shape[1] == envsim.env_spec("pointmass").action_dim for u in seen)


def test_buffer_holds_features_of_stepped_states(monkeypatch, env_inputs):
    """Features computed once per state as collection steps equal the
    features of the same states computed as one batch, bit for bit."""
    demos, codec = env_inputs("arm3")
    stepped, pushed, evaluating = [], [], []
    step_batch, push = envsim.step_batch, sacgen.ReplayBuffer.push
    evaluate = orchestrator.evaluate_policies

    def recording_step(env_id, states, actions):
        nxt, rewards = step_batch(env_id, states, actions)
        if not evaluating:
            stepped.extend(zip(np.copy(states), nxt))
        return nxt, rewards

    def recording_push(buf, feats, actions, next_feats):
        pushed.extend(zip(np.copy(feats), np.copy(next_feats)))
        push(buf, feats, actions, next_feats)

    def flagged_evaluate(*args, **kwargs):
        evaluating.append(True)
        try:
            return evaluate(*args, **kwargs)
        finally:
            evaluating.pop()

    monkeypatch.setattr(envsim, "step_batch", recording_step)
    monkeypatch.setattr(sacgen.ReplayBuffer, "push", recording_push)
    monkeypatch.setattr(orchestrator, "evaluate_policies", flagged_evaluate)
    run_training(env_run_cfg("lapal-agnostic", "arm3"), SMALL_SAC, demos, codec=codec,
                 seed=13)
    assert len(stepped) == len(pushed) == 300
    # collection steps rows timestep by timestep and pushes them segment by
    # segment, so compare the two sides as multisets of rows
    for col in (0, 1):
        batch = envsim.feature_map("arm3", np.array([p[col] for p in stepped]))
        assert (sorted(row.tobytes() for row in batch)
                == sorted(p[col].tobytes() for p in pushed))
    idx = np.random.default_rng(14).integers(0, len(demos), 64)
    assert (envsim.feature_map("arm3", demos.states)[idx].tobytes()
            == envsim.feature_map("arm3", demos.states[idx]).tobytes())


@pytest.mark.parametrize("env_id", ["pointmass", "arm3"])
def test_one_rollout_per_evaluation_point(monkeypatch, env_inputs, env_id):
    """The references roll with the first evaluation; later points roll the
    policy alone, and the references come out as if evaluated on their own."""
    demos, _ = env_inputs(env_id)
    cfg = env_run_cfg("gail", env_id)
    cfg = dataclasses.replace(cfg, total_env_steps=2 * cfg.eval_every)
    rollout, rows = envsim.rollout_episodes, []

    def counting_rollout(env_id, act_fn, episode_seeds):
        rows.append(len(episode_seeds))
        return rollout(env_id, act_fn, episode_seeds)

    monkeypatch.setattr(envsim, "rollout_episodes", counting_rollout)
    res = run_training(cfg, SMALL_SAC, demos, seed=3)
    assert rows == [3 * cfg.eval_episodes, cfg.eval_episodes]
    eval_seed = orchestrator._eval_seed(3)
    for policy, ret in ((ExpertPolicy, res.expert_return), (RandomPolicy, res.random_return)):
        assert ret == evaluate_policy(policy(env_id), env_id, cfg.eval_episodes, eval_seed)[0]


@pytest.fixture(scope="module")
def arm3_agnostic(env_inputs):
    """A small agnostic arm3 run's policy, the source of the transfer tests."""
    demos, codec = env_inputs("arm3")
    return run_training(env_run_cfg("lapal-agnostic", "arm3"), SMALL_SAC, demos,
                        codec=codec, seed=16).bundle


@pytest.fixture(scope="module")
def perturbed_demos():
    return envsim.collect_demos("arm3-perturbed", n_episodes=8, seed=17)


def test_transfer_arm3_to_perturbed_end_to_end(tmp_path, arm3_agnostic, perturbed_demos):
    cfg = CVAEConfig(latent_dim=2, epochs=20)
    bundle, history = transfer_policy(arm3_agnostic, perturbed_demos, cfg, seed=18)
    assert bundle.env_id == "arm3-perturbed" and bundle.codec.env_id == "arm3-perturbed"
    assert history["holdout_final"] < history["holdout_baseline"]
    _, untrained = transfer_policy(arm3_agnostic, perturbed_demos,
                                   dataclasses.replace(cfg, epochs=0), seed=18)
    assert history["holdout_final"] < untrained["holdout_final"]
    returns = evaluate_policy(bundle, "arm3-perturbed", 4, seed=19)
    assert all(np.isfinite(returns))
    save_policy(tmp_path / "moved.ckpt", bundle)
    back = load_policy(tmp_path / "moved.ckpt")
    assert back.digest() == bundle.digest()
    assert evaluate_policy(back, "arm3-perturbed", 4, seed=19) == returns


def test_transfer_without_epochs_keeps_the_source_bytes(arm3_agnostic, perturbed_demos):
    moved, history = transfer_policy(arm3_agnostic, perturbed_demos,
                                     CVAEConfig(latent_dim=2, epochs=0), seed=1)
    for name in ("encoder", "decoder"):
        assert (getattr(moved.codec, name).params.tobytes()
                == getattr(arm3_agnostic.codec, name).params.tobytes())
    assert moved.actor.params.tobytes() == arm3_agnostic.actor.params.tobytes()
    assert moved.codec.frozen and history["loss"] == [] and history["holdout_recon"] == []
    assert np.isfinite(history["holdout_final"])


def test_transfer_retrains_only_the_decoder_of_a_copy(arm3_agnostic, perturbed_demos):
    source_digest = arm3_agnostic.digest()
    moved, history = transfer_policy(arm3_agnostic, perturbed_demos,
                                     CVAEConfig(latent_dim=2, epochs=3), seed=2)
    src = arm3_agnostic.codec
    assert moved.codec.encoder.params.tobytes() == src.encoder.params.tobytes()
    assert moved.codec.encoder.step == src.encoder.step
    assert not np.array_equal(moved.codec.decoder.params, src.decoder.params)
    assert moved.codec.decoder.step > src.decoder.step
    assert arm3_agnostic.digest() == source_digest
    assert len(history["loss"]) == len(history["holdout_recon"]) == 3
    for ours in trees_in(moved):
        for theirs in trees_in(arm3_agnostic):
            for a in BUFFERS:
                for b in BUFFERS:
                    assert not np.shares_memory(getattr(ours, a), getattr(theirs, b))


def test_transfer_needs_the_source_codec_architecture_and_widths(arm3_agnostic,
                                                                 perturbed_demos):
    arm6 = envsim.collect_demos("arm6", n_episodes=2, seed=0, min_success_rate=0.0)
    with pytest.raises(ConfigError, match="widths"):
        transfer_policy(arm3_agnostic, arm6, CVAEConfig(latent_dim=2, epochs=1))
    with pytest.raises(ConfigError, match="source codec"):
        transfer_policy(arm3_agnostic, perturbed_demos,
                        CVAEConfig(latent_dim=2, decoder_hidden=(32, 32), epochs=1))
