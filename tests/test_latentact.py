import copy
import dataclasses

import numpy as np
import pytest

import rowwise
from conftest import assert_grads_close, fd_loss_gradient, float64
from lapal import configio, envsim, latentact, nncore
from lapal.errors import CheckpointError, ConfigError, QualityGateError
from lapal.nncore import gaussian_head
from lapal.latentact import (
    ActionCodec,
    CVAEConfig,
    cvae_loss,
    cvae_loss_and_grad,
    decode,
    encode,
    encode_mean,
    make_codec,
    train_codec,
)

TINY = CVAEConfig(latent_dim=2, encoder_hidden=(16, 16), decoder_hidden=(16, 16),
                  epochs=8, batch_size=64)


@pytest.fixture(scope="module")
def pm_demos():
    return envsim.collect_demos("pointmass", n_episodes=24, seed=0)


@pytest.mark.parametrize("field,value", [
    ("epochs", -1), ("batch_size", 0), ("batch_size", -3), ("lr", -1e-3),
    ("lr", float("nan")), ("holdout_fraction", 1.0), ("holdout_fraction", -0.1),
])
def test_cvae_config_rejects_values_that_cannot_train(field, value):
    with pytest.raises(ConfigError):
        CVAEConfig(latent_dim=2, **{field: value})


def test_fresh_codec_encodes_finite(pm_demos):
    codec = make_codec("pointmass", TINY, 0)
    d = encode(codec, pm_demos.states[:16], pm_demos.actions[:16])
    assert np.all(np.isfinite(d.mean))
    assert np.all(d.log_std >= -10.0) and np.all(d.log_std <= 2.0)


def test_encode_is_pure(pm_demos):
    codec = make_codec("pointmass", TINY, 1)
    s, a = pm_demos.states[:4], pm_demos.actions[:4]
    d1, d2 = encode(codec, s, a), encode(codec, s, a)
    np.testing.assert_array_equal(d1.mean, d2.mean)
    np.testing.assert_array_equal(d1.log_std, d2.log_std)


def test_latent_warning_when_vacuous():
    with pytest.warns(RuntimeWarning):
        make_codec("pointmass", CVAEConfig(latent_dim=2), 0)  # action_dim == 2


def test_decode_strictly_inside_bounds():
    rng = np.random.default_rng(2)
    codec = make_codec("arm6", CVAEConfig(latent_dim=4, encoder_hidden=(8,),
                                          decoder_hidden=(8,)), 3)
    codec.decoder.layers[-1].w *= 100.0  # saturate
    s = envsim.feature_map("arm6",
                           np.stack([envsim.env_reset("arm6", i) for i in range(32)]))
    z = rng.uniform(-1, 1, (32, 4))
    a = decode(codec, s, z)
    assert np.all(a > -1.0) and np.all(a < 1.0)


def test_float32_decode_strictly_inside_bounds_when_saturated():
    # pre-activations far past the point where tanh rounds to +-1.0: the
    # output activation and its cap run in float64, so no action reaches a bound
    codec = make_codec("arm3", CVAEConfig(latent_dim=2, encoder_hidden=(8,),
                                          decoder_hidden=(8,)), 4)
    assert codec.decoder.dtype == np.float32
    codec.decoder.layers[-1].w *= 1e4
    feats = envsim.feature_map("arm3", np.stack([envsim.env_reset("arm3", i)
                                                 for i in range(64)]))
    z = np.random.default_rng(5).uniform(-1, 1, (64, 2))
    a = decode(codec, feats, z)
    assert a.dtype == np.float64
    assert np.all(np.abs(a) < 1.0) and np.any(np.abs(a) == nncore.TANH_CAP)


def test_zero_decoder_maps_to_bound_midpoint():
    codec = make_codec("arm6", CVAEConfig(latent_dim=4), 0)
    for layer in codec.decoder.layers:
        layer.w[...] = 0.0
        layer.b[...] = 0.0
    s = envsim.feature_map("arm6", envsim.env_reset("arm6", 0))
    np.testing.assert_array_equal(decode(codec, s[None], np.zeros((1, 4))), np.zeros((1, 6)))


def test_perfect_reconstruction_zero_loss():
    # 1-D action equal to a fixed constant; craft decoder bias to reproduce it
    codec = make_codec("pointmass", CVAEConfig(latent_dim=2, beta=0.0), 0)
    for layer in codec.decoder.layers:
        layer.w[...] = 0.0
        layer.b[...] = 0.0
    actions = np.zeros((8, 2))  # tanh(0) * high = 0 reproduces them exactly
    states = np.stack([envsim.env_reset("pointmass", i) for i in range(8)])
    loss, parts = cvae_loss(codec, states, actions, np.zeros((8, 2)))
    assert loss == 0.0 and parts["recon"] == 0.0


def test_degenerate_posterior_zero_kl():
    codec = make_codec("pointmass", CVAEConfig(latent_dim=2), 0)
    for layer in codec.encoder.layers:
        layer.w[...] = 0.0
        layer.b[...] = 0.0
    s = np.stack([envsim.env_reset("pointmass", i) for i in range(4)])
    a = np.zeros((4, 2))
    _, parts = cvae_loss(codec, s, a, np.zeros((4, 2)))
    assert parts["kl"] == 0.0


def test_loss_decomposition_matches_straight_line_oracle(pm_demos):
    """Recompute the loss with an independent inline implementation."""
    cfg = CVAEConfig(latent_dim=2, beta=0.05, encoder_hidden=(16,), decoder_hidden=(16,))
    codec = float64(make_codec("pointmass", cfg, 0))
    rng = np.random.default_rng(7)
    S, A = pm_demos.states[:4], pm_demos.actions[:4]
    noise = rng.standard_normal((4, 2))
    loss, parts = cvae_loss(codec, S, A, noise)

    # straight-line re-implementation using raw matrices
    def leaky(x):
        return np.where(x >= 0, x, 0.01 * x)

    enc = codec.encoder.layers
    h = leaky(np.concatenate([S, A], axis=1) @ enc[0].w + enc[0].b)
    raw = h @ enc[1].w + enc[1].b
    mu, ls = raw[:, :2], np.clip(raw[:, 2:], -10, 2)
    z = mu + np.exp(ls) * noise
    abar = np.tanh(z)
    dec = codec.decoder.layers
    h2 = leaky(np.concatenate([S, abar], axis=1) @ dec[0].w + dec[0].b)
    ahat = np.tanh(h2 @ dec[1].w + dec[1].b) * 1.0
    recon = np.mean(np.sum((A - ahat) ** 2, axis=1))
    kl = np.mean(np.sum(0.5 * (mu**2 + np.exp(2 * ls) - 1.0) - ls, axis=1))
    assert parts["recon"] == pytest.approx(recon, rel=1e-12)
    assert parts["kl"] == pytest.approx(kl, rel=1e-12)
    assert loss == pytest.approx(recon + 0.05 * kl, rel=1e-12)


def test_cvae_gradients_match_finite_differences(pm_demos):
    cfg = CVAEConfig(latent_dim=2, beta=0.1, encoder_hidden=(12, 12),
                     decoder_hidden=(12, 12))
    codec = float64(make_codec("pointmass", cfg, 5))
    rng = np.random.default_rng(6)
    S, A = pm_demos.states[:8], pm_demos.actions[:8]
    noise = rng.standard_normal((8, 2))
    cvae_loss_and_grad(codec, S, A, noise)

    def loss_fn():
        return cvae_loss(codec, S, A, noise)[0]

    _, fd, analytic = fd_loss_gradient(loss_fn, [codec.encoder, codec.decoder],
                                       n_probes=120, seed=8)
    assert_grads_close(fd, analytic, rtol=1e-4)


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_cvae_step_matches_earlier_form(precision):
    demos = envsim.collect_demos("arm3", n_episodes=2, seed=1)
    S = envsim.feature_map("arm3", demos.states[:96])
    A = demos.actions[:96]
    noise = np.random.default_rng(2).standard_normal((96, 2))
    codecs = [make_codec("arm3", CVAEConfig(latent_dim=2, beta=0.05), 3) for _ in range(2)]
    for codec in codecs:
        codec.encoder.layers[-1].w[:, 2:] *= 30.0      # push log-stds past both clamps
        if precision == "float64":
            float64(codec)
    ours, theirs = codecs
    mask = gaussian_head(ours.encoder.forward(S, A))[1]
    assert 0.0 < mask.mean() < 1.0
    for _ in range(2):                                  # the second call accumulates
        assert (cvae_loss_and_grad(ours, S, A, noise)
                == rowwise.batched_cvae_loss_and_grad(theirs, S, A, noise))
        for a, b in ((ours.encoder, theirs.encoder), (ours.decoder, theirs.decoder)):
            assert a.grads.tobytes() == b.grads.tobytes()
    assert cvae_loss(ours, S, A, noise) == cvae_loss(theirs, S, A, noise)


@pytest.mark.parametrize("epochs", [0, 1])
def test_train_codec_rejects_non_finite_demos(pm_demos, epochs):
    holdout_row = len(pm_demos) - 1
    for name, row, value in (("states", 5, np.nan), ("actions", 5, np.inf),
                             ("states", holdout_row, -np.inf), ("actions", holdout_row, np.nan)):
        bad = getattr(pm_demos, name).copy()
        bad[row, 0] = value
        demos = copy.copy(pm_demos)     # the constructor would step, and reject, the bad row
        setattr(demos, name, bad)
        with pytest.raises(ConfigError, match="non-finite"):
            train_codec(demos, CVAEConfig(latent_dim=2, epochs=epochs), seed=0)


def test_config_string_names_the_architecture_only():
    """The config string that codec digests and files hash names the
    architecture; training-only settings leave it alone."""
    cfg = CVAEConfig(latent_dim=3, beta=0.5, encoder_hidden=(8, 4), decoder_hidden=(6,))
    assert cfg.canonical() == "cvae:d=3;beta=0.5;enc=8,4;dec=6;act=leaky_relu"
    trained = dataclasses.replace(cfg, epochs=1, batch_size=3, lr=0.1, holdout_fraction=0.5)
    assert trained.canonical() == cfg.canonical()


def test_train_epochs_zero_returns_init(pm_demos):
    cfg = CVAEConfig(latent_dim=2, epochs=0)
    codec, history = train_codec(pm_demos, cfg, seed=3)
    fresh = make_codec("pointmass", cfg,
                       np.random.default_rng(np.random.SeedSequence(3).spawn(2)[0]))
    assert codec.encoder.digest() == fresh.encoder.digest()
    assert history["loss"] == []


@pytest.mark.parametrize("epochs", [0, 1, 3])
def test_holdout_reconstruction_runs_once_per_epoch(pm_demos, monkeypatch, epochs):
    """The final held-out error is the last epoch's; with no epochs it is the
    untrained codec's, computed once."""
    calls, mse = [], latentact.holdout_reconstruction_mse
    monkeypatch.setattr(latentact, "holdout_reconstruction_mse",
                        lambda *args: calls.append(mse(*args)) or calls[-1])
    _, history = train_codec(pm_demos, CVAEConfig(latent_dim=2, epochs=epochs), seed=9)
    assert len(calls) == max(epochs, 1)
    assert history["holdout_final"] == calls[-1]
    assert history["holdout_recon"] == calls[:epochs]


def test_retrain_decoder_epoch_is_the_decoder_half_of_the_cvae_step():
    """One retraining epoch in one minibatch is `cvae_loss_and_grad` on the
    source codec, relabelled, over the train split in the epoch's order with
    its noise, then an Adam step of the decoder alone (float64, to 1e-12)."""
    source_demos = envsim.collect_demos("arm3", n_episodes=16, seed=1)
    target = envsim.collect_demos("arm3-perturbed", n_episodes=8, seed=2)
    cfg = CVAEConfig(latent_dim=2, epochs=1, batch_size=2048)
    source = float64(train_codec(source_demos, CVAEConfig(latent_dim=2, epochs=30), seed=0)[0])
    codec, history = latentact.retrain_decoder(source, target, cfg, seed=5)

    tr_idx, _ = latentact._split_episodes(target, cfg.holdout_fraction)
    rng = np.random.default_rng(5)
    order = rng.permutation(len(tr_idx))
    assert len(order) <= cfg.batch_size
    noise = rng.standard_normal((len(order), 2))
    ref = dataclasses.replace(source.copy(), env_id="arm3-perturbed")
    feats = envsim.feature_map("arm3-perturbed", target.states)
    loss, parts = cvae_loss_and_grad(ref, feats[tr_idx][order], target.actions[tr_idx][order],
                                     noise)
    ref.decoder.adam_step(cfg.lr)
    np.testing.assert_allclose([history["loss"][0], history["recon"][0], history["kl"][0]],
                               [loss, parts["recon"], parts["kl"]], rtol=1e-12)
    np.testing.assert_allclose(codec.decoder.params, ref.decoder.params, rtol=0, atol=1e-12)
    assert codec.encoder.params.tobytes() == source.encoder.params.tobytes()
    assert codec.env_id == "arm3-perturbed" and source.env_id == "arm3"


@pytest.fixture(scope="module")
def pm_codec(pm_demos):
    cfg = CVAEConfig(latent_dim=2, epochs=100, encoder_hidden=(32, 32),
                     decoder_hidden=(32, 32))
    return train_codec(pm_demos, cfg, seed=0)


def test_train_codec_pointmass_reconstruction(pm_demos, pm_codec):
    _, history = pm_codec
    mean_sq = float(np.mean(np.sum(pm_demos.actions**2, axis=1)))
    assert history["holdout_final"] < 0.05 * mean_sq
    assert history["holdout_final"] < history["holdout_recon"][0]


def test_encoded_latents_inside_policy_box(pm_demos, pm_codec):
    # deterministic encodings live strictly inside (-1, 1), the same box a
    # squashed-Gaussian policy emits
    codec, _ = pm_codec
    z = encode_mean(codec, pm_demos.states, pm_demos.actions)
    assert np.all(z > -1.0) and np.all(z < 1.0)


def test_train_determinism(pm_demos):
    cfg = CVAEConfig(latent_dim=2, epochs=3)
    a, _ = train_codec(pm_demos, cfg, seed=9)
    b, _ = train_codec(pm_demos, cfg, seed=9)
    assert a.digest() == b.digest()


def test_beta_monotone_holdout_kl(pm_demos):
    finals = []
    for beta in (0.0, 0.01, 0.1, 1.0):
        cfg = CVAEConfig(latent_dim=2, beta=beta, epochs=12,
                         encoder_hidden=(24, 24), decoder_hidden=(24, 24))
        codec, _ = train_codec(pm_demos, cfg, seed=4)
        d = encode(codec, pm_demos.states, pm_demos.actions)
        finals.append(float(np.mean(d.kl_to_standard())))
    # non-increasing trend across the sweep, one inversion tolerated
    inversions = sum(finals[i + 1] > finals[i] + 1e-9 for i in range(3))
    assert inversions <= 1, finals


def test_frozen_codec_immutable(pm_demos):
    cfg = CVAEConfig(latent_dim=2, epochs=2)
    codec, _ = train_codec(pm_demos, cfg, seed=1)
    codec.frozen = True
    before = codec.digest()
    with pytest.raises(Exception):
        codec.require_mutable()
    # encoding and decoding do not mutate
    encode_mean(codec, pm_demos.states[:64], pm_demos.actions[:64])
    decode(codec, pm_demos.states[:64], np.zeros((64, 2)))
    assert codec.digest() == before


def test_codec_checkpoint_round_trip(tmp_path, pm_demos):
    cfg = CVAEConfig(latent_dim=2, epochs=2)
    codec, _ = train_codec(pm_demos, cfg, seed=2)
    path = tmp_path / "codec.ckpt"
    latentact.save_codec(path, codec)
    latentact.save_codec(tmp_path / "codec2.ckpt", codec)
    assert path.read_bytes() == (tmp_path / "codec2.ckpt").read_bytes()
    back = latentact.load_codec(path)
    assert back.digest() == codec.digest()
    assert back.config.latent_dim == 2
    s, a = pm_demos.states[:8], pm_demos.actions[:8]
    np.testing.assert_array_equal(encode_mean(back, s, a), encode_mean(codec, s, a))


def test_codec_checkpoint_rejects_env_mismatch(tmp_path, pm_demos):
    cfg = CVAEConfig(latent_dim=2, epochs=1)
    codec, _ = train_codec(pm_demos, cfg, seed=0)
    codec.env_id = "arm2"  # lie about provenance; dim crosscheck must catch it
    path = tmp_path / "codec.ckpt"
    latentact.save_codec(path, codec)
    with pytest.raises(CheckpointError):
        latentact.load_codec(path)
    # and a well-formed file (valid checksum) with a wrong env digest is caught too
    codec.env_id = "pointmass"
    latentact.save_codec(path, codec)
    header, arrays = configio.read_checkpoint(path, "codec", lambda h, a: (h, a))
    configio.write_checkpoint(tmp_path / "bad.ckpt", {**header, "env_digest": "0" * 64},
                              arrays)
    with pytest.raises(CheckpointError):
        latentact.load_codec(tmp_path / "bad.ckpt")
