"""Conditional variational autoencoder over actions.

The encoder maps a state-action pair to a diagonal Gaussian over a
low-dimensional latent; the decoder maps (state, latent) back to an action:
its tanh output is the action, inside the env's unit action box. Both
networks see states only as features (`envsim.feature_map`), computed once
per state: `encode` and `decode` take (N, feat_dim) feature rows and (N, d)
action or latent rows as two column blocks, and both trainers featurize the
demos once (`_split`) and keep each split's features and actions apart.

Latent actions live in the open box (-1, 1)^d: the encoding every network
sees is tanh of the posterior mean, and training squashes the
reparameterized draw, so the latent box matches what a squashed-Gaussian
policy emits. The KL regularizer is computed on the pre-squash Gaussian
against a standard-normal prior, which equals the KL between the squashed
distributions exactly (KL is invariant under the shared bijection).

Training minimizes  ||a - decode(s, sample)||^2 + beta * KL  per pair with a
single reparameterized sample, on expert demonstrations only. `train_codec`
trains both networks from a fresh init. `retrain_decoder` moves a codec to
another env with the same feature and action widths: it retrains only the
decoder, against the source encoder, which stays frozen and runs once over
the target demos before the first epoch, so the latents the policy learned
in keep their meaning.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import envsim
from .configio import read_checkpoint, write_checkpoint
from .errors import ConfigError, QualityGateError, StateError
from .nncore import (
    GaussianDist,
    MLPSpec,
    ParamTree,
    chunked_rows,
    gaussian_head,
    tree_from_state,
    tree_state,
)


@dataclass(frozen=True)
class CVAEConfig:
    latent_dim: int = 4
    beta: float = 2e-4
    encoder_hidden: tuple = (64, 64)
    decoder_hidden: tuple = (64, 64)
    activation: str = "leaky_relu"
    epochs: int = 200
    batch_size: int = 128
    lr: float = 1e-3
    holdout_fraction: float = 0.1

    def __post_init__(self):
        if self.latent_dim < 1:
            raise ConfigError("latent_dim must be positive")
        if self.beta < 0:
            raise ConfigError("beta must be non-negative")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be non-negative and batch_size positive")
        if not (0.0 <= self.lr < np.inf and 0.0 <= self.holdout_fraction < 1.0):
            raise ConfigError("lr must be finite and non-negative, holdout_fraction in [0, 1)")
        for name in ("encoder_hidden", "decoder_hidden"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def canonical(self) -> str:
        return (
            f"cvae:d={self.latent_dim};beta={self.beta!r};"
            f"enc={','.join(map(str, self.encoder_hidden))};"
            f"dec={','.join(map(str, self.decoder_hidden))};act={self.activation}"
        )


def encoder_spec(feat_dim: int, action_dim: int, cfg: CVAEConfig) -> MLPSpec:
    return MLPSpec(feat_dim + action_dim, cfg.encoder_hidden, 2 * cfg.latent_dim,
                   activation=cfg.activation)


def decoder_spec(feat_dim: int, action_dim: int, cfg: CVAEConfig) -> MLPSpec:
    return MLPSpec(feat_dim + cfg.latent_dim, cfg.decoder_hidden, action_dim,
                   activation=cfg.activation, output_activation="tanh")


@dataclass
class ActionCodec:
    encoder: ParamTree
    decoder: ParamTree
    config: CVAEConfig
    env_id: str
    frozen: bool = False

    @property
    def latent_dim(self) -> int:
        return self.config.latent_dim

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.encoder.digest().encode())
        h.update(self.decoder.digest().encode())
        h.update(self.config.canonical().encode())
        return h.hexdigest()

    def copy(self, frozen: bool | None = None) -> "ActionCodec":
        return ActionCodec(self.encoder.copy(), self.decoder.copy(), self.config,
                           self.env_id, self.frozen if frozen is None else frozen)

    def require_mutable(self):
        if self.frozen:
            raise StateError("codec is frozen; its parameters must not change")


def make_codec(env_id: str, cfg: CVAEConfig, seed) -> ActionCodec:
    spec = envsim.env_spec(env_id)
    if cfg.latent_dim >= spec.action_dim:
        warnings.warn(
            f"latent_dim {cfg.latent_dim} >= action_dim {spec.action_dim} on "
            f"{env_id}: the action abstraction is vacuous",
            RuntimeWarning,
        )
    rng = np.random.default_rng(seed)
    feat = envsim.feature_dim(env_id)
    return ActionCodec(encoder=ParamTree.init(encoder_spec(feat, spec.action_dim, cfg), rng),
                       decoder=ParamTree.init(decoder_spec(feat, spec.action_dim, cfg), rng),
                       config=cfg, env_id=env_id)


# ---------------------------------------------------------------------------
# encode / decode


def encode(codec: ActionCodec, feats, actions, record: bool = False) -> GaussianDist:
    """Posterior over the pre-squash latent; tanh of its mean is the latent
    action. `feats` are (N, feat_dim) state features, not raw env states;
    `ConfigError` if an entry of either block is non-finite."""
    _require_finite(feats, actions)
    dist, _ = gaussian_head(codec.encoder.forward(feats, actions, record=record))
    return dist


def _require_finite(feats, actions):
    if not (np.isfinite(feats).all() and np.isfinite(actions).all()):
        raise ConfigError("non-finite inputs to encode")


def encode_mean(codec: ActionCodec, feats, actions, record: bool = False) -> np.ndarray:
    """Deterministic latent encoding: tanh of the posterior mean."""
    return np.tanh(encode(codec, feats, actions, record=record).mean)


def encode_mean_backward(codec: ActionCodec, u, d_u, accumulate: bool = True):
    """Backward pass of the recorded `encode_mean` that returned `u`, from
    d loss / d u: chains through tanh into the mean half of the encoder head
    (the log-std half gets none). Accumulates the encoder's gradients, or
    without `accumulate` returns d loss / d (features, actions) instead."""
    d_mean = d_u * (1.0 - u * u)
    return codec.encoder.backward(np.concatenate([d_mean, np.zeros_like(d_mean)], axis=1),
                                  accumulate=accumulate, input_grad=not accumulate)


def decode(codec: ActionCodec, feats, latents, record: bool = False) -> np.ndarray:
    """Map (N, latent_dim) latent actions at (N, feat_dim) state features back
    to env actions: the decoder's tanh output, strictly inside the unit box."""
    return codec.decoder.forward(feats, latents, record=record)


# ---------------------------------------------------------------------------
# loss


def cvae_loss(codec: ActionCodec, feats, actions, noise) -> tuple:
    """Reconstruction + beta * KL, averaged over the batch of (feature,
    action) rows; loss = recon + beta*kl."""
    loss, parts, _ = _cvae_forward(codec, feats, actions, noise, record=False)
    return loss, parts


def _cvae_forward(codec, feats, actions, noise, record):
    dist, ls_ok = gaussian_head(codec.encoder.forward(feats, actions, record=record))
    abar = np.tanh(dist.sample(noise))
    recon_term, err = _recon_error(codec, feats, actions, abar, record)
    kl_term = float(np.add.reduce(dist.kl_to_standard())) / len(feats)
    loss = recon_term + codec.config.beta * kl_term
    cache = (dist, ls_ok, abar, err)
    return loss, {"recon": recon_term, "kl": kl_term}, cache


def _recon_error(codec, feats, actions, latents, record):
    """The batch mean of ||decode(feats, latents) - actions||^2, and the
    error rows."""
    err = decode(codec, feats, latents, record=record) - actions
    return float(np.add.reduce(np.add.reduce(err * err, 1))) / len(err), err


def _decoder_backward(codec, err, input_grad=True):
    """Backward pass of the recorded decode behind `_recon_error`'s `err`:
    accumulates the decoder's gradients of the batch-mean squared error and
    returns d loss / d (features, latents), or None without `input_grad`."""
    return codec.decoder.backward((2.0 / len(err)) * err, input_grad=input_grad)


def cvae_loss_and_grad(codec: ActionCodec, feats, actions, noise) -> tuple:
    """As cvae_loss, but also accumulates encoder/decoder gradients."""
    loss, parts, cache = _cvae_forward(codec, feats, actions, noise, record=True)
    dist, ls_ok, abar, err = cache
    sigma = dist.std
    B = len(feats)
    beta = codec.config.beta
    d_z = _decoder_backward(codec, err)[1] * (1.0 - abar * abar)
    d_mean = d_z + (beta / B) * dist.mean
    d_log_std = d_z * sigma * noise + (beta / B) * (sigma * sigma - 1.0)
    # log-std clamp subgradient: zero where the head output was clipped
    codec.encoder.backward(np.concatenate([d_mean, d_log_std * ls_ok], axis=1), input_grad=False)
    return loss, parts


# ---------------------------------------------------------------------------
# training


def train_codec(demos: envsim.DemoBuffer, cfg: CVAEConfig, seed) -> tuple:
    """Minibatch Adam on the CVAE loss over expert demos.

    Returns (codec, history). Episodes are split 90/10 into train/held-out
    sets; the held-out reconstruction error must beat predicting the train
    corpus mean action or the codec is rejected. The demos' features and
    actions are checked finite once before the first epoch, and the train
    split keeps them as two arrays; each minibatch gathers its rows of both.
    """
    seq = np.random.SeedSequence(seed) if not isinstance(seed, np.random.SeedSequence) else seed
    init_rng, batch_rng = (np.random.default_rng(s) for s in seq.spawn(2))
    codec = make_codec(demos.env_id, cfg, init_rng)

    F_tr, A_tr, F_ho, A_ho = _split(demos, cfg.holdout_fraction)

    def step(idx, noise):
        return cvae_loss_and_grad(codec, F_tr[idx], A_tr[idx], noise)

    history = _fit(cfg, batch_rng, step, (codec.encoder, codec.decoder),
                   lambda: holdout_reconstruction_mse(codec, F_ho, A_ho), A_tr, A_ho)
    return codec, history


def retrain_decoder(source: ActionCodec, demos: envsim.DemoBuffer, cfg: CVAEConfig,
                    seed) -> tuple:
    """Decoder retraining: minibatch Adam on the CVAE loss over `demos` for
    the decoder of a copy of `source`, relabelled to `demos.env_id`. The
    encoder is the source's, bit for bit, so latents keep their meaning.

    Returns (codec, history) with `train_codec`'s episode split, history and
    quality gate. The fixed encoder runs once, before the first epoch, over
    the train and held-out rows in `cfg.batch_size`-row chunks; each
    minibatch then draws its latents from the stored posterior means and
    stds and decodes them, and its KL term is the fixed encoder's. `ConfigError` unless `cfg` is the
    source's architecture and the demos' env has the source env's feature and
    action widths.
    """
    if cfg.canonical() != source.config.canonical():
        raise ConfigError(f"codec config {cfg.canonical()!r} is not the source codec's "
                          f"{source.config.canonical()!r}")
    widths = {env_id: (envsim.feature_dim(env_id), envsim.env_spec(env_id).action_dim)
              for env_id in (source.env_id, demos.env_id)}
    if widths[source.env_id] != widths[demos.env_id]:
        raise ConfigError(f"a {source.env_id} codec has (feature, action) widths "
                          f"{widths[source.env_id]}; {demos.env_id} has {widths[demos.env_id]}")
    codec = ActionCodec(source.encoder.copy(), source.decoder.copy(), source.config,
                        demos.env_id)
    batch_rng = np.random.default_rng(seed)

    F_tr, A_tr, F_ho, A_ho = _split(demos, cfg.holdout_fraction)
    d = cfg.latent_dim
    P_tr = _posteriors(codec, F_tr, A_tr, cfg.batch_size)
    U_ho = np.tanh(_posteriors(codec, F_ho, A_ho, cfg.batch_size)[:, :d])

    def step(idx, noise):
        p = P_tr[idx]
        recon, err = _recon_error(codec, F_tr[idx], A_tr[idx],
                                  np.tanh(p[:, :d] + p[:, d : 2 * d] * noise), record=True)
        _decoder_backward(codec, err, input_grad=False)
        kl_term = float(np.add.reduce(p[:, -1])) / len(idx)
        return recon + cfg.beta * kl_term, {"recon": recon, "kl": kl_term}

    history = _fit(cfg, batch_rng, step, (codec.decoder,),
                   lambda: _recon_error(codec, F_ho, A_ho, U_ho, record=False)[0], A_tr, A_ho)
    return codec, history


def _posteriors(codec: ActionCodec, feats, actions, chunk: int) -> np.ndarray:
    """Each row's posterior mean, std and KL under the encoder, as (N, 2d + 1)
    rows; the encoder runs in `nncore.chunked_rows` chunks of `chunk` rows."""
    def rows(f, a):
        dist = encode(codec, f, a)
        return np.column_stack([dist.mean, dist.std, dist.kl_to_standard()])
    return chunked_rows(rows, chunk, feats, actions)


def _split(demos: envsim.DemoBuffer, holdout_fraction: float) -> tuple:
    """(F_tr, A_tr, F_ho, A_ho): the features and actions of the demos' train
    and held-out episodes (`_split_episodes`), featurized once and checked
    finite (`ConfigError`); the four arrays are copies."""
    tr_idx, ho_idx = _split_episodes(demos, holdout_fraction)
    feats = envsim.feature_map(demos.env_id, demos.states)
    _require_finite(feats, demos.actions)
    return feats[tr_idx], demos.actions[tr_idx], feats[ho_idx], demos.actions[ho_idx]


def _split_episodes(demos: envsim.DemoBuffer, holdout_fraction: float) -> tuple:
    """Row indices of the train and held-out episodes: the last
    `holdout_fraction` of the episodes, at least one, are held out; a single
    episode is both."""
    h = envsim.env_spec(demos.env_id).horizon
    rows, n_eps = np.arange(len(demos)), len(demos) // h
    cut = (n_eps - max(1, int(round(holdout_fraction * n_eps)))) * h
    return (rows[:cut], rows[cut:]) if cut > 0 else (rows, rows)


def _fit(cfg: CVAEConfig, rng, step, trees, holdout, A_tr, A_ho) -> dict:
    """`cfg.epochs` epochs of minibatch Adam over the train split's rows;
    returns the history. `step(idx, noise)` accumulates the gradients of the
    rows' loss and returns (loss, {"recon", "kl"}), then each of `trees` takes
    an Adam step. `holdout()` is the held-out reconstruction MSE, which must
    beat predicting the train split's mean action `A_tr` on `A_ho`."""
    history = {"loss": [], "recon": [], "kl": [], "holdout_recon": []}
    n = len(A_tr)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        ep_loss, ep_recon, ep_kl, n_batches = 0.0, 0.0, 0.0, 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            noise = rng.standard_normal((len(idx), cfg.latent_dim))
            loss, parts = step(idx, noise)
            if not np.isfinite(loss):
                raise QualityGateError(
                    f"CVAE loss became non-finite (recon={parts['recon']}, kl={parts['kl']})"
                )
            for tree in trees:
                tree.adam_step(cfg.lr)
            ep_loss += loss
            ep_recon += parts["recon"]
            ep_kl += parts["kl"]
            n_batches += 1
        history["loss"].append(ep_loss / n_batches)
        history["recon"].append(ep_recon / n_batches)
        history["kl"].append(ep_kl / n_batches)
        history["holdout_recon"].append(holdout())

    baseline = float(np.mean(np.sum((A_ho - A_tr.mean(axis=0)) ** 2, axis=1)))
    final = history["holdout_recon"][-1] if cfg.epochs > 0 else holdout()
    history["holdout_baseline"] = baseline
    history["holdout_final"] = final
    if cfg.epochs > 0 and final >= baseline:
        raise QualityGateError(
            f"codec rejected: held-out reconstruction {final:.6f} does not beat "
            f"the corpus-mean baseline {baseline:.6f}"
        )
    return history


def holdout_reconstruction_mse(codec: ActionCodec, feats, actions) -> float:
    """Mean squared reconstruction error of the deterministic round trip."""
    return _recon_error(codec, feats, actions, encode_mean(codec, feats, actions), False)[0]


# ---------------------------------------------------------------------------
# checkpoints


def codec_state(codec: ActionCodec, prefix: str = "") -> tuple:
    """Checkpoint header fields and arrays of `codec`, every name under
    `prefix`; the env comes from the checkpoint's own `env_id`."""
    header = {prefix + "config": asdict(codec.config),
              prefix + "frozen": codec.frozen}
    arrays = {}
    for name, tree in (("encoder", codec.encoder), ("decoder", codec.decoder)):
        h, a = tree_state(tree, prefix + name)
        header.update(h)
        arrays.update(a)
    return header, arrays


def codec_from_state(header: dict, arrays: dict, prefix: str = "") -> ActionCodec:
    """Inverse of `codec_state`: the codec of the config the header saved."""
    cfg = CVAEConfig(**header[prefix + "config"])
    env_id = header["env_id"]
    spec = envsim.env_spec(env_id)
    feat = envsim.feature_dim(env_id)
    enc = tree_from_state(encoder_spec(feat, spec.action_dim, cfg), header, arrays,
                          prefix + "encoder")
    dec = tree_from_state(decoder_spec(feat, spec.action_dim, cfg), header, arrays,
                          prefix + "decoder")
    return ActionCodec(encoder=enc, decoder=dec, config=cfg, env_id=env_id,
                       frozen=bool(header[prefix + "frozen"]))


def save_codec(path, codec: ActionCodec) -> None:
    header, arrays = codec_state(codec)
    header.update(kind="codec", env_id=codec.env_id,
                  env_digest=envsim.env_spec(codec.env_id).digest())
    write_checkpoint(path, header, arrays)


def load_codec(path) -> ActionCodec:
    """The codec `save_codec` wrote at `path`, in its saved config."""
    return read_checkpoint(path, "codec", codec_from_state)
