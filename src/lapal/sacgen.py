"""Soft actor-critic generator over a normalized action box.

The actor emits a tanh-squashed diagonal Gaussian, so every emitted action
lies in (-1, 1)^d: for the imitation baseline d is the raw action dimension
and the emissions are the env actions, for latent policies d is the latent
dimension and a decoder turns emissions into env actions. Twin critics with
Polyak-averaged targets score (state, action-box) pairs; episodes terminate
only at the time limit, so TD targets always bootstrap.

Every network here consumes state features (`envsim.feature_map`), never
raw env states. The replay buffer holds the features of s and s', computed
once when the transition is collected, with the raw env action, and no
reward: the discriminator that induces rewards keeps training, so the caller
computes them from it and hands each critic update its batch's rewards.

There is one policy draw: `GaussianDist.sample` reparameterizes the caller's
standard-normal noise, collection (`act`) squashes it, and the learner
(`sample_with_log_prob`) squashes it and adds the log-density, so both see
the same u for the same noise. Log-probabilities of squashed samples use the
exact identity log(1 - tanh(z)^2) = 2(log 2 - z - softplus(-2z)); its
z-derivative is -2 tanh(z), which the hand-assembled actor gradient relies on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StateError
from .nncore import (
    TANH_CAP,
    AdamScalar,
    MLPSpec,
    ParamTree,
    gaussian_head,
    sigmoid,
    softplus,
    tanh_log_jacobian,
)


def squash(z):
    """Capped tanh: emitted actions stay strictly inside the open box."""
    return np.minimum(np.maximum(np.tanh(z), -TANH_CAP), TANH_CAP)


@dataclass(frozen=True)
class SacConfig:
    gamma: float = 0.99
    tau: float = 0.005
    batch_size: int = 128
    buffer_capacity: int = 100_000
    actor_lr: float = 3e-4
    critic_lr: float = 3e-4
    alpha_lr: float = 3e-4          # 0.0 keeps the temperature at init_alpha
    init_alpha: float = 0.2
    actor_hidden: tuple = (64, 64)
    critic_hidden: tuple = (64, 64)

    def __post_init__(self):
        if min(self.batch_size, self.buffer_capacity) < 1 or not 0 < self.init_alpha < np.inf:
            raise ConfigError("batch_size, buffer_capacity and init_alpha must be positive")
        if not (0.0 <= self.tau <= 1.0 and 0.0 <= self.gamma < 1.0 and all(
                0.0 <= lr < np.inf for lr in (self.actor_lr, self.critic_lr, self.alpha_lr))):
            raise ConfigError("tau must be in [0, 1], gamma in [0, 1), learning rates in [0, inf)")


class SacAgent:
    def __init__(self, state_dim: int, u_dim: int, cfg: SacConfig, seed):
        rng = np.random.default_rng(seed)
        self.u_dim = u_dim
        self.cfg = cfg
        self.actor = ParamTree.init(
            MLPSpec(state_dim, cfg.actor_hidden, 2 * u_dim, activation="relu"), rng
        )
        critic_spec = MLPSpec(state_dim + u_dim, cfg.critic_hidden, 1, activation="relu")
        self.critic1 = ParamTree.init(critic_spec, rng)
        self.critic2 = ParamTree.init(critic_spec, rng)
        self.target1 = self.critic1.copy()
        self.target2 = self.critic2.copy()
        self.log_alpha = AdamScalar(float(np.log(cfg.init_alpha)))
        self.target_entropy = -float(u_dim)

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha.value))

    def digest(self) -> str:
        h = hashlib.sha256()
        for tree in (self.actor, self.critic1, self.critic2, self.target1, self.target2):
            h.update(tree.digest().encode())
        h.update(repr(self.log_alpha.value).encode())
        return h.hexdigest()


def act(actor: ParamTree, feats, noise=None) -> np.ndarray:
    """Squashed actions for (N, feat_dim) feature rows: the mean action, or
    the draw that reparameterizes standard-normal `noise`, one row each."""
    raw = actor.forward(feats)
    if noise is None:
        return squash(raw[:, : raw.shape[1] // 2])
    return squash(gaussian_head(raw)[0].sample(noise))


def sample_with_log_prob(agent: SacAgent, states, eps, record: bool = False):
    """Reparameterized squashed sample at standard-normal `eps`, plus its
    log-density. Returns (u, log_prob, dist, clamp_mask); the head's dist and
    log-std clamp mask are what the actor gradient is assembled from."""
    dist, clamp_mask = gaussian_head(agent.actor.forward(states, record=record))
    z = dist.sample(eps)
    gauss = (-0.5 * eps * eps - dist.log_std - 0.5 * np.log(2 * np.pi)).sum(axis=1)
    log_prob = gauss - tanh_log_jacobian(z).sum(axis=1)
    return squash(z), log_prob, dist, clamp_mask


# ---------------------------------------------------------------------------
# replay buffer


class ReplayBuffer:
    """FIFO ring over (features, raw action, next features); no rewards.

    Collection writes each iteration's transitions in one `push`.
    """

    def __init__(self, capacity: int, feat_dim: int, action_dim: int):
        if capacity < 1:
            raise ConfigError("capacity must be positive")
        self.capacity = capacity
        self.states = np.empty((capacity, feat_dim))
        self.actions = np.empty((capacity, action_dim))
        self.next_states = np.empty((capacity, feat_dim))
        self.size = 0
        self.cursor = 0

    def __len__(self):
        return self.size

    def push(self, feats, actions, next_feats) -> None:
        """Append k transitions as (k, d) rows of each column, in order; the
        ring keeps the last `capacity` rows, as k one-row pushes would.
        `ConfigError` unless all three have k rows of their column's width."""
        k = len(feats)
        cols = ((self.states, feats), (self.actions, actions), (self.next_states, next_feats))
        if any(np.shape(rows) != (k, col.shape[1]) for col, rows in cols):
            raise ConfigError(f"push needs k rows of each column's width, got "
                              f"{[np.shape(rows) for _, rows in cols]}")
        kept = min(k, self.capacity)
        idx = (self.cursor + k - kept + np.arange(kept)) % self.capacity
        for col, rows in cols:
            col[idx] = rows[k - kept:]
        self.cursor = (self.cursor + k) % self.capacity
        self.size = min(self.size + k, self.capacity)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Row indices of `n` uniform draws with replacement from the filled rows."""
        if self.size == 0:
            raise StateError("cannot sample from an empty replay buffer")
        return rng.integers(0, self.size, size=n)


# ---------------------------------------------------------------------------
# updates


def polyak_update(agent: SacAgent, tau: float) -> None:
    for critic, target in ((agent.critic1, agent.target1), (agent.critic2, agent.target2)):
        target.params += tau * (critic.params - target.params)


def _twin_q(pair, states, u, record=False):
    """Q values of both networks of a twin `pair` at (state, action-box) rows."""
    return [tree.forward(states, u, record=record)[:, 0] for tree in pair]


def critic_update(agent: SacAgent, states, u, next_states, rewards, rng) -> dict:
    """Twin-critic TD(0) step on (s, u, s') rows and their float64 `rewards`.

    Targets bootstrap unconditionally: episodes end only at the time limit,
    so there is no environment-terminal state to zero out.
    """
    eps = rng.standard_normal((next_states.shape[0], agent.u_dim))
    u2, logp2, _, _ = sample_with_log_prob(agent, next_states, eps)
    soft_value = (np.minimum(*_twin_q((agent.target1, agent.target2), next_states, u2))
                  - agent.alpha * logp2)
    y = rewards + agent.cfg.gamma * soft_value
    losses = {}
    b = states.shape[0]
    critics = (agent.critic1, agent.critic2)
    for name, critic, q in zip(("critic1", "critic2"), critics,
                               _twin_q(critics, states, u, record=True)):
        err = q - y
        losses[name] = float((err * err).sum()) / b
        critic.backward(((2.0 / b) * err)[:, None], input_grad=False)
        critic.adam_step(agent.cfg.critic_lr)
    polyak_update(agent, agent.cfg.tau)
    losses["q_mean"] = float(y.sum()) / b
    return losses


def actor_loss(agent: SacAgent, states, eps) -> float:
    """The actor objective at fixed reparameterization noise (no gradients)."""
    u, log_prob, _, _ = sample_with_log_prob(agent, states, eps)
    qmin = np.minimum(*_twin_q((agent.critic1, agent.critic2), states, u))
    return float((agent.alpha * log_prob - qmin).sum()) / states.shape[0]


def actor_loss_and_grad(agent: SacAgent, states, eps):
    """Accumulate actor gradients of E[alpha log pi - min Q] at fixed noise.

    Returns (loss, u, log_prob). Critic parameters are left untouched (their
    backward pass only transports the input gradient).
    """
    b = states.shape[0]
    u, log_prob, dist, clamp_mask = sample_with_log_prob(agent, states, eps, record=True)
    q1, q2 = _twin_q((agent.critic1, agent.critic2), states, u, record=True)
    qmin = np.minimum(q1, q2)
    alpha = agent.alpha
    loss = float((alpha * log_prob - qmin).sum()) / b

    min1 = (q1 <= q2).astype(np.float64)
    d_u = (agent.critic1.backward((-min1 / b)[:, None], accumulate=False)[1]
           + agent.critic2.backward((-(1.0 - min1) / b)[:, None], accumulate=False)[1])

    # d log_prob / d mean = 2u and / d log_std = -1 + 2u * sigma * eps (from
    # d/dz log(1 - tanh^2 z) = -2 tanh z); the q path chains through
    # du/dz = 1 - u^2
    sigma_eps = dist.std * eps
    dz = d_u * (1.0 - u * u)
    d_mean = (alpha / b) * (2.0 * u) + dz
    d_log_std = (alpha / b) * (-1.0 + 2.0 * u * sigma_eps) + dz * sigma_eps
    agent.actor.backward(np.concatenate([d_mean, d_log_std * clamp_mask], axis=1),
                         input_grad=False)
    return loss, u, log_prob


def actor_update(agent: SacAgent, states, rng) -> dict:
    """Reparameterized policy step: minimize E[alpha log pi(u|s) - min Q(s,u)].

    `states` are the state features every network consumes.
    """
    b = states.shape[0]
    eps = rng.standard_normal((b, agent.u_dim))
    loss, u, log_prob = actor_loss_and_grad(agent, states, eps)
    agent.actor.adam_step(agent.cfg.actor_lr)
    agent.log_alpha.update(-float((log_prob + agent.target_entropy).sum()) / b,
                           agent.cfg.alpha_lr)
    return {"actor": loss, "entropy": float((-log_prob).sum()) / b, "u": u}


def decoder_adversarial_step(codec, discriminator, lr: float, features, u) -> float:
    """One decoder step through the adversarial reward (the aware generator).

    Minimizes mean log(1 - D(f, encode_mean(f, decode(f, u)))) over state
    features f, w.r.t. the decoder parameters only. The emissions `u` are
    constants, so the actor step that produced them is untouched; the encoder
    and discriminator serve purely as the differentiable reward surface.
    """
    from . import adversary, latentact

    codec.require_mutable()
    b = len(features)
    actions = latentact.decode(codec, features, u, record=True)
    abar = latentact.encode_mean(codec, features, actions, record=True)
    logits = adversary.disc_logit(discriminator, features, abar, record=True)
    loss = float((-softplus(logits)).sum()) / b
    d_abar = discriminator.tree.backward((-sigmoid(logits) / b)[:, None], accumulate=False)[1]
    d_actions = latentact.encode_mean_backward(codec, abar, d_abar, accumulate=False)[1]
    codec.decoder.backward(d_actions, input_grad=False)
    codec.decoder.adam_step(lr)
    return loss
