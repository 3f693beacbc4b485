"""Discriminator between expert and agent pairs, and the reward it induces.

The network emits one raw logit l; the classification probability is
sigmoid(l) but all arithmetic stays in logit space. The training loss is the
numerically stable binary cross-entropy

    loss = mean softplus(-l_expert) + mean softplus(l_agent)

whose minimization ascends  E_expert[log D] + E_agent[log(1 - D)].  The
generator reward is -log(1 - D(s, u)) = softplus(l): finite and non-negative
for every finite logit, so the classic overflow of the naive formula cannot
occur. The network takes (N, state_dim) feature rows and (N, u_dim) action
or latent rows as two column blocks and returns one input gradient per block.
Input composition (raw action vs latent, dims, env) is recorded next to the
weights so mismatched pairings are rejected at load time.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import envsim
from .configio import read_checkpoint, write_checkpoint
from .errors import CheckpointError, ConfigError
from .nncore import MLPSpec, ParamTree, sigmoid, softplus, tree_from_state, tree_state


@dataclass(frozen=True)
class DiscComposition:
    """What the discriminator classifies: (state, raw action) or (state, latent)."""

    env_id: str
    input_kind: str                    # "raw" | "latent"
    state_dim: int
    u_dim: int
    codec_digest: str = ""             # latent mode only

    def __post_init__(self):
        if self.input_kind not in ("raw", "latent"):
            raise ConfigError(f"unknown discriminator input kind {self.input_kind!r}")

    def canonical(self) -> str:
        return (
            f"disc:{self.env_id};{self.input_kind};s={self.state_dim};"
            f"u={self.u_dim};codec={self.codec_digest}"
        )


@dataclass
class Discriminator:
    tree: ParamTree
    composition: DiscComposition

    @property
    def spec(self) -> MLPSpec:
        return self.tree.spec

    def digest(self) -> str:
        return self.tree.digest()


def make_discriminator(composition: DiscComposition, hidden, seed) -> Discriminator:
    spec = MLPSpec(composition.state_dim + composition.u_dim, tuple(hidden), 1,
                   activation="tanh")
    return Discriminator(tree=ParamTree.init(spec, np.random.default_rng(seed)),
                         composition=composition)


def disc_logit(d: Discriminator, states, actions, record: bool = False) -> np.ndarray:
    return d.tree.forward(states, actions, record=record)[:, 0]


def disc_reward(d: Discriminator, states, actions) -> np.ndarray:
    """-log(1 - D) computed as softplus(logit): finite, >= 0."""
    return softplus(disc_logit(d, states, actions))


def disc_loss(d: Discriminator, expert_batch, agent_batch) -> float:
    se, ue = expert_batch
    sa, ua = agent_batch
    le = disc_logit(d, se, ue)
    la = disc_logit(d, sa, ua)
    return float(np.mean(softplus(-le)) + np.mean(softplus(la)))


def disc_loss_and_grad(d: Discriminator, expert_batch, agent_batch,
                       want_input_grads: bool = False):
    """Accumulate discriminator gradients for one balanced minibatch.

    Expert rows are labeled 1, agent rows 0. With want_input_grads it returns
    (loss, (d_states, d_u)): the per-row gradients of the loss w.r.t. the
    state and u inputs, expert rows first, which is what chains the loss into
    an action encoder when the latent space itself is being trained.
    """
    se, ue = expert_batch
    sa, ua = agent_batch
    ne, na = len(se), len(sa)
    if ne == 0 or na == 0:
        raise ConfigError("both discriminator batches must be non-empty")
    logits = disc_logit(d, np.concatenate([se, sa]), np.concatenate([ue, ua]), record=True)
    le, la = logits[:ne], logits[ne:]
    loss = float(np.mean(softplus(-le)) + np.mean(softplus(la)))
    upstream = np.empty((ne + na, 1))
    upstream[:ne, 0] = (sigmoid(le) - 1.0) / ne
    upstream[ne:, 0] = sigmoid(la) / na
    d_in = d.tree.backward(upstream, input_grad=want_input_grads)
    return (loss, d_in) if want_input_grads else loss


# ---------------------------------------------------------------------------
# checkpoints


def save_discriminator(path, d: Discriminator) -> None:
    comp = d.composition
    header, arrays = tree_state(d.tree, "tree")
    header.update(kind="disc", env_id=comp.env_id,
                  env_digest=envsim.env_spec(comp.env_id).digest(),
                  composition=asdict(comp), hidden=d.spec.hidden)
    write_checkpoint(path, header, arrays)


def load_discriminator(path, expected: DiscComposition | None = None) -> Discriminator:
    def build(header, arrays):
        comp = DiscComposition(**header["composition"])
        if comp.env_id != header["env_id"]:
            raise CheckpointError(f"composition env {comp.env_id} != {header['env_id']}")
        if expected is not None and expected != comp:
            raise CheckpointError(
                f"composition {comp.canonical()!r} does not match the "
                f"expected {expected.canonical()!r}; refusing the pairing"
            )
        spec = MLPSpec(comp.state_dim + comp.u_dim, tuple(header["hidden"]), 1,
                       activation="tanh")
        return Discriminator(tree_from_state(spec, header, arrays, "tree"), comp)

    return read_checkpoint(path, "disc", build)
