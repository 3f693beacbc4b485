"""End-to-end adversarial imitation training, evaluation, and transfer.

One run = one seed: collect experience with the current policy, then
alternate discriminator and generator updates, evaluating deterministically
on a fixed set of fresh episodes. Three algorithms share the loop:

  gail             policy and discriminator in the raw action space
  lapal-agnostic   policy and discriminator in the latent space of a frozen
                   pretrained action codec
  lapal-aware      as agnostic, but the encoder joins the discriminator
                   ascent and the decoder joins the generator descent

The modes differ in the policy's action space, and `PolicyBundle` is that
space: `to_env` maps the actor's box points to env actions and `to_box` maps
env actions back. Every env acts in the unit box, so for a raw policy both
maps are the identity; a latent policy decodes and encodes through its
codec. Collection, the latent critic and discriminator inputs and evaluation
go through these two maps; a raw run reads its actions as box points. Aware
mode adds the encoder step in `_disc_step` and
`sacgen.decoder_adversarial_step` after each actor step; both go through
`latentact.encode_mean` and its backward pass.

Raw env states stop at the env boundary: every network consumes state
features, and each state is featurized once. Collection featurizes each new
state once, the replay buffer stores the features of s and s', and the demos
are featurized once per run.

The buffer stores raw env actions and no rewards. Each phase boxes the
filled buffer and scores it once, and the demos are boxed once per run: the
encoder and discriminator hold still within a phase, except that aware
mode's encoder steps with, and so encodes, each discriminator minibatch. A
pass that no update of its phase reads is skipped. The passes run in
minibatch-sized `nncore.chunked_rows` chunks, which keep the bits of
per-minibatch passes, so aware mode at codec learning rates 0 walks the
agnostic update sequence exactly - a differential test the suite pins
down. Normalized returns are gap-closed:
(R - R_random) / (R_expert - R_random) against expert and random references
evaluated on the same episodes.

`transfer_policy` moves a latent policy to another env by decoder
retraining: the actor stays as it is and keeps acting in its codec's latent
space, and only the decoder, the map from latents to the new env's actions,
is retrained on target demos against the frozen source encoder.

Evaluation rolls its episodes in lockstep through `envsim.rollout_episodes`:
at each timestep the feature map, actor forward, decode and env step each run
once on the rows of all episodes; `run_training` rolls the references with
its first evaluation in one batch. Policies hand out a lockstep actor for a
list of episode seeds; the random reference draws each episode's action
stream from its own sub-stream, in the order a one-episode-at-a-time loop
would. Batched matrix products may round differently from one row: returns
agree with such a loop to 1e-12 with float64 networks, to a relative 1e-6
with the default float32 ones (7.5e-8 at most, measured on the lockstep
tests' policies). Evaluation keeps no states or actions: it sums each
episode's rewards into its return. Collection in `run_training` runs in
lockstep too: an iteration's episode segments step together, drawing the
same random numbers and filling the buffer in the same order as a one-step
loop would.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import adversary, envsim, latentact, sacgen
from .adversary import DiscComposition
from .configio import read_checkpoint, write_checkpoint
from .errors import CheckpointError, ConfigError, DivergenceError, OptimizerError
from .latentact import ActionCodec, CVAEConfig
from .nncore import MLPSpec, chunked_rows, tree_from_state, tree_state
from .sacgen import SacAgent, SacConfig

ALGOS = ("gail", "lapal-agnostic", "lapal-aware")

@dataclass(frozen=True)
class RunConfig:
    algo: str
    env_id: str
    total_env_steps: int
    steps_per_iteration: int = 1000
    disc_updates_per_iteration: int = 500
    gen_updates_per_iteration: int = 1000
    eval_every: int = 2000
    eval_episodes: int = 16
    disc_hidden: tuple = (64, 64)
    disc_lr: float = 3e-5
    codec_disc_lr: float = 3e-5       # encoder step size in aware mode
    codec_gen_lr: float = 3e-5        # decoder step size in aware mode
    codec_warm_start: bool = True
    divergence_guard: bool = True

    def __post_init__(self):
        if self.algo not in ALGOS:
            raise ConfigError(f"unknown algo {self.algo!r}; expected one of {ALGOS}")
        if min(self.total_env_steps, self.steps_per_iteration, self.eval_every,
               self.eval_episodes) < 1:
            raise ConfigError("step budgets and evaluation episodes must be positive")
        if min(self.disc_updates_per_iteration, self.gen_updates_per_iteration) < 0:
            raise ConfigError("update counts must not be negative")
        if self.eval_every % self.steps_per_iteration != 0:
            raise ConfigError("eval_every must be a multiple of steps_per_iteration")
        if not self.codec_warm_start and self.algo == "lapal-agnostic":
            raise ConfigError("lapal-agnostic freezes its codec, so it needs the warm start")

    @property
    def latent(self) -> bool:
        return self.algo.startswith("lapal")


@dataclass
class CurveRow:
    env_steps: int
    mean_eval_return: float
    std_eval_return: float
    norm_eval_return: float
    disc_loss: float
    actor_loss: float
    critic_loss: float
    alpha: float
    entropy: float
    recon_mse: float


@dataclass
class RunResult:
    curve: list
    bundle: "PolicyBundle"
    discriminator: adversary.Discriminator
    expert_return: float
    random_return: float


def _normalize(value, expert, random):
    span = expert - random
    if span <= 0:
        raise ConfigError("expert reference does not beat the random baseline")
    return (value - random) / span


# ---------------------------------------------------------------------------
# policies


class ExpertPolicy:
    """Clean scripted controller; the 100% reference."""

    def __init__(self, env_id: str):
        self.env_id = env_id

    def lockstep_actor(self, episode_seeds):
        return lambda states, t: envsim.scripted_expert(self.env_id, states)


class RandomPolicy:
    """Uniform actions over the unit box; the 0% reference."""

    def __init__(self, env_id: str):
        self.spec = envsim.env_spec(env_id)

    def lockstep_actor(self, episode_seeds):
        # each episode draws from a sub-stream so action noise is independent
        # of its goal sampling; a whole episode's draws, taken up front, are
        # the numbers a per-step draw would give
        spec = self.spec
        draws = np.stack([
            np.random.default_rng(_child_seq(seed, 1)).uniform(
                -1.0, 1.0, (spec.horizon, spec.action_dim))
            for seed in episode_seeds])
        return lambda states, t: draws[:, t]


def _child_seq(seq, i: int) -> np.random.SeedSequence:
    """Stateless spawn: child i of a SeedSequence without mutating it."""
    if not isinstance(seq, np.random.SeedSequence):
        seq = np.random.SeedSequence(seq)
    return np.random.SeedSequence(entropy=seq.entropy,
                                  spawn_key=tuple(seq.spawn_key) + (i,))


@dataclass
class PolicyBundle:
    """A policy's actor and its action space. The actor emits points u of the
    box (-1, 1)^u_dim; `to_env` maps them to env actions and `to_box` maps env
    actions back. A policy is latent, its box the codec's latent space,
    exactly when it has a codec; otherwise the box is the env's unit action
    box and both maps return their input."""

    env_id: str
    actor: object                      # ParamTree emitting a Gaussian head
    codec: ActionCodec | None = None

    def __post_init__(self):
        if self.codec is not None and self.codec.env_id != self.env_id:
            raise ConfigError(f"a {self.codec.env_id} codec cannot act in {self.env_id}")
        box = (self.codec.latent_dim if self.codec is not None
               else envsim.env_spec(self.env_id).action_dim)
        if self.actor.spec.output_dim != 2 * box:
            raise ConfigError(f"actor emits {self.actor.spec.output_dim} head outputs; "
                              f"a {box}-wide action box needs {2 * box}")

    @property
    def u_dim(self) -> int:
        return self.actor.spec.output_dim // 2

    def to_env(self, feats, u):
        """Env actions of box points `u` at state features `feats`."""
        if self.codec is None:
            return u
        return latentact.decode(self.codec, feats, u)

    def to_box(self, feats, actions):
        """Box points of env `actions` at state features `feats`: the actions
        themselves, or the codec's mean encoding."""
        if self.codec is None:
            return actions
        return latentact.encode_mean(self.codec, feats, actions)

    def action(self, states):
        """Deterministic env actions for (N, state_dim) states."""
        feats = envsim.feature_map(self.env_id, states)
        return self.to_env(feats, sacgen.act(self.actor, feats))

    def lockstep_actor(self, episode_seeds):
        return lambda states, t: self.action(states)

    def digest(self) -> str:
        h = hashlib.sha256(self.actor.digest().encode())
        if self.codec is not None:
            h.update(self.codec.digest().encode())
        return h.hexdigest()


def evaluate_policies(policies, env_id: str, n_episodes: int = 16, seed=0) -> list:
    """(mean, std) of each policy's returns over the same fresh deterministic
    episodes.

    Episode seeds derive statelessly from `seed`, so evaluating twice with
    the same seed replays exactly the same episodes. All episodes run in one
    lockstep batch, each actor on its own block of rows; each episode resets
    once, and every block starts from the same states.
    """
    if n_episodes < 1 or not policies:
        raise ConfigError("evaluation needs at least one policy and one episode")
    seeds = [_child_seq(seed, ep) for ep in range(n_episodes)]
    starts = np.tile(np.stack([envsim.env_reset(env_id, s) for s in seeds]), (len(policies), 1))
    actors = [p.lockstep_actor(seeds) for p in policies]
    act = actors[0] if len(actors) == 1 else lambda states, t: np.concatenate(
        [a(states[i * n_episodes:(i + 1) * n_episodes], t) for i, a in enumerate(actors)])
    returns = np.add.reduce(envsim.rollout_episodes(env_id, act, starts)[1], 1)
    return [(float(np.mean(r)), float(np.std(r)))
            for r in returns.reshape(len(policies), n_episodes)]


def evaluate_policy(policy, env_id: str, n_episodes: int = 16, seed=0):
    """Mean and std of one policy's episode returns; see `evaluate_policies`."""
    return evaluate_policies([policy], env_id, n_episodes, seed)[0]


# ---------------------------------------------------------------------------
# training


def _eval_seed(seed) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=0xE7A1, spawn_key=(int(seed),))


def run_training(cfg: RunConfig, sac_cfg: SacConfig, demos: envsim.DemoBuffer,
                 codec: ActionCodec | None = None, seed: int = 0,
                 on_iteration=None) -> RunResult:
    """Train `cfg.algo` on `demos`. The expert and random references roll with
    the first evaluation, which raises `ConfigError` if the expert loses.

    Each iteration boxes and scores the filled replay buffer once, in
    ceil(size / batch_size) chunk passes; these cost more than the
    per-update passes they replace only when a phase runs fewer updates than
    that. A run without updates only collects and evaluates. A curve row holds
    each update's last loss, NaN before it first runs; the divergence guard
    checks the losses of the updates that just ran, and the temperature."""
    spec = envsim.env_spec(cfg.env_id)
    if demos.env_digest != spec.digest():
        raise ConfigError(f"demos were generated for a different {cfg.env_id}")
    if cfg.latent and codec is None:
        raise ConfigError(f"{cfg.algo} requires a pretrained action codec")
    if not cfg.latent and codec is not None:
        raise ConfigError("gail must not be given a codec")
    if codec is not None and codec.env_id != cfg.env_id:
        raise ConfigError(
            f"codec was trained on {codec.env_id}, not {cfg.env_id}; refusing the pairing"
        )

    seq = np.random.SeedSequence(entropy=0x1A9A, spawn_key=(int(seed),))
    s_init, s_disc_init, s_act, s_batch, s_codec = seq.spawn(5)
    act_rng = np.random.default_rng(s_act)
    batch_rng = np.random.default_rng(s_batch)

    feat_dim = envsim.feature_dim(cfg.env_id)
    run_codec = None
    if cfg.latent:
        run_codec = (codec.copy(frozen=(cfg.algo == "lapal-agnostic")) if cfg.codec_warm_start
                     else latentact.make_codec(cfg.env_id, codec.config, s_codec))
    u_dim = run_codec.latent_dim if run_codec else spec.action_dim
    comp = (DiscComposition(cfg.env_id, "latent", feat_dim, u_dim, run_codec.digest())
            if run_codec else DiscComposition(cfg.env_id, "raw", feat_dim, u_dim))

    agent = SacAgent(feat_dim, u_dim, sac_cfg, np.random.default_rng(s_init))
    disc = adversary.make_discriminator(comp, cfg.disc_hidden,
                                        np.random.default_rng(s_disc_init))
    buf = sacgen.ReplayBuffer(sac_cfg.buffer_capacity, feat_dim, spec.action_dim)

    eval_seed = _eval_seed(seed)
    references = [ExpertPolicy(cfg.env_id), RandomPolicy(cfg.env_id)]
    bundle = PolicyBundle(cfg.env_id, agent.actor, run_codec)
    demo_feats = envsim.feature_map(cfg.env_id, demos.states)
    recon_probe = _recon_probe(demo_feats, demos.actions, batch_rng) if cfg.latent else None

    aware, chunk = cfg.algo == "lapal-aware", sac_cfg.batch_size
    disc_boxed = cfg.disc_updates_per_iteration and not aware   # updates read boxed rows

    def box(feats, actions):  # a raw policy's box points are its actions
        return chunked_rows(bundle.to_box, chunk, feats, actions) if cfg.latent else actions

    demo_u = box(demo_feats, demos.actions) if disc_boxed else None
    half = max(1, chunk // 2)

    curve: list = []
    state = envsim.env_reset(cfg.env_id, act_rng)
    ep_t = 0
    steps = 0
    last = dict.fromkeys(("disc", "actor", "critic", "entropy"), float("nan"))
    iteration = 0
    while steps < cfg.total_env_steps:
        n = min(cfg.steps_per_iteration, cfg.total_env_steps - steps)
        state, ep_t = _collect(bundle, agent, buf, state, ep_t, n, act_rng)
        steps += n

        if len(buf) >= chunk:
            S, A, S2 = (x[: len(buf)] for x in (buf.states, buf.actions, buf.next_states))
            U = box(S, A) if disc_boxed else None
            ran = {}  # the last loss of each update this iteration runs
            try:
                for _ in range(cfg.disc_updates_per_iteration):
                    ei, bi = batch_rng.integers(0, len(demos), half), buf.sample(batch_rng, half)
                    if aware:
                        ran["disc"] = _disc_step(cfg, disc, run_codec, demo_feats[ei],
                                                 demos.actions[ei], S[bi], A[bi])
                    else:
                        ran["disc"] = adversary.disc_loss_and_grad(
                            disc, (demo_feats[ei], demo_u[ei]), (S[bi], U[bi]))
                        disc.tree.adam_step(cfg.disc_lr)
                if cfg.gen_updates_per_iteration:
                    if U is None:  # aware mode, whose encoder just stepped, or no disc updates
                        U = box(S, A)
                    R = chunked_rows(lambda f, u: adversary.disc_reward(disc, f, u), chunk, S, U)
                for _ in range(cfg.gen_updates_per_iteration):
                    i = buf.sample(batch_rng, chunk)
                    s = S[i]
                    closses = sacgen.critic_update(agent, s, U[i], S2[i], R[i], batch_rng)
                    alosses = sacgen.actor_update(agent, s, batch_rng)
                    if aware:
                        sacgen.decoder_adversarial_step(run_codec, disc, cfg.codec_gen_lr,
                                                        s, alosses["u"])
                    ran.update(critic=closses["critic1"], actor=alosses["actor"],
                               entropy=alosses["entropy"])
            except OptimizerError as exc:
                raise DivergenceError(
                    f"optimizer aborted at step {steps}: {exc}"
                ) from exc
            last.update(ran)
            ran["alpha"] = agent.alpha
            if cfg.divergence_guard and not all(np.isfinite(v) for v in ran.values()):
                raise DivergenceError(f"non-finite training loss at step {steps}: {ran}")

        iteration += 1
        if steps % cfg.eval_every == 0 or steps >= cfg.total_env_steps:
            evals = evaluate_policies([bundle] + references, cfg.env_id,
                                      cfg.eval_episodes, eval_seed)
            if references:
                (expert_ret, _), (random_ret, _), references = evals[1], evals[2], []
            mean_ret, std_ret = evals[0]
            norm = _normalize(mean_ret, expert_ret, random_ret)
            recon = (
                latentact.holdout_reconstruction_mse(run_codec, *recon_probe)
                if cfg.latent else float("nan")
            )
            curve.append(CurveRow(
                env_steps=steps, mean_eval_return=mean_ret, std_eval_return=std_ret,
                norm_eval_return=norm, disc_loss=last["disc"], actor_loss=last["actor"],
                critic_loss=last["critic"], alpha=agent.alpha,
                entropy=last["entropy"], recon_mse=recon,
            ))
            if (cfg.divergence_guard and steps >= cfg.total_env_steps // 2
                    and norm < 0.0):
                raise DivergenceError(
                    f"eval return {mean_ret:.3f} fell below the random baseline "
                    f"{random_ret:.3f} after {steps} of {cfg.total_env_steps} steps"
                )
        if on_iteration is not None:
            on_iteration({
                "iteration": iteration, "env_steps": steps,
                "actor_digest": agent.actor.digest(),
                "critic_digest": agent.critic1.digest(),
                "disc_digest": disc.digest(),
                "alpha": agent.alpha,
                "codec_digest": run_codec.digest() if run_codec else "",
                "buffer_size": len(buf),
            })

    return RunResult(curve=curve, bundle=bundle, discriminator=disc,
                     expert_return=expert_ret, random_return=random_ret)


def _collect(bundle, agent, buf, state, ep_t, n, rng):
    """Push the next `n` transitions of `agent`, acting through `bundle`, into
    `buf`; returns the (state, ep_t) to go on from. The rest of this episode,
    whole episodes and the next one's start step in lockstep, longest first so
    that the rows still running are a prefix; `rng` and `buf` see each
    segment's noise, reset and rows in one-step order."""
    env_id = bundle.env_id
    spec = envsim.env_spec(env_id)
    lengths, noise, starts = [], [], [state]
    while n > 0:
        lengths.append(min(spec.horizon - ep_t, n))
        noise.append(rng.standard_normal((lengths[-1], agent.u_dim)))
        n, ep_t = n - lengths[-1], (ep_t + lengths[-1]) % spec.horizon
        if ep_t == 0:
            starts.append(envsim.env_reset(env_id, rng))
    k, lengths = len(lengths), np.array(lengths)
    cells = np.arange(lengths.max()) < lengths[:, None]   # (segment, timestep) in time order
    order = np.argsort(-lengths, kind="stable")
    S = np.stack(starts[:k])[order]
    F = np.empty((k, cells.shape[1] + 1, envsim.feature_dim(env_id)))
    A = np.empty(cells.shape + (spec.action_dim,))
    E = np.empty(cells.shape + (agent.u_dim,))                     # each cell's actor noise
    E[cells[order]] = np.concatenate([noise[i] for i in order])
    F[:, 0] = envsim.feature_map(env_id, S)
    for t, m in enumerate(cells.sum(axis=0)):
        f = F[:m, t]
        u = sacgen.act(agent.actor, f, E[:m, t])
        A[:m, t] = a = bundle.to_env(f, u)
        S[:m], _ = envsim.step_batch(env_id, S[:m], a)
        F[:m, t + 1] = envsim.feature_map(env_id, S[:m])
    back = np.argsort(order)
    buf.push(F[back, :-1][cells], A[back][cells], F[back, 1:][cells])
    return (starts[k] if len(starts) > k else S[back[-1]]), ep_t


def _recon_probe(feats, actions, rng, n=512):
    idx = rng.integers(0, len(feats), min(n, len(feats)))
    return feats[idx], actions[idx]


def _disc_step(cfg, disc, codec, se, ea, sa, aa):
    """One aware discriminator minibatch of expert (features, actions) rows
    against agent rows, encoded in one recorded pass; the discriminator's input
    gradient steps the encoder through the mean, not the log-std half."""
    n_e = len(se)
    u = latentact.encode_mean(codec, np.concatenate([se, sa]), np.concatenate([ea, aa]),
                              record=True)
    loss, d_in = adversary.disc_loss_and_grad(disc, (se, u[:n_e]), (sa, u[n_e:]),
                                              want_input_grads=True)
    latentact.encode_mean_backward(codec, u, d_in[1])
    codec.encoder.adam_step(cfg.codec_disc_lr)
    disc.tree.adam_step(cfg.disc_lr)
    return loss


# ---------------------------------------------------------------------------
# transfer


def transfer_policy(source: PolicyBundle, target_demos: envsim.DemoBuffer,
                    cvae_cfg: CVAEConfig, seed: int = 0) -> tuple:
    """Move a latent policy to the target demos' env by decoder retraining:
    a copy of the source actor acts through a frozen copy of the source codec
    whose decoder `latentact.retrain_decoder` retrained on the target demos
    against the source encoder, which stays unchanged.

    Touches the target environment only through the provided demonstrations.
    `ConfigError` for a raw policy, a `cvae_cfg` whose architecture is not the
    source codec's, or a target env with other feature or action widths.
    Returns (bundle, codec_history).
    """
    if source.codec is None:
        raise ConfigError("only latent policies can be transferred by decoder retraining")
    codec, history = latentact.retrain_decoder(source.codec, target_demos, cvae_cfg, seed)
    codec.frozen = True
    return PolicyBundle(target_demos.env_id, source.actor.copy(), codec), history


# ---------------------------------------------------------------------------
# curves and checkpoints


def aggregate_curves(curves) -> list:
    """Mean/std of normalized and raw returns across seeds at matched steps."""
    steps = [tuple(r.env_steps for r in c) for c in curves]
    if len(set(steps)) != 1:
        raise ConfigError("cannot aggregate curves with different eval grids")
    out = []
    for i in range(len(curves[0])):
        rows = [c[i] for c in curves]
        out.append({
            "env_steps": rows[0].env_steps,
            "mean_return": float(np.mean([r.mean_eval_return for r in rows])),
            "std_return": float(np.std([r.mean_eval_return for r in rows])),
            "mean_norm_return": float(np.mean([r.norm_eval_return for r in rows])),
            "std_norm_return": float(np.std([r.norm_eval_return for r in rows])),
        })
    return out


def save_policy(path, bundle: PolicyBundle) -> None:
    """The actor's arrays under `actor.`; a latent policy's codec under `codec.`."""
    header, arrays = tree_state(bundle.actor, "actor")
    if bundle.codec is not None:
        h, a = latentact.codec_state(bundle.codec, "codec.")
        header.update(h)
        arrays.update(a)
    header.update(kind="policy", env_id=bundle.env_id,
                  env_digest=envsim.env_spec(bundle.env_id).digest(),
                  policy_kind="raw" if bundle.codec is None else "latent",
                  u_dim=bundle.u_dim, hidden=bundle.actor.spec.hidden)
    write_checkpoint(path, header, arrays)


def load_policy(path) -> PolicyBundle:
    def build(header, arrays):
        env_id, kind, u_dim = header["env_id"], header["policy_kind"], header["u_dim"]
        if kind not in ("raw", "latent"):
            raise CheckpointError(f"unknown policy kind {kind!r}")
        spec = MLPSpec(envsim.feature_dim(env_id), tuple(header["hidden"]), 2 * u_dim,
                       activation="relu")
        codec = (latentact.codec_from_state(header, arrays, "codec.")
                 if kind == "latent" else None)
        return PolicyBundle(env_id, tree_from_state(spec, header, arrays, "actor"), codec)

    return read_checkpoint(path, "policy", build)
