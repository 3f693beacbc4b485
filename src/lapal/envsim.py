"""Deterministic toy continuous-control environments with scripted experts.

Two families, both torque/force controlled with semi-implicit Euler
integration and viscous damping, in the unit action box [-1, 1]^action_dim
that `step_batch` clamps every action to:

  pointmass      state (pos - goal, vel) in R^4, action = 2-D force
  arm<K>         planar K-link chain, state (angles, velocities, goal) in
                 R^(2K+2), action = K joint torques; the end effector must
                 reach a workspace goal sampled near its start pose
  arm<K>-perturbed   same arm with links 20% longer and damping doubled,
                 used as the policy-transfer target

Rewards are ground-truth evaluation signals only (never shown to imitation
learners): -||ee - goal|| - w_u ||action||^2. Episodes end at the horizon,
never early. The scripted experts are operational-space PD controllers
(Jacobian-transpose for the arms); demo collection adds smooth task-space
exploration noise so that the action distribution given a state has genuine
spread for the action autoencoder to model.

One batched kernel, `step_batch(env_id, S, A)`, steps N independent copies of
an env over (N, d) arrays; `env_step` is its one-row view. Rows never
interact and every reduction runs along a row, so a row of a batched step is
bit-identical to the same row stepped alone. `rollout_episodes` rolls N
episodes in lockstep from start states that its caller resets, and every
timestep makes one policy call and one kernel step for all episodes, keeping
only their rewards and final states; demo collection records the states and
actions that pass through its policy. Callers reset each episode from its own
seed or generator, so policies and demo jitter draw each episode's random
stream exactly as a one-episode-at-a-time loop would. Batched policy, expert
and kinematics arithmetic may differ from a per-row loop in the last ulp: demo
arrays, and returns of float64 policies, agree with that loop to 1e-12 (the
tests keep such a loop as their oracle); float32 network passes round more
coarsely, and their returns agree to a relative 1e-6. The per-timestep
kernels call ufuncs directly, in the order the wrappers `np.clip`, `np.sum`
and `np.linalg.norm` run them, which saves the wrappers' per-call cost on few
rows and matches those forms bit for bit.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .configio import read_checkpoint, write_checkpoint
from .errors import CheckpointError, ConfigError, QualityGateError

CONTROL_COST_WEIGHT = 1e-3


class EnvironmentFault(RuntimeError):
    """Non-finite state or action fed to the simulator."""


@dataclass(frozen=True)
class EnvSpec:
    env_id: str
    state_dim: int
    action_dim: int
    dt: float
    horizon: int

    def canonical(self) -> str:
        """The spec and the env's dynamics parameters, floats exact."""
        return (
            f"env:{self.env_id};s={self.state_dim};a={self.action_dim};"
            f"dt={self.dt:.17g};h={self.horizon};params={env_def(self.env_id).params!r}"
        )

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()


@dataclass(frozen=True)
class PointmassParams:
    mass: float = 1.0
    damping: float = 0.6
    v_max: float = 4.0
    goal_radii: tuple = (0.45, 0.95)
    expert_kp: float = 3.0
    expert_kd: float = 2.0
    success_tol: float = 0.08


@dataclass(frozen=True)
class ArmParams:
    n_joints: int
    lengths: tuple
    inertia: float = 0.5
    damping: float = 1.0
    v_max: float = 8.0
    base_angle_range: tuple = (0.15, 0.55)
    bend_jitter: float = 0.25          # relative jitter on the per-joint bend
    goal_radii: tuple = (0.70, 0.86)
    goal_sector: float = 0.25          # polar half-width around the start ee angle
    expert_kp: float = 10.0
    expert_kd: float = 4.0
    expert_joint_damping: float = 0.3
    success_tol: float = 0.04

    def nominal_bend(self) -> float:
        # per-joint bend that parks the start pose at ~0.78 of full reach
        return 2.32 / self.n_joints


@dataclass(frozen=True)
class EnvDef:
    spec: EnvSpec
    kind: str                          # "pointmass" | "arm"
    params: object


# ---------------------------------------------------------------------------
# registry

_ARM_ID = re.compile(r"^arm(\d+)(-perturbed)?$")

_clamp_counts: dict = {}


def clamp_counts() -> dict:
    return dict(_clamp_counts)


def reset_clamp_counts() -> None:
    _clamp_counts.clear()


def _pointmass_def() -> EnvDef:
    spec = EnvSpec("pointmass", state_dim=4, action_dim=2, dt=0.1, horizon=60)
    return EnvDef(spec=spec, kind="pointmass", params=PointmassParams())


def _arm_def(k: int, perturbed: bool) -> EnvDef:
    if k < 1:
        raise ConfigError(f"arm needs at least one joint, got {k}")
    name = f"arm{k}" + ("-perturbed" if perturbed else "")
    lengths = tuple(1.0 / k for _ in range(k))
    params = ArmParams(n_joints=k, lengths=lengths)
    if k == 2:
        # low-dimensional navigation-style task: wide goal sweeps
        params = replace(params, goal_radii=(0.45, 0.80), goal_sector=0.90,
                         success_tol=0.06)
    if perturbed:
        params = replace(
            params,
            lengths=tuple(l * 1.2 for l in params.lengths),
            damping=params.damping * 2.0,
        )
    spec = EnvSpec(name, state_dim=2 * k + 2, action_dim=k, dt=0.05, horizon=140)
    return EnvDef(spec=spec, kind="arm", params=params)


@functools.lru_cache(maxsize=64)
def env_def(env_id: str) -> EnvDef:
    if env_id == "pointmass":
        return _pointmass_def()
    m = _ARM_ID.match(env_id)
    if m:
        return _arm_def(int(m.group(1)), m.group(2) is not None)
    raise ConfigError(f"unknown env_id {env_id!r}")


def env_spec(env_id: str) -> EnvSpec:
    return env_def(env_id).spec


# ---------------------------------------------------------------------------
# kinematics


def _link_vectors(lengths, angles) -> np.ndarray:
    """l_j (cos, sin)(theta_0 + ... + theta_j) of each link j, (..., 2, k)."""
    cum = np.add.accumulate(np.asarray(angles, dtype=np.float64), -1)
    links = np.empty(cum.shape[:-1] + (2, cum.shape[-1]))
    np.cos(cum, out=links[..., 0, :])
    np.sin(cum, out=links[..., 1, :])
    links *= lengths
    return links


def _jacobian(links) -> np.ndarray:
    # d ee / d theta_j involves links j..K-1 only: rows (-tails_y, tails_x)
    tails = np.add.accumulate(links[..., ::-1], -1)[..., ::-1]
    return tails[..., ::-1, :] * [[-1.0], [1.0]]


def forward_kinematics(lengths, angles) -> np.ndarray:
    """Planar chain end-effector position from joint angles, (k,) or (N, k)."""
    return np.add.reduce(_link_vectors(lengths, angles), -1)


def _nullspace(jac) -> np.ndarray:
    """Unit torque directions that produce no end-effector motion, from the
    (..., 2, k) Jacobian, k > 2: a fixed alternating pattern projected through
    I - J^T (J J^T)^-1 J. A stretched arm makes J J^T singular: then each row
    is solved alone, and a singular row gets zero."""
    k = jac.shape[-1]
    jac_t = jac.swapaxes(-1, -2)
    pattern = np.where(np.arange(k) % 2, -1.0, 1.0)
    try:
        coef = np.linalg.solve(jac @ jac_t, (jac @ pattern)[..., None])
    except np.linalg.LinAlgError:
        if jac.ndim == 2:
            return np.zeros(k)
        return np.stack([_nullspace(j) for j in jac])
    proj = pattern - (jac_t @ coef)[..., 0]
    norm = np.sqrt(np.add.reduce(proj * proj, -1, keepdims=True))
    return np.where(norm > 1e-9, proj / np.maximum(norm, 1e-9), 0.0)


def wrap_angle(theta):
    """Wrap to (-pi, pi]; angles already in range pass through bit-exactly."""
    theta = np.asarray(theta, dtype=np.float64)
    if np.logical_and.reduce(np.abs(theta) < np.pi, None):  # one compare; pi takes the exact test
        return theta
    in_range = (theta > -np.pi) & (theta <= np.pi)
    if in_range.all():
        return theta
    w = np.mod(theta + np.pi, 2.0 * np.pi) - np.pi
    w = np.where(w == -np.pi, np.pi, w)
    return np.where(in_range, theta, w)


def split_arm_state(env: EnvDef, state):
    k = env.params.n_joints
    return state[..., :k], state[..., k : 2 * k], state[..., 2 * k :]


def _arm_kinematics(env: EnvDef, state):
    """(velocities, goal, Jacobian, end effector) of arm states, from one
    pass over the link vectors."""
    angles, vel, goal = split_arm_state(env, state)
    links = _link_vectors(env.params.lengths, angles)
    return vel, goal, _jacobian(links), np.add.reduce(links, -1)


def _norm(d):
    return np.sqrt(np.add.reduce(d * d, -1))


def goal_distance(env: EnvDef, state):
    """Distance to the goal of each state in (..., d); a scalar for one state."""
    if env.kind == "pointmass":
        return _norm(state[..., :2])
    angles, _, goal = split_arm_state(env, state)
    return _norm(forward_kinematics(env.params.lengths, angles) - goal)


# ---------------------------------------------------------------------------
# reset / step


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def env_reset(env_id: str, seed) -> np.ndarray:
    env = env_def(env_id)
    rng = _as_rng(seed)
    if env.kind == "pointmass":
        p = env.params
        r = rng.uniform(p.goal_radii[0], p.goal_radii[1])
        phi = rng.uniform(-np.pi, np.pi)
        goal = r * np.array([np.cos(phi), np.sin(phi)])
        # agent starts at the origin with zero velocity; state is goal-relative
        return np.concatenate([-goal, np.zeros(2)])
    p = env.params
    k = p.n_joints
    bend = p.nominal_bend()
    angles = np.empty(k)
    angles[0] = rng.uniform(*p.base_angle_range)
    if k > 1:
        angles[1:] = bend * (1.0 + p.bend_jitter * rng.uniform(-1.0, 1.0, size=k - 1))
    ee = forward_kinematics(p.lengths, angles)
    ee_angle = math.atan2(ee[1], ee[0])
    r = rng.uniform(*p.goal_radii) * float(np.sum(p.lengths))
    phi = ee_angle + rng.uniform(-p.goal_sector, p.goal_sector)
    goal = r * np.array([np.cos(phi), np.sin(phi)])
    return np.concatenate([angles, np.zeros(k), goal])


def step_batch(env_id: str, states, actions):
    """Step N independent simulators; returns (next_states, eval_rewards).

    `states` is (N, state_dim) and `actions` is (N, action_dim). Actions
    outside the unit box are clamped, and each clamped row counts once in
    `clamp_counts`. Every row reduces on its own, so a row's result does not
    depend on the other rows. Episodes terminate only at the horizon, which
    the rollout layer tracks; the dynamics themselves never emit a terminal.
    A row is clamped when its clamped copy differs from it (NaN included),
    and the reward -(w |a|^2) - dist rounds exactly as -dist - w |a|^2.
    """
    env = env_def(env_id)
    spec, p = env.spec, env.params
    S = np.asarray(states, dtype=np.float64)
    A = np.asarray(actions, dtype=np.float64)
    if S.ndim != 2 or S.shape[1] != spec.state_dim:
        raise ConfigError(f"state shape {S.shape} invalid for {env_id}")
    if A.shape != (S.shape[0], spec.action_dim):
        raise ConfigError(
            f"action shape {A.shape} invalid for {env_id} "
            f"(want ({S.shape[0]}, {spec.action_dim}))"
        )
    if not np.isfinite(S).all():
        raise EnvironmentFault(f"non-finite state in {env_id}")
    clamped = np.minimum(np.maximum(A, -1.0), 1.0)
    outside = clamped != A
    if outside.any():
        if not np.isfinite(A).all():
            raise EnvironmentFault(f"non-finite action in {env_id}")
        _clamp_counts[env_id] = _clamp_counts.get(env_id, 0) + int(outside.any(1).sum())
    reward = -CONTROL_COST_WEIGHT * np.add.reduce(clamped * clamped, 1)
    if env.kind == "pointmass":
        delta, vel = S[:, :2], S[:, 2:]
        acc = (clamped - p.damping * vel) / p.mass
        vel = np.minimum(np.maximum(vel + spec.dt * acc, -p.v_max), p.v_max)
        d = delta + spec.dt * vel
        return np.concatenate([d, vel], axis=1), reward - _norm(d)
    angles, vel, goal = split_arm_state(env, S)
    acc = (clamped - p.damping * vel) / p.inertia
    vel = np.minimum(np.maximum(vel + spec.dt * acc, -p.v_max), p.v_max)
    angles = wrap_angle(angles + spec.dt * vel)
    d = forward_kinematics(p.lengths, angles) - goal
    return np.concatenate([angles, vel, goal], axis=1), reward - _norm(d)


def env_step(env_id: str, state, action):
    """One simulator step; returns (next_state, eval_reward).

    The one-row view of `step_batch`, with the same checks.
    """
    nxt, reward = step_batch(env_id, np.asarray(state, dtype=np.float64)[None],
                             np.asarray(action, dtype=np.float64)[None])
    return nxt[0], float(reward[0])


def feature_dim(env_id: str) -> int:
    env = env_def(env_id)
    if env.kind == "pointmass":
        return env.spec.state_dim
    return 3 * env.params.n_joints + 6


def feature_map(env_id: str, states) -> np.ndarray:
    """Model-side input features for one state or a batch.

    Arm states are impoverished compared to what physics simulators expose
    (joint angles only, no body coordinates), so every learned network sees
    the standard derived features instead: wrapped angles as cos/sin,
    velocities scaled to O(1), and end-effector coordinates alongside the
    goal. The environment state itself is untouched and rewards never pass
    through here.
    """
    env = env_def(env_id)
    S = np.atleast_2d(np.asarray(states, dtype=np.float64))
    if env.kind == "pointmass":
        out = S
    else:
        angles, vel, goal = split_arm_state(env, S)
        ee = forward_kinematics(env.params.lengths, angles)
        out = np.concatenate(
            [np.cos(angles), np.sin(angles), vel / 4.0, goal, ee, goal - ee], axis=1)
    return out[0] if np.ndim(states) == 1 else out


# ---------------------------------------------------------------------------
# scripted experts


def scripted_expert(env_id: str, state, kp_scale=1.0,
                    task_bias=None) -> np.ndarray:
    """Operational-space PD controller toward the goal, clamped to the unit box.

    Takes one state (d,) or a batch (N, d). kp_scale (a scalar or one gain
    per row) and task_bias exist for demo collection: the bias is a 2-D force
    added in task space (end-effector space for arms), one per row or shared,
    so demo actions vary along the task-relevant directions.
    """
    env = env_def(env_id)
    p = env.params
    state = np.asarray(state, dtype=np.float64)
    kp = np.asarray(kp_scale, dtype=np.float64)[..., None]
    if env.kind == "pointmass":
        f = -kp * p.expert_kp * state[..., :2] - p.expert_kd * state[..., 2:]
        if task_bias is not None:
            f = f + task_bias
        return np.minimum(np.maximum(f, -1.0), 1.0)
    return _arm_expert(env, kp, task_bias, *_arm_kinematics(env, state))


def _arm_expert(env: EnvDef, kp, task_bias, vel, goal, jac, ee) -> np.ndarray:
    """`scripted_expert` of arm states from their `_arm_kinematics`."""
    p = env.params
    ee_vel = np.add.reduce(jac * vel[..., None, :], -1)
    f = kp * p.expert_kp * (goal - ee) - p.expert_kd * ee_vel
    if task_bias is not None:
        f = f + task_bias
    tau = np.add.reduce(jac * f[..., None], -2) - p.expert_joint_damping * vel
    return np.minimum(np.maximum(tau, -1.0), 1.0)


# ---------------------------------------------------------------------------
# rollouts


def rollout_episodes(env_id: str, act_fn, starts):
    """Roll one full episode from each start state in lockstep;
    act_fn(states, t) -> actions. Returns (final_states, rewards).

    `starts` holds the (N, state_dim) reset states, which the caller draws.
    act_fn maps the (N, state_dim) states of all episodes at timestep t to
    (N, action_dim) actions. `rewards` is (N, horizon), indexed [episode, t].
    The kernel keeps no states or actions: a caller that needs them records
    them in act_fn.
    """
    states = starts
    rewards = np.empty((len(starts), env_spec(env_id).horizon))
    for t in range(rewards.shape[1]):
        states, rewards[:, t] = step_batch(env_id, states, act_fn(states, t))
    return states, rewards


def rollout_episode(env_id: str, act_fn, episode_seed):
    """(final_state, rewards) of one full episode; act_fn(state, t) -> action.
    The one-episode case of `rollout_episodes`."""
    final, rewards = rollout_episodes(env_id, lambda s, t: np.asarray(act_fn(s[0], t))[None],
                                      env_reset(env_id, episode_seed)[None])
    return final[0], rewards[0]


# ---------------------------------------------------------------------------
# demonstrations


@dataclass(frozen=True)
class JitterConfig:
    """Smooth task-space exploration noise mixed into demo collection.

    The end-effector force noise fades linearly with distance to the goal
    below fade_dist (down to fade_floor), so demos stay exploratory in
    transit but still settle inside the success tolerance. Arms with
    redundant joints additionally get a smooth posture wiggle through the
    Jacobian nullspace projector, which varies the joint torques without
    moving the end effector.
    """

    ou_sigma: float = 0.35
    ou_tau: float = 0.4                # correlation time, seconds
    gain_scale_range: tuple = (0.75, 1.25)
    fade_dist: float = 0.4
    fade_floor: float = 0.2
    null_sigma: float = 0.0            # nullspace torque channel (arms, K > 2)


DEFAULT_JITTER = {
    "pointmass": JitterConfig(ou_sigma=0.35, fade_dist=0.4),
    "arm": JitterConfig(ou_sigma=0.45, fade_dist=0.25, fade_floor=0.1,
                        null_sigma=0.25),
}


def default_jitter(env_id: str) -> JitterConfig:
    return DEFAULT_JITTER[env_def(env_id).kind]


_DEMO_ARRAYS = ("states", "actions", "next_states", "dones", "rewards")


@dataclass
class DemoBuffer:
    env_id: str
    env_digest: str
    states: np.ndarray
    actions: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray
    rewards: np.ndarray
    episode_boundaries: np.ndarray     # start index of each episode

    def __len__(self):
        return self.states.shape[0]

    def episode_slices(self):
        bounds = list(self.episode_boundaries) + [len(self)]
        return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]

    def save(self, path) -> None:
        write_checkpoint(
            path, {"kind": "demo", "env_id": self.env_id, "env_digest": self.env_digest},
            {name: getattr(self, name) for name in _DEMO_ARRAYS}
            | {"episode_boundaries": self.episode_boundaries.astype(np.uint64)})

    @classmethod
    def load(cls, path) -> "DemoBuffer":
        return read_checkpoint(path, "demo", cls._from_checkpoint)

    @classmethod
    def _from_checkpoint(cls, header, arrays):
        spec = env_spec(header["env_id"])
        n, sd, ad = len(arrays["rewards"]), spec.state_dim, spec.action_dim
        shapes = ((n, sd), (n, ad), (n, sd), (n,), (n,))
        if any(arrays[k].shape != shape for k, shape in zip(_DEMO_ARRAYS, shapes)):
            raise CheckpointError(f"demo arrays do not fit {header['env_id']}")
        bounds = arrays["episode_boundaries"].astype(np.int64)
        if n % spec.horizon or not np.array_equal(bounds, np.arange(0, n, spec.horizon)):
            raise CheckpointError(f"demo episodes are not {spec.horizon}-step episodes")
        return cls(header["env_id"], header["env_digest"],
                   *(arrays[name].copy() for name in _DEMO_ARRAYS), bounds)


def _ou_steps(z, sigma, tau, dt):
    """Ornstein-Uhlenbeck paths, (N, n, dim), from standard-normal draws z of
    shape (N, n + 1, dim): x_0 = sigma z_0 and x_t = decay x_{t-1} + diff z_t.

    `sigma` is a scalar or one value per column. One recurrence steps every
    path; each value rounds as in a one-path, one-step loop. z_n moves no kept
    value, but it is part of each path's draw.
    """
    decay = math.exp(-dt / tau)
    diff = sigma * math.sqrt(1.0 - decay * decay)
    noise = np.empty((z.shape[0], z.shape[1] - 1, z.shape[2]))
    noise[:, 0] = sigma * z[:, 0]
    for t in range(1, noise.shape[1]):
        noise[:, t] = decay * noise[:, t - 1] + diff * z[:, t]
    return noise


def _demo_action(env: EnvDef, jitter: JitterConfig, s, kp_scale, noise, null_amp):
    """Jittered expert actions at states `s`: expert gains `kp_scale` (N,),
    task-space noise `noise` (N, 2) faded near the goal, and posture noise
    `null_amp` (N,) or None. Arms compute their kinematics once, for the goal
    distance, the expert torque and the nullspace direction alike."""
    if env.kind == "arm":
        vel, goal, jac, ee = _arm_kinematics(env, s)
        dist = _norm(ee - goal)
    else:
        dist = _norm(s[:, :2])
    fade = np.maximum(jitter.fade_floor, np.minimum(1.0, dist / jitter.fade_dist))
    bias = fade[:, None] * noise
    if env.kind != "arm":
        return scripted_expert(env.spec.env_id, s, kp_scale=kp_scale, task_bias=bias)
    tau = _arm_expert(env, kp_scale[:, None], bias, vel, goal, jac, ee)
    if null_amp is None:
        return tau
    tau = tau + null_amp[:, None] * _nullspace(jac)
    return np.minimum(np.maximum(tau, -1.0), 1.0)


def collect_demos(env_id: str, n_episodes: int = 64, seed: int = 0,
                  jitter: JitterConfig | None = None,
                  min_success_rate: float = 0.9) -> DemoBuffer:
    """Roll the scripted expert with task-space jitter; gate on goal reaching.

    All episodes run in lockstep. Each one draws from its own child stream
    of `seed`, in this order: its gain, its whole task noise input as one
    (horizon + 1, 2) standard-normal block, its posture noise input as one
    (horizon + 1, 1) block (arms with redundant joints), then its reset.
    Arm timesteps compute the link vectors and Jacobian once, for the goal
    distance, the expert torque and the nullspace direction alike. The act
    function records each state it sees and each action it returns; the
    actions are in the unit box already, so they are the actions the env steps.
    """
    if n_episodes < 1:
        raise ConfigError("need at least one episode")
    env = env_def(env_id)
    spec = env.spec
    if jitter is None:
        jitter = default_jitter(env_id)
    use_null = env.kind == "arm" and env.params.n_joints > 2 and jitter.null_sigma > 0
    kp_scale, draws, starts = np.empty(n_episodes), [], []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_episodes)):
        rng = np.random.default_rng(child)
        kp_scale[i] = rng.uniform(*jitter.gain_scale_range)
        draws.append(np.concatenate([rng.standard_normal((spec.horizon + 1, width))
                                     for width in (2, 1)[: 1 + use_null]], 1))
        starts.append(env_reset(env_id, rng))
    sigma = np.array([jitter.ou_sigma] * 2 + [jitter.null_sigma] * use_null)
    ou = _ou_steps(np.stack(draws), sigma, jitter.ou_tau, spec.dt)
    noise, null_amp = ou[..., :2], (ou[..., 2] if use_null else None)

    path = np.empty((n_episodes, spec.horizon + 1, spec.state_dim))
    actions = np.empty((n_episodes, spec.horizon, spec.action_dim))

    def act(s, t):
        path[:, t] = s
        actions[:, t] = a = _demo_action(env, jitter, s, kp_scale, noise[:, t],
                                         None if null_amp is None else null_amp[:, t])
        return a

    path[:, -1], rewards = rollout_episodes(env_id, act, np.stack(starts))
    settle_dist = np.mean(goal_distance(env, path[:, -10:]), axis=1)
    rate = np.count_nonzero(settle_dist <= env.params.success_tol) / n_episodes
    buffer = DemoBuffer(
        env_id=env_id,
        env_digest=spec.digest(),
        states=np.concatenate(path[:, :-1]),               # copied out of the state
        actions=actions.reshape(-1, spec.action_dim),
        next_states=np.concatenate(path[:, 1:]),           # path, so never aliased
        dones=np.tile(np.arange(spec.horizon) == spec.horizon - 1, n_episodes).astype(float),
        rewards=rewards.reshape(-1),
        episode_boundaries=np.arange(n_episodes, dtype=np.int64) * spec.horizon,
    )
    if rate < min_success_rate:
        raise QualityGateError(
            f"{env_id}: expert settled within {env.params.success_tol} of the goal in "
            f"only {rate:.0%} of {n_episodes} episodes (need {min_success_rate:.0%})"
        )
    return buffer
