"""Per-row reference rollouts: one episode at a time, one row per step.

This is the rollout code the lockstep paths replaced, kept as the oracle the
tests compare them with: per-row kinematics, physics, scripted expert, demo
collection, evaluation and the collection step of training. Batched matrix
products and row reductions may round differently in the last ulp, so the
comparison tolerance is 1e-12. At the end are batched forms that earlier
versions of the lockstep code used, which the current code must match bit for
bit.
"""

import math

import numpy as np

from lapal import envsim, latentact, sacgen
from lapal.envsim import CONTROL_COST_WEIGHT, env_def, env_reset, wrap_angle
from lapal.errors import ConfigError
from lapal.nncore import LOG_STD_MAX, LOG_STD_MIN, TANH_CAP, gaussian_head
from lapal.orchestrator import ExpertPolicy, PolicyBundle, RandomPolicy, _child_seq


def forward_kinematics(lengths, angles):
    lengths = np.asarray(lengths, dtype=np.float64)
    cum = np.cumsum(np.asarray(angles, dtype=np.float64))
    return np.array([np.sum(lengths * np.cos(cum)), np.sum(lengths * np.sin(cum))])


def arm_jacobian(lengths, angles):
    lengths = np.asarray(lengths, dtype=np.float64)
    cum = np.cumsum(np.asarray(angles, dtype=np.float64))
    sx = np.cumsum((lengths * np.cos(cum))[::-1])[::-1]
    sy = np.cumsum((lengths * np.sin(cum))[::-1])[::-1]
    return np.stack([-sy, sx])


def nullspace_direction(lengths, angles):
    k = len(angles)
    if k <= 2:
        return np.zeros(k)
    jac = arm_jacobian(lengths, angles)
    pattern = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(k)])
    try:
        proj = pattern - jac.T @ np.linalg.solve(jac @ jac.T, jac @ pattern)
    except np.linalg.LinAlgError:
        return np.zeros(k)
    norm = np.linalg.norm(proj)
    return proj / norm if norm > 1e-9 else np.zeros(k)


# The lab's own kinematics kernels, which the demo path calls as
# `envsim._jacobian` and `envsim._nullspace`, behind the signatures of the
# per-row references above: (k,) or (N, k) angles.


def kernel_arm_jacobian(lengths, angles):
    """2 x K Jacobian of the end-effector position w.r.t. joint angles.

    (N, 2, K) for (N, K) angles.
    """
    return envsim._jacobian(envsim._link_vectors(lengths, angles))


def kernel_nullspace_direction(lengths, angles):
    """Unit torque direction that produces no end-effector motion; zero for
    arms without redundant joints."""
    angles = np.asarray(angles, dtype=np.float64)
    if angles.shape[-1] <= 2:
        return np.zeros(angles.shape)
    return envsim._nullspace(kernel_arm_jacobian(lengths, angles))


def split(env, state):
    k = env.params.n_joints
    return state[:k], state[k : 2 * k], state[2 * k :]


def goal_distance(env, state):
    if env.kind == "pointmass":
        return float(np.linalg.norm(state[:2]))
    angles, _, goal = split(env, state)
    return float(np.linalg.norm(forward_kinematics(env.params.lengths, angles) - goal))


def env_step(env_id, state, action):
    """Returns (next_state, reward, clamped)."""
    env = env_def(env_id)
    lo, hi = -1.0, 1.0
    a = np.asarray(action, dtype=np.float64)
    clamped = bool(np.any(a < lo) or np.any(a > hi))
    a = np.clip(a, lo, hi)
    p, dt = env.params, env.spec.dt
    if env.kind == "pointmass":
        delta, vel = state[:2], state[2:]
        vel = np.clip(vel + dt * ((a - p.damping * vel) / p.mass), -p.v_max, p.v_max)
        delta = delta + dt * vel
        reward = -float(np.linalg.norm(delta)) - CONTROL_COST_WEIGHT * float(a @ a)
        return np.concatenate([delta, vel]), reward, clamped
    angles, vel, goal = split(env, state)
    vel = np.clip(vel + dt * ((a - p.damping * vel) / p.inertia), -p.v_max, p.v_max)
    angles = wrap_angle(angles + dt * vel)
    dist = np.linalg.norm(forward_kinematics(p.lengths, angles) - goal)
    reward = -float(dist) - CONTROL_COST_WEIGHT * float(a @ a)
    return np.concatenate([angles, vel, goal]), reward, clamped


def scripted_expert(env_id, state, kp_scale=1.0, task_bias=None):
    env = env_def(env_id)
    p, lo, hi = env.params, -1.0, 1.0
    if env.kind == "pointmass":
        delta, vel = state[:2], state[2:]
        f = -kp_scale * p.expert_kp * delta - p.expert_kd * vel
        if task_bias is not None:
            f = f + task_bias
        return np.clip(f, lo, hi)
    angles, vel, goal = split(env, state)
    jac = arm_jacobian(p.lengths, angles)
    ee = forward_kinematics(p.lengths, angles)
    f = kp_scale * p.expert_kp * (goal - ee) - p.expert_kd * (jac @ vel)
    if task_bias is not None:
        f = f + task_bias
    return np.clip(jac.T @ f - p.expert_joint_damping * vel, lo, hi)


def rollout_episode(env_id, act_fn, episode_seed):
    env = env_def(env_id)
    spec = env.spec
    state = env_reset(env_id, episode_seed)
    states = np.empty((spec.horizon, spec.state_dim))
    actions = np.empty((spec.horizon, spec.action_dim))
    next_states = np.empty_like(states)
    rewards = np.empty(spec.horizon)
    clamps = 0
    for t in range(spec.horizon):
        action = act_fn(state, t)
        nxt, rewards[t], clamped = env_step(env_id, state, action)
        clamps += clamped
        states[t] = state
        actions[t] = np.clip(action, -1.0, 1.0)
        next_states[t] = nxt
        state = nxt
    return {
        "states": states, "actions": actions, "next_states": next_states,
        "rewards": rewards, "return": float(np.sum(rewards)), "clamps": clamps,
        "settle_dist": float(np.mean([goal_distance(env, s) for s in next_states[-10:]])),
    }


def episode_actor(policy, env_id, episode_seed):
    """Per-row actor for one episode of a lockstep-capable policy."""
    if isinstance(policy, ExpertPolicy):
        return lambda s, t: scripted_expert(env_id, s)
    if isinstance(policy, RandomPolicy):
        rng = np.random.default_rng(_child_seq(episode_seed, 1))
        return lambda s, t: rng.uniform(-1.0, 1.0, policy.spec.action_dim)
    assert isinstance(policy, PolicyBundle)

    def act(state, t):
        feats = envsim.feature_map(policy.env_id, state)
        u = sacgen.squash(policy.actor.forward(feats[None, :])[0, : policy.u_dim])
        if policy.codec is not None:
            return latentact.decode(policy.codec, feats[None], u[None])[0]
        return u

    return act


def episode_returns(policy, env_id, n_episodes, seed):
    returns = []
    for ep in range(n_episodes):
        child = _child_seq(seed, ep)
        returns.append(rollout_episode(env_id, episode_actor(policy, env_id, child), child)["return"])
    return np.array(returns)


def _ou_steps(rng, n, dim, sigma, tau, dt):
    decay = math.exp(-dt / tau)
    diff = sigma * math.sqrt(1.0 - decay * decay)
    noise = np.empty((n, dim))
    x = sigma * rng.standard_normal(dim)
    for t in range(n):
        noise[t] = x
        x = decay * x + diff * rng.standard_normal(dim)
    return noise


def collect_demos(env_id, n_episodes, seed, jitter=None):
    """Returns (episodes, success rate) of the jittered scripted expert."""
    env = env_def(env_id)
    spec = env.spec
    jitter = jitter or envsim.default_jitter(env_id)
    use_null = env.kind == "arm" and env.params.n_joints > 2 and jitter.null_sigma > 0
    episodes, successes = [], 0
    for child in np.random.SeedSequence(seed).spawn(n_episodes):
        rng = np.random.default_rng(child)
        kp_scale = rng.uniform(*jitter.gain_scale_range)
        noise = _ou_steps(rng, spec.horizon, 2, jitter.ou_sigma, jitter.ou_tau, spec.dt)
        null_amp = (_ou_steps(rng, spec.horizon, 1, jitter.null_sigma, jitter.ou_tau,
                              spec.dt)[:, 0] if use_null else None)

        def act(s, t, kp_scale=kp_scale, noise=noise, null_amp=null_amp):
            fade = max(jitter.fade_floor, min(1.0, goal_distance(env, s) / jitter.fade_dist))
            tau = scripted_expert(env_id, s, kp_scale=kp_scale, task_bias=fade * noise[t])
            if null_amp is not None:
                angles, _, _ = split(env, s)
                tau = tau + null_amp[t] * nullspace_direction(env.params.lengths, angles)
                tau = np.clip(tau, -1.0, 1.0)
            return tau

        ep = rollout_episode(env_id, act, rng)
        successes += ep["settle_dist"] <= env.params.success_tol
        episodes.append(ep)
    return episodes, successes / n_episodes


def collect(env_id, agent, codec, buf, state, ep_t, n, rng):
    """The one-step collection loop: push the next `n` transitions of the
    current policy into `buf` one row at a time. Returns (state, ep_t)."""
    spec = envsim.env_spec(env_id)
    feats = envsim.feature_map(env_id, state)
    for _ in range(n):
        dist, _ = gaussian_head(agent.actor.forward(np.atleast_2d(feats)))
        u = sacgen.squash(dist.sample(rng.standard_normal(dist.mean.shape)))[0]
        action = latentact.decode(codec, feats[None], u[None])[0] if codec is not None else u
        state, _ = envsim.env_step(env_id, state, action)
        next_feats = envsim.feature_map(env_id, state)
        buf.push(feats[None], action[None], next_feats[None])
        feats = next_feats
        ep_t += 1
        if ep_t >= spec.horizon:
            state = env_reset(env_id, rng)
            feats = envsim.feature_map(env_id, state)
            ep_t = 0
    return state, ep_t


# Earlier batched forms: the kinematics, expert and lockstep rollout as they
# were before the link vectors were shared and the states kept as one path, and
# the step, feature, distance, wrap and policy kernels as they were before they
# called ufuncs directly (`np.clip`, `np.sum`, `np.linalg.norm`, concatenated
# cos/sin). The current kernels must match them bit for bit.


def batched_forward_kinematics(lengths, angles):
    cum = np.cumsum(np.asarray(angles, dtype=np.float64), axis=-1)
    trig = np.concatenate([np.cos(cum), np.sin(cum)], axis=-1)
    links = trig.reshape(cum.shape[:-1] + (2, cum.shape[-1]))
    return np.sum(np.asarray(lengths, dtype=np.float64) * links, axis=-1)


def batched_arm_jacobian(lengths, angles):
    lengths = np.asarray(lengths, dtype=np.float64)
    cum = np.cumsum(np.asarray(angles, dtype=np.float64), axis=-1)
    sx = np.cumsum((lengths * np.cos(cum))[..., ::-1], axis=-1)[..., ::-1]
    sy = np.cumsum((lengths * np.sin(cum))[..., ::-1], axis=-1)[..., ::-1]
    return np.stack([-sy, sx], axis=-2)


def batched_scripted_expert(env_id, state, kp_scale=1.0, task_bias=None):
    env = env_def(env_id)
    p = env.params
    state = np.asarray(state, dtype=np.float64)
    kp = np.asarray(kp_scale, dtype=np.float64)[..., None]
    if env.kind == "pointmass":
        f = -kp * p.expert_kp * state[..., :2] - p.expert_kd * state[..., 2:]
        if task_bias is not None:
            f = f + task_bias
        return np.clip(f, -1.0, 1.0)
    angles, vel, goal = envsim.split_arm_state(env, state)
    jac = batched_arm_jacobian(p.lengths, angles)
    ee = batched_forward_kinematics(p.lengths, angles)
    ee_vel = np.sum(jac * vel[..., None, :], axis=-1)
    f = kp * p.expert_kp * (goal - ee) - p.expert_kd * ee_vel
    if task_bias is not None:
        f = f + task_bias
    tau = np.sum(jac * f[..., None], axis=-2) - p.expert_joint_damping * vel
    return np.clip(tau, -1.0, 1.0)


def batched_rollout_episodes(env_id, act_fn, episode_seeds):
    env = env_def(env_id)
    spec = env.spec
    state = np.stack([env_reset(env_id, s) for s in episode_seeds])
    n, horizon = state.shape[0], spec.horizon
    states = np.empty((n, horizon, spec.state_dim))
    actions = np.empty((n, horizon, spec.action_dim))
    next_states = np.empty_like(states)
    rewards = np.empty((n, horizon))
    for t in range(horizon):
        action = act_fn(state, t)
        nxt, rewards[:, t], _ = batched_step_batch(env_id, state, action)
        states[:, t] = state
        actions[:, t] = np.clip(action, -1.0, 1.0)
        next_states[:, t] = nxt
        state = nxt
    dones = np.zeros((n, horizon))
    dones[:, -1] = 1.0
    return {
        "states": states, "actions": actions, "next_states": next_states,
        "rewards": rewards, "dones": dones,
        "return": np.sum(rewards, axis=1),
        "settle_dist": np.mean(batched_goal_distance(env, next_states[:, -10:]), axis=1),
    }


def batched_wrap_angle(theta):
    theta = np.asarray(theta, dtype=np.float64)
    in_range = (theta > -np.pi) & (theta <= np.pi)
    if in_range.all():
        return theta
    w = np.mod(theta + np.pi, 2.0 * np.pi) - np.pi
    w = np.where(w == -np.pi, np.pi, w)
    return np.where(in_range, theta, w)


def batched_step_batch(env_id, states, actions):
    """Returns (next_states, rewards, number of clamped rows)."""
    env = env_def(env_id)
    spec, p = env.spec, env.params
    S = np.asarray(states, dtype=np.float64)
    A = np.asarray(actions, dtype=np.float64)
    outside = (A < -1.0) | (A > 1.0)
    clamped = int(np.count_nonzero(outside.any(axis=1)))
    if clamped:
        A = np.clip(A, -1.0, 1.0)
    ctrl = CONTROL_COST_WEIGHT * np.sum(A * A, axis=1)
    if env.kind == "pointmass":
        delta, vel = S[:, :2], S[:, 2:]
        acc = (A - p.damping * vel) / p.mass
        vel = np.clip(vel + spec.dt * acc, -p.v_max, p.v_max)
        delta = delta + spec.dt * vel
        return (np.concatenate([delta, vel], axis=1),
                -np.linalg.norm(delta, axis=1) - ctrl, clamped)
    angles, vel, goal = envsim.split_arm_state(env, S)
    acc = (A - p.damping * vel) / p.inertia
    vel = np.clip(vel + spec.dt * acc, -p.v_max, p.v_max)
    angles = batched_wrap_angle(angles + spec.dt * vel)
    dist = np.linalg.norm(batched_forward_kinematics(p.lengths, angles) - goal, axis=1)
    return np.concatenate([angles, vel, goal], axis=1), -dist - ctrl, clamped


def batched_goal_distance(env, state):
    if env.kind == "pointmass":
        return np.linalg.norm(state[..., :2], axis=-1)
    angles, _, goal = envsim.split_arm_state(env, state)
    return np.linalg.norm(batched_forward_kinematics(env.params.lengths, angles) - goal, axis=-1)


def batched_feature_map(env_id, states):
    env = env_def(env_id)
    S = np.atleast_2d(np.asarray(states, dtype=np.float64))
    if env.kind == "pointmass":
        out = S
    else:
        angles, vel, goal = envsim.split_arm_state(env, S)
        ee = batched_forward_kinematics(env.params.lengths, angles)
        out = np.concatenate(
            [np.cos(angles), np.sin(angles), vel / 4.0, goal, ee, goal - ee], axis=1)
    return out[0] if np.asarray(states).ndim == 1 else out


def batched_nullspace_direction(lengths, angles):
    angles = np.asarray(angles, dtype=np.float64)
    k = angles.shape[-1]
    if k <= 2:
        return np.zeros(angles.shape)
    jac = batched_arm_jacobian(lengths, angles)
    jac_t = np.swapaxes(jac, -1, -2)
    pattern = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(k)])
    try:
        coef = np.linalg.solve(jac @ jac_t, (jac @ pattern)[..., None])
    except np.linalg.LinAlgError:
        if angles.ndim == 1:
            return np.zeros(k)
        return np.stack([batched_nullspace_direction(lengths, a) for a in angles])
    proj = pattern - (jac_t @ coef)[..., 0]
    norm = np.linalg.norm(proj, axis=-1, keepdims=True)
    return np.where(norm > 1e-9, proj / np.maximum(norm, 1e-9), 0.0)


def batched_squash(z):
    return np.clip(np.tanh(z), -TANH_CAP, TANH_CAP)


def batched_gaussian_head(raw):
    """Returns (mean, clamped log-std, clamp mask)."""
    d = raw.shape[-1] // 2
    raw_ls = raw[..., d:]
    mask = ((raw_ls > LOG_STD_MIN) & (raw_ls < LOG_STD_MAX)).astype(np.float64)
    log_std = np.clip(np.asarray(raw_ls, dtype=np.float64), LOG_STD_MIN, LOG_STD_MAX)
    return np.asarray(raw[..., :d], dtype=np.float64), log_std, mask


def batched_decode(codec, feats, latents):
    s2 = np.atleast_2d(feats)
    z2 = np.atleast_2d(latents)
    out = codec.decoder.forward(np.concatenate([s2, z2], axis=1))
    return out[0] if np.asarray(feats).ndim == 1 else out


# The setup path as it was before each demo stream drew its noise in one block
# and each demo step computed its kinematics once: per-step OU draws, the
# demo step through the public expert, distance and nullspace functions, and
# the CVAE step that stacked and checked its encoder input per batch. The
# current setup path must match them bit for bit.


def batched_demo_action(env_id, jitter, s, kp_scale, noise, null_amp,
                        goal_distance=batched_goal_distance,
                        scripted_expert=batched_scripted_expert,
                        nullspace_direction=batched_nullspace_direction):
    env = env_def(env_id)
    fade = np.maximum(jitter.fade_floor,
                      np.minimum(1.0, goal_distance(env, s) / jitter.fade_dist))
    tau = scripted_expert(env_id, s, kp_scale=kp_scale, task_bias=fade[:, None] * noise)
    if null_amp is not None:
        angles, _, _ = envsim.split_arm_state(env, s)
        tau = tau + null_amp[:, None] * nullspace_direction(env.params.lengths, angles)
        tau = np.minimum(np.maximum(tau, -1.0), 1.0)
    return tau


def batched_collect_demos(env_id, n_episodes, seed, jitter=None):
    """The demo buffer of the jittered expert, every gate off."""
    env = env_def(env_id)
    spec = env.spec
    jitter = jitter or envsim.default_jitter(env_id)
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n_episodes)]
    use_null = env.kind == "arm" and env.params.n_joints > 2 and jitter.null_sigma > 0
    kp_scale, noise, null_amp = [], [], []
    for rng in rngs:
        kp_scale.append(rng.uniform(*jitter.gain_scale_range))
        noise.append(_ou_steps(rng, spec.horizon, 2, jitter.ou_sigma, jitter.ou_tau, spec.dt))
        if use_null:
            null_amp.append(_ou_steps(rng, spec.horizon, 1, jitter.null_sigma,
                                      jitter.ou_tau, spec.dt)[:, 0])
    kp_scale, noise = np.array(kp_scale), np.stack(noise)
    null_amp = np.stack(null_amp) if use_null else None
    eps = batched_rollout_episodes(env_id, lambda s, t: batched_demo_action(
        env_id, jitter, s, kp_scale, noise[:, t], None if null_amp is None else null_amp[:, t]),
        rngs)
    return envsim.DemoBuffer(
        env_id, spec.digest(), np.concatenate(eps["states"]),
        eps["actions"].reshape(-1, spec.action_dim), np.concatenate(eps["next_states"]),
        eps["dones"].reshape(-1), eps["rewards"].reshape(-1),
        np.arange(n_episodes, dtype=np.int64) * spec.horizon)


def batched_cvae_loss_and_grad(codec, feats, actions, noise):
    """Returns (loss, parts) and accumulates the codec's gradients."""
    S, A = np.atleast_2d(feats), np.atleast_2d(actions)
    x = np.concatenate([S, A], axis=1)
    if not np.all(np.isfinite(x)):
        raise ConfigError("non-finite inputs to encode")
    dist, _ = gaussian_head(codec.encoder.forward(x, record=True))
    z = dist.sample(noise)
    abar = np.tanh(z)
    recon = latentact.decode(codec, S, abar, record=True)
    err = recon - A
    recon_term = float(np.mean(np.sum(err * err, axis=1)))
    kl_term = float(np.mean(dist.kl_to_standard()))
    loss = recon_term + codec.config.beta * kl_term
    B, beta = S.shape[0], codec.config.beta
    d_in = codec.decoder.backward((2.0 / B) * err)
    d_z = d_in[1] * (1.0 - abar * abar)
    sigma = dist.std
    d_mean = d_z + (beta / B) * dist.mean
    d_log_std = d_z * sigma * noise + (beta / B) * (sigma * sigma - 1.0)
    ls_ok = ((dist.log_std > LOG_STD_MIN) & (dist.log_std < LOG_STD_MAX)).astype(float)
    codec.encoder.backward(np.concatenate([d_mean, d_log_std * ls_ok], axis=1), input_grad=False)
    return loss, {"recon": recon_term, "kl": kl_term}
