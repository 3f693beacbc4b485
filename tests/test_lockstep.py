"""The batched kernel and lockstep rollouts against per-row references."""

import warnings

import numpy as np
import pytest

import rowwise
from conftest import float64
from lapal import envsim, latentact, orchestrator, sacgen
from lapal.envsim import JitterConfig, env_def, env_reset, env_spec, env_step, step_batch
from lapal.errors import ConfigError, QualityGateError
from lapal.nncore import LOG_STD_MAX, LOG_STD_MIN, MLPSpec, ParamTree, gaussian_head
from lapal.orchestrator import (
    ExpertPolicy,
    PolicyBundle,
    RandomPolicy,
    _child_seq,
    evaluate_policies,
    evaluate_policy,
)
from lapal.sacgen import ReplayBuffer, SacAgent, SacConfig

ENVS = ["pointmass", "arm2", "arm3", "arm3-perturbed"]
# every env family the registry builds: the point mass, arms without and with
# redundant joints, and perturbed arms
REGISTERED = ["pointmass", "arm1", "arm2", "arm3", "arm6", "arm10", "arm3-perturbed",
              "arm6-perturbed"]
TOL = 1e-12
# float32 network passes may round a batch of rows differently from one row;
# lockstep returns of float32 policies agree with the per-row loop to this
# relative tolerance (measured: at most 7.5e-8)
F32_RTOL = 1e-6


def random_batch(env_id, n, seed, action_scale=1.5):
    """Reset states pushed off rest, and actions of which some leave the box."""
    rng = np.random.default_rng(seed)
    spec = env_spec(env_id)
    S = np.stack([env_reset(env_id, rng) for _ in range(n)])
    for _ in range(5):
        S, _ = step_batch(env_id, S, rng.uniform(-1, 1, (n, spec.action_dim)))
    return S, action_scale * rng.uniform(-1, 1, (n, spec.action_dim))


@pytest.mark.parametrize("env_id", ENVS + ["arm6"])
def test_step_batch_rows_match_one_row_calls(env_id):
    S, A = random_batch(env_id, 16, seed=0)
    nxt, rewards = step_batch(env_id, S, A)
    for i in range(len(S)):
        row_next, row_reward = env_step(env_id, S[i], A[i])
        np.testing.assert_array_equal(nxt[i], row_next)
        assert rewards[i] == row_reward
        ref_next, ref_reward, _ = rowwise.env_step(env_id, S[i], A[i])
        np.testing.assert_allclose(nxt[i], ref_next, rtol=0, atol=TOL)
        assert abs(rewards[i] - ref_reward) <= TOL


def test_step_batch_counts_each_clamped_row():
    S, A = random_batch("arm3", 32, seed=1)
    per_row = sum(rowwise.env_step("arm3", s, a)[2] for s, a in zip(S, A))
    assert 0 < per_row < len(S)
    envsim.reset_clamp_counts()
    step_batch("arm3", S, A)
    assert envsim.clamp_counts() == {"arm3": per_row}
    envsim.reset_clamp_counts()
    for s, a in zip(S, A):
        env_step("arm3", s, a)
    assert envsim.clamp_counts() == {"arm3": per_row}


def test_step_batch_checks_shapes_and_finiteness():
    S, A = random_batch("arm2", 4, seed=2)
    for bad_s, bad_a in ((S[0], A[0]), (S, A[:3]), (S[:, :5], A), (S, A[:, :1]), (S[None], A)):
        with pytest.raises(ConfigError):
            step_batch("arm2", bad_s, bad_a)
    envsim.reset_clamp_counts()
    for i, j, value in ((2, 1, np.inf), (0, 0, -np.inf), (3, 1, np.nan)):
        bad = np.clip(A, -1, 1)            # the non-finite entry is the only fault
        bad[i, j] = value
        with pytest.raises(envsim.EnvironmentFault, match="action"):
            step_batch("arm2", S, bad)
        bad_s = S.copy()
        bad_s[i, j] = value
        with pytest.raises(envsim.EnvironmentFault, match="state"):
            step_batch("arm2", bad_s, A)
    assert envsim.clamp_counts() == {}


def test_env_def_is_cached():
    env = env_def("arm3")
    assert env_def("arm3") is env


@pytest.mark.parametrize("env_id", REGISTERED)
def test_every_env_acts_in_the_unit_box(env_id):
    """`step_batch` clamps a row exactly when some |a| > 1: +-1.0 is inside
    the box and one ulp past it is not. Expert, demo and random actions lie
    in [-1, 1], and decoded actions strictly inside it."""
    S, A = random_batch(env_id, 16, seed=21)
    edge = np.zeros((5, A.shape[1]))
    edge[1], edge[2] = 1.0, -1.0
    edge[3, -1], edge[4, 0] = np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0)
    for row, clamped in zip(edge, [0, 0, 0, 1, 1]):
        envsim.reset_clamp_counts()
        step_batch(env_id, S[:1], row[None])
        assert envsim.clamp_counts().get(env_id, 0) == clamped
    A[:5] = edge
    envsim.reset_clamp_counts()
    step_batch(env_id, S, A)
    assert envsim.clamp_counts()[env_id] == np.count_nonzero(np.any(np.abs(A) > 1.0, axis=1))
    expert = envsim.scripted_expert(env_id, S, kp_scale=50.0)
    demos = envsim.collect_demos(env_id, 2, seed=0, min_success_rate=0.0).actions
    seeds = [_child_seq(7, i) for i in range(4)]
    uniform = RandomPolicy(env_id).lockstep_actor(seeds)(None, 0)
    for actions in (expert, demos, uniform):
        assert np.all(np.abs(actions) <= 1.0)
    assert np.any(np.abs(expert) == 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # latent_dim 1 on arm1
        codec = latentact.make_codec(env_id, latentact.CVAEConfig(latent_dim=1), 3)
    codec.decoder.layers[-1].w *= 1e4                     # saturate the output tanh
    decoded = latentact.decode(codec, envsim.feature_map(env_id, S),
                               np.linspace(-1.0, 1.0, len(S))[:, None])
    assert np.all(np.abs(decoded) < 1.0)


@pytest.mark.parametrize("env_id", ENVS + ["arm6"])
def test_kinematics_and_expert_rows_match_per_row(env_id):
    env = env_def(env_id)
    S, _ = random_batch(env_id, 8, seed=3)
    kp = np.linspace(0.8, 1.2, len(S))
    bias = np.random.default_rng(4).normal(size=(len(S), 2))
    batch = envsim.scripted_expert(env_id, S, kp_scale=kp, task_bias=bias)
    for i, s in enumerate(S):
        np.testing.assert_array_equal(
            batch[i], envsim.scripted_expert(env_id, s, kp_scale=kp[i], task_bias=bias[i]))
        np.testing.assert_allclose(
            batch[i], rowwise.scripted_expert(env_id, s, kp[i], bias[i]), rtol=0, atol=TOL)
    if env.kind != "arm":
        return
    angles = S[:, : env.params.n_joints]
    lengths = env.params.lengths
    fk = envsim.forward_kinematics(lengths, angles)
    jac = rowwise.kernel_arm_jacobian(lengths, angles)
    null = rowwise.kernel_nullspace_direction(lengths, angles)
    for i, a in enumerate(angles):
        np.testing.assert_array_equal(fk[i], envsim.forward_kinematics(lengths, a))
        np.testing.assert_array_equal(jac[i], rowwise.kernel_arm_jacobian(lengths, a))
        np.testing.assert_allclose(fk[i], rowwise.forward_kinematics(lengths, a), rtol=0, atol=TOL)
        np.testing.assert_allclose(jac[i], rowwise.arm_jacobian(lengths, a), rtol=0, atol=TOL)
        np.testing.assert_allclose(null[i], rowwise.nullspace_direction(lengths, a),
                                   rtol=0, atol=TOL)


def bits(x):
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("env_id", ["arm2", "arm3", "arm6", "arm3-perturbed"])
def test_shared_link_vectors_match_batched_oracle(env_id):
    env = env_def(env_id)
    lengths, k = env.params.lengths, env.params.n_joints
    S, _ = random_batch(env_id, 8, seed=7)
    near_pi = np.array([np.pi, np.nextafter(np.pi, 0), np.pi - 1e-9,
                        np.nextafter(-np.pi, 0), -np.pi + 1e-9])
    S[:5, :k] = np.resize(near_pi, (5, k)) * np.where(np.arange(k) % 2, -1.0, 1.0)
    angles = S[:, :k]
    for a in (angles, angles[0], angles[6]):
        assert bits(envsim.forward_kinematics(lengths, a)) == bits(
            rowwise.batched_forward_kinematics(lengths, a))
        assert bits(rowwise.kernel_arm_jacobian(lengths, a)) == bits(
            rowwise.batched_arm_jacobian(lengths, a))
    kp = np.linspace(0.75, 1.25, len(S))
    bias = np.random.default_rng(8).normal(size=(len(S), 2))
    for args in ((S,), (S[2],), (S, kp, bias), (S[5], kp[5], bias[5]), (S, 1.1, bias[0])):
        assert bits(envsim.scripted_expert(env_id, *args)) == bits(
            rowwise.batched_scripted_expert(env_id, *args))


def resets(env_id, seeds):
    return np.stack([env_reset(env_id, s) for s in seeds])


def recorded_rollout(env_id, act_fn, starts):
    """`envsim.rollout_episodes` through an act function that records the
    states it sees and the actions it returns: the (N, horizon + 1, d) state
    path, ending in the final states, the actions and the rewards."""
    seen, taken = [], []

    def recording(S, t):
        seen.append(np.copy(S))
        taken.append(act_fn(S, t))
        return taken[-1]

    final, rewards = envsim.rollout_episodes(env_id, recording, starts)
    return np.stack(seen + [final], 1), np.stack(taken, 1), rewards


@pytest.mark.parametrize("env_id", ENVS)
def test_state_path_and_demos_match_separate_arrays(env_id, tmp_path):
    def act(S, t):
        return envsim.scripted_expert(env_id, S)

    path, actions, rewards = recorded_rollout(env_id, act, resets(env_id, [3, 4, 5]))
    theirs = rowwise.batched_rollout_episodes(env_id, act, [3, 4, 5])
    ours = {"states": path[:, :-1], "next_states": path[:, 1:], "rewards": rewards,
            "return": np.add.reduce(rewards, 1),
            "actions": actions}            # the expert's actions are in bounds already
    for key, value in ours.items():
        assert bits(value) == bits(theirs[key]), key
    # one step over all rows derives the bits that the lockstep rollout stepped
    demos = envsim.DemoBuffer(env_id, envsim.env_spec(env_id).digest(),
                              np.concatenate(path[:, :-1]), np.concatenate(actions))
    assert bits(demos.next_states) == bits(np.concatenate(path[:, 1:]))
    assert bits(demos.rewards) == bits(rewards.reshape(-1))
    envsim.collect_demos(env_id, n_episodes=3, seed=9, min_success_rate=0.0).save(
        tmp_path / "ours")
    one = envsim.collect_demos(env_id, n_episodes=1, seed=9, min_success_rate=0.0)
    assert not np.shares_memory(one.states, one.next_states)
    rowwise.batched_collect_demos(env_id, n_episodes=3, seed=9).save(tmp_path / "theirs")
    assert (tmp_path / "ours").read_bytes() == (tmp_path / "theirs").read_bytes()


KERNEL_ENVS = ["pointmass", "arm2", "arm3", "arm6", "arm3-perturbed"]
KERNEL_CASES = ["actions-out-of-bounds", "past-v_max", "angles-at-pi"]
# exactly +-pi, one ulp inside and outside, past pi and far past it, and zeros
SPECIAL_ANGLES = np.array([np.pi, -np.pi, np.nextafter(np.pi, 0), np.nextafter(-np.pi, 0),
                           np.nextafter(np.pi, 4), np.nextafter(-np.pi, -4), np.pi + 0.5,
                           -np.pi - 0.5, 3 * np.pi, -7.0, 0.0, -0.0])


def same(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return np.array_equal(x, y) and x.shape == y.shape and bits(x) == bits(y)


def kernel_batch(env_id, n, case):
    """n states and actions for one kernel case: actions past the bounds,
    velocities the step carries past v_max, or (arms) zero velocity and zero
    action, so the angles reach `wrap_angle` unchanged: exactly +-pi and past
    it."""
    env = env_def(env_id)
    S, A = random_batch(env_id, n, seed=n, action_scale=0.9)
    vel = S[:, 2:] if env.kind == "pointmass" else S[:, env.params.n_joints : 2 * env.params.n_joints]
    if case == "actions-out-of-bounds":
        A[::2] *= 2.5
        A[0, 0] = -3.0
    elif case == "past-v_max":
        sign = np.where(np.arange(vel.size).reshape(vel.shape) % 3, 1.0, -1.0)
        vel[...] = 1.5 * env.params.v_max * sign
        A[...] = sign
    elif env.kind == "arm":
        k = env.params.n_joints
        S[:, :k] = [np.roll(SPECIAL_ANGLES, -i)[:k] for i in range(n)]
        vel[...] = 0.0
        A[...] = 0.0
    return S, A


@pytest.mark.parametrize("case", KERNEL_CASES)
@pytest.mark.parametrize("n", [1, 16, 48])
@pytest.mark.parametrize("env_id", KERNEL_ENVS)
def test_step_kernels_match_earlier_batched_forms(env_id, n, case):
    env = env_def(env_id)
    S, A = kernel_batch(env_id, n, case)
    envsim.reset_clamp_counts()
    nxt, rewards = step_batch(env_id, S, A)
    ref_nxt, ref_rewards, clamped = rowwise.batched_step_batch(env_id, S, A)
    assert same(nxt, ref_nxt) and same(rewards, ref_rewards)
    assert envsim.clamp_counts().get(env_id, 0) == clamped
    assert all(type(count) is int for count in envsim.clamp_counts().values())  # JSON-safe
    assert (clamped > 0) == (case == "actions-out-of-bounds")
    vel = nxt[:, 2:] if env.kind == "pointmass" else split_vel(env, nxt)
    if case == "past-v_max":
        assert (np.abs(vel) == env.params.v_max).any()
    for states in (S, nxt, S[0], nxt[-1]):
        assert same(envsim.feature_map(env_id, states), rowwise.batched_feature_map(env_id, states))
        assert same(envsim.goal_distance(env, states), rowwise.batched_goal_distance(env, states))
        assert same(envsim.scripted_expert(env_id, states),
                    rowwise.batched_scripted_expert(env_id, states))
    path = np.stack([S, nxt], axis=1)
    assert same(envsim.goal_distance(env, path), rowwise.batched_goal_distance(env, path))
    if env.kind != "arm":
        return
    k, lengths = env.params.n_joints, env.params.lengths
    if case == "angles-at-pi":  # the step adds dt * 0.0, which turns -0.0 into 0.0
        assert same(nxt[:, :k], rowwise.batched_wrap_angle(S[:, :k] + 0.0))
        assert (nxt[:, :k][S[:, :k] == -np.pi] == np.pi).all() and (S[:, :k] == -np.pi).any()
    for angles in (S[:, :k], nxt[:, :k], S[0, :k]):
        assert same(envsim.forward_kinematics(lengths, angles),
                    rowwise.batched_forward_kinematics(lengths, angles))
        assert same(rowwise.kernel_arm_jacobian(lengths, angles),
                    rowwise.batched_arm_jacobian(lengths, angles))
        assert same(rowwise.kernel_nullspace_direction(lengths, angles),
                    rowwise.batched_nullspace_direction(lengths, angles))


def split_vel(env, states):
    return envsim.split_arm_state(env, states)[1]


def test_wrap_angle_matches_earlier_form():
    inside = np.array([0.5, -3.0, np.nextafter(np.pi, 0), np.nextafter(-np.pi, 0), -0.0])
    for theta in (SPECIAL_ANGLES, SPECIAL_ANGLES.reshape(3, 4), inside, inside[:, None],
                  np.array([np.pi]), np.array([-np.pi]), np.pi, -np.pi, 0.25):
        assert same(envsim.wrap_angle(theta), rowwise.batched_wrap_angle(theta))
    assert envsim.wrap_angle(np.array([-np.pi]))[0] == np.pi
    assert envsim.wrap_angle(inside) is inside      # in range: passed through untouched


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("n", [1, 16, 48])
def test_policy_kernels_match_earlier_forms(n, precision):
    rng = np.random.default_rng(n)
    z = 3.0 * rng.standard_normal((n, 4))
    z[0] = [0.0, -0.0, 40.0, -40.0]                 # tanh saturates: the cap clamps
    for x in (z, z[0]):
        assert same(sacgen.squash(x), rowwise.batched_squash(x))
    raw = 8.0 * rng.standard_normal((n, 6))
    raw[0, 3:] = [LOG_STD_MIN, LOG_STD_MAX, LOG_STD_MAX + 1e-9]
    for x in (raw, raw[0], raw.astype(np.float32)):
        dist, mask = gaussian_head(x)
        mean, log_std, ref_mask = rowwise.batched_gaussian_head(x)
        assert same(dist.mean, mean) and same(dist.log_std, log_std) and same(mask, ref_mask)
    codec = latentact.make_codec("arm3", latentact.CVAEConfig(latent_dim=2), n)
    if precision == "float64":
        float64(codec)
    S, _ = random_batch("arm3", n, seed=n)
    feats, u = envsim.feature_map("arm3", S), sacgen.squash(z[:, :2])
    for f, x in ((feats, u), (feats[:1], u[:1])):
        assert same(latentact.decode(codec, f, x), rowwise.batched_decode(codec, f, x))


def make_policy(kind, env_id):
    if kind == "expert":
        return ExpertPolicy(env_id)
    if kind == "random":
        return RandomPolicy(env_id)
    rng = np.random.default_rng(5)
    spec = env_spec(env_id)
    if kind == "raw":
        u_dim, codec = spec.action_dim, None
    else:
        u_dim = 1 if env_id == "pointmass" else 2
        codec = latentact.make_codec(env_id, latentact.CVAEConfig(latent_dim=u_dim), rng)
    actor = ParamTree.init(MLPSpec(envsim.feature_dim(env_id), (32, 32), 2 * u_dim,
                                   activation="relu"), rng)
    return PolicyBundle(env_id, actor, codec)


def lockstep_and_per_row_returns(policy, env_id, n=5):
    seed = np.random.SeedSequence(11)
    reference = rowwise.episode_returns(policy, env_id, n, seed)
    seeds = [_child_seq(seed, i) for i in range(n)]
    _, rewards = envsim.rollout_episodes(env_id, policy.lockstep_actor(seeds),
                                         resets(env_id, seeds))
    returns = np.add.reduce(rewards, 1)
    return returns, reference, evaluate_policy(policy, env_id, n, seed)


@pytest.mark.parametrize("kind", ["expert", "random", "raw", "latent"])
@pytest.mark.parametrize("env_id", ENVS)
def test_lockstep_evaluation_matches_per_row_oracle(env_id, kind):
    policy = float64(make_policy(kind, env_id))
    returns, reference, (mean, std) = lockstep_and_per_row_returns(policy, env_id)
    np.testing.assert_allclose(returns, reference, rtol=0, atol=TOL)
    assert abs(mean - np.mean(reference)) <= TOL and abs(std - np.std(reference)) <= TOL


@pytest.mark.parametrize("kind", ["raw", "latent"])
@pytest.mark.parametrize("env_id", ENVS)
def test_float32_lockstep_evaluation_close_to_per_row(env_id, kind):
    policy = make_policy(kind, env_id)
    assert policy.actor.dtype == np.float32
    returns, reference, (mean, _) = lockstep_and_per_row_returns(policy, env_id)
    np.testing.assert_allclose(returns, reference, rtol=F32_RTOL, atol=0)
    assert mean == pytest.approx(np.mean(reference), rel=F32_RTOL)


def test_evaluation_needs_an_episode():
    with pytest.raises(ConfigError):
        evaluate_policy(ExpertPolicy("arm2"), "arm2", 0)


MIXES = [("raw", "expert", "random"), ("expert", "random", "latent"),
         ("random", "latent", "raw", "expert"), ("latent", "raw")]


@pytest.mark.parametrize("kinds", MIXES, ids="-".join)
@pytest.mark.parametrize("env_id", ENVS)
def test_merged_evaluation_equals_separate(env_id, kinds):
    policies = [make_policy(kind, env_id) for kind in kinds]
    seed = np.random.SeedSequence(12)
    assert (evaluate_policies(policies, env_id, 5, seed)
            == [evaluate_policy(p, env_id, 5, seed) for p in policies])


@pytest.mark.parametrize("env_id", ENVS)
def test_evaluation_resets_each_episode_once(env_id, monkeypatch):
    policies = [make_policy(kind, env_id) for kind in ("latent", "expert", "random")]
    seed = np.random.SeedSequence(14)
    seeds = [_child_seq(seed, i) for i in range(5)]
    actors = [p.lockstep_actor(seeds) for p in policies]
    earlier = rowwise.batched_rollout_episodes(env_id, lambda S, t: np.concatenate(
        [a(S[5 * i : 5 * (i + 1)], t) for i, a in enumerate(actors)]), seeds * 3)["return"]
    calls, real = [], envsim.env_reset
    monkeypatch.setattr(envsim, "env_reset", lambda *a: calls.append(a) or real(*a))
    assert evaluate_policies(policies, env_id, 5, seed) == [
        (float(np.mean(r)), float(np.std(r))) for r in earlier.reshape(3, 5)]
    assert len(calls) == 5


def test_merged_evaluation_needs_a_policy_and_an_episode():
    with pytest.raises(ConfigError):
        evaluate_policies([], "arm2", 4)
    with pytest.raises(ConfigError):
        evaluate_policies([ExpertPolicy("arm2"), RandomPolicy("arm2")], "arm2", 0)


def test_lockstep_clamp_count_matches_per_row():
    seeds = list(range(4))
    draws = {s: np.random.default_rng(100 + s).uniform(-1.6, 1.6, (140, 3)) for s in seeds}
    envsim.reset_clamp_counts()
    path, _, rewards = recorded_rollout(
        "arm3", lambda S, t: np.stack([draws[s][t] for s in seeds]), resets("arm3", seeds))
    per_row = [rowwise.rollout_episode("arm3", lambda s, t, d=draws[k]: d[t], k)
               for k in seeds]
    assert envsim.clamp_counts()["arm3"] == sum(ep["clamps"] for ep in per_row) > 0
    for i, ep in enumerate(per_row):
        np.testing.assert_allclose(path[i, :-1], ep["states"], rtol=0, atol=TOL)
        np.testing.assert_allclose(path[i, 1:], ep["next_states"], rtol=0, atol=TOL)
        np.testing.assert_allclose(rewards[i], ep["rewards"], rtol=0, atol=TOL)


def test_rollout_episode_is_the_one_episode_case():
    act = lambda s, t: envsim.scripted_expert("arm3", s)
    one = envsim.rollout_episode("arm3", act, 7)
    many = envsim.rollout_episodes("arm3", lambda S, t: envsim.scripted_expert("arm3", S),
                                   resets("arm3", [3, 7]))
    assert len(one) == len(many) == 2
    for ours, theirs in zip(one, many):
        assert bits(ours) == bits(theirs[1]) and ours.shape == theirs[1].shape


@pytest.mark.parametrize("env_id", ENVS)
def test_lockstep_demos_match_per_row_oracle(env_id):
    demos = envsim.collect_demos(env_id, n_episodes=4, seed=6, min_success_rate=0.0)
    episodes, rate = rowwise.collect_demos(env_id, 4, seed=6)
    for key in ("states", "actions", "next_states", "rewards"):
        reference = np.concatenate([ep[key] for ep in episodes])
        np.testing.assert_allclose(getattr(demos, key), reference, rtol=0, atol=TOL)
    assert rate >= 0.9
    envsim.collect_demos(env_id, n_episodes=4, seed=6)  # passes the default gate too


@pytest.mark.parametrize("null_sigma", [None, 0.0], ids=["default", "no-posture"])
@pytest.mark.parametrize("env_id", REGISTERED)
def test_demo_streams_match_per_step_ou_draws(env_id, null_sigma, monkeypatch, tmp_path):
    jitter = envsim.default_jitter(env_id)
    if null_sigma is not None:
        jitter = JitterConfig(**{**vars(jitter), "null_sigma": null_sigma})
    made, real = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: made.append(real(*a)) or made[-1])
    envsim.collect_demos(env_id, n_episodes=4, seed=17, jitter=jitter,
                         min_success_rate=0.0).save(tmp_path / "ours")
    ours = [g.bit_generator.state for g in made]
    made.clear()
    rowwise.batched_collect_demos(env_id, 4, seed=17, jitter=jitter).save(tmp_path / "theirs")
    assert len(ours) == 4 and [g.bit_generator.state for g in made] == ours
    assert (tmp_path / "ours").read_bytes() == (tmp_path / "theirs").read_bytes()


@pytest.mark.parametrize("widths,sigmas", [((1,), (0.3,)), ((2,), (0.45,)),
                                            ((2, 1), (0.45, 0.25))])
def test_ou_block_equals_per_step_draws(widths, sigmas):
    ours, theirs = ([np.random.default_rng(s) for s in range(5)] for _ in range(2))
    z = np.stack([np.concatenate([g.standard_normal((41, w)) for w in widths], 1)
                  for g in ours])
    sigma = sigmas[0] if len(widths) == 1 else np.repeat(sigmas, widths)
    paths = envsim._ou_steps(z, sigma, 0.4, 0.05)
    for path, g, ours_g in zip(paths, theirs, ours):
        ref = np.concatenate([rowwise._ou_steps(g, 40, w, sd, 0.4, 0.05)
                              for w, sd in zip(widths, sigmas)], 1)
        assert bits(path) == bits(ref)
        assert g.bit_generator.state == ours_g.bit_generator.state


def stretched_batch(env_id, n):
    """n states of which row 1 is an arm stretched straight along the x axis,
    where J J^T is singular."""
    env = env_def(env_id)
    S, _ = random_batch(env_id, max(n, 2), seed=n + 40)
    if env.kind == "arm":
        S[1, : env.params.n_joints] = 0.0
        jac = rowwise.kernel_arm_jacobian(env.params.lengths, S[1, : env.params.n_joints])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(jac @ jac.T, jac[:, 0])
    return S[1:2] if n == 1 else S[:n]


@pytest.mark.parametrize("n", [1, 2, 16])
@pytest.mark.parametrize("env_id", REGISTERED)
def test_demo_step_matches_public_functions(env_id, n):
    env, jitter = env_def(env_id), envsim.default_jitter(env_id)
    S = stretched_batch(env_id, n)
    rng = np.random.default_rng(n)
    kp, noise = rng.uniform(0.75, 1.25, n), 0.5 * rng.standard_normal((n, 2))
    k = env.params.n_joints if env.kind == "arm" else 0
    for null in ((None, rng.standard_normal(n)) if k > 2 else (None,)):
        ours = envsim._demo_action(env, jitter, S, kp, noise, null)
        assert same(ours, rowwise.batched_demo_action(env_id, jitter, S, kp, noise, null))
        assert same(ours, rowwise.batched_demo_action(
            env_id, jitter, S, kp, noise, null, goal_distance=envsim.goal_distance,
            scripted_expert=envsim.scripted_expert,
            nullspace_direction=rowwise.kernel_nullspace_direction))
    if k > 2:  # the stretched row has no nullspace direction
        assert not rowwise.kernel_nullspace_direction(env.params.lengths,
                                                      S[min(n - 1, 1), :k]).any()


def test_quality_gate_verdict_matches_per_row_oracle():
    wild = JitterConfig(ou_sigma=30.0, fade_floor=1.0, fade_dist=1e9, null_sigma=0.25)
    _, rate = rowwise.collect_demos("arm3", 6, seed=0, jitter=wild)
    assert rate < 0.9
    with pytest.raises(QualityGateError, match=f"only {rate:.0%} of 6"):
        envsim.collect_demos("arm3", n_episodes=6, seed=0, jitter=wild)


# (ep_t, n, capacity, rows already in the buffer), with H the env's horizon
COLLECTIONS = {
    "inside-episode": lambda H: (10, 30, 1000, 0),
    "whole-episodes": lambda H: (0, 2 * H, 1000, 0),
    "ragged-both-ends": lambda H: (37, 2 * H + 20, 1000, 0),
    "last-step": lambda H: (H - 1, 1, 1000, 0),
    "crosses-wrap": lambda H: (37, H + 20, 2 * H, H + 50),
    "over-capacity": lambda H: (37, 2 * H + 20, H + 50, 30),
}


def collection_pair(env_id, kind, case, f64=True):
    """Lockstep and per-row collection of the same transitions from the same
    state, agent and random stream: (buffer, state, ep_t, rng state) each."""
    spec = env_spec(env_id)
    ep_t, n, capacity, filled = COLLECTIONS[case](spec.horizon)
    feat_dim = envsim.feature_dim(env_id)
    codec = None
    u_dim = spec.action_dim
    if kind == "latent":
        u_dim = 1 if env_id == "pointmass" else 2
        codec = latentact.make_codec(env_id, latentact.CVAEConfig(latent_dim=u_dim), 20)
    agent = SacAgent(feat_dim, u_dim, SacConfig(actor_hidden=(32, 32), critic_hidden=(8, 8)), 21)
    if f64:
        float64(agent)
        float64(codec)
    state, _ = step_batch(env_id, env_reset(env_id, 22)[None], np.ones((1, spec.action_dim)))
    out = []
    bundle = PolicyBundle(env_id, agent.actor, codec)
    collectors = (lambda *a: orchestrator._collect(bundle, agent, *a),
                  lambda *a: rowwise.collect(env_id, agent, codec, *a))
    for collect in collectors:
        buf = ReplayBuffer(capacity, feat_dim, spec.action_dim)
        prefill = np.random.default_rng(23)
        for _ in range(filled):
            buf.push(*(prefill.standard_normal((1, d))
                       for d in (feat_dim, spec.action_dim, feat_dim)))
        rng = np.random.default_rng(24)
        out.append((buf, *collect(buf, state[0], ep_t, n, rng),
                    rng.bit_generator.state))
    return out


def buffer_arrays(buf):
    return {name: getattr(buf, name)[: buf.size]
            for name in ("states", "actions", "next_states")}


def assert_collections_match(pair, close):
    (buf, state, ep_t, rng_state), (ref, ref_state, ref_ep_t, ref_rng_state) = pair
    assert rng_state == ref_rng_state
    assert (ep_t, buf.cursor, buf.size) == (ref_ep_t, ref.cursor, ref.size)
    close(state, ref_state)
    ours, theirs = buffer_arrays(buf), buffer_arrays(ref)
    for name in theirs:
        close(ours[name], theirs[name])


def f64_close(x, y):
    np.testing.assert_allclose(x, y, rtol=0, atol=TOL)


def f32_close(x, y):
    assert np.max(np.abs(x - y)) <= F32_RTOL * np.max(np.abs(y))


@pytest.mark.parametrize("case", list(COLLECTIONS))
@pytest.mark.parametrize("kind", ["raw", "latent"])
@pytest.mark.parametrize("env_id", ["pointmass", "arm3"])
def test_lockstep_collection_matches_per_row_oracle(env_id, kind, case):
    assert_collections_match(collection_pair(env_id, kind, case), f64_close)


@pytest.mark.parametrize("kind", ["raw", "latent"])
@pytest.mark.parametrize("env_id", ["pointmass", "arm3"])
def test_float32_lockstep_collection_close_to_per_row(env_id, kind):
    assert_collections_match(collection_pair(env_id, kind, "ragged-both-ends", f64=False),
                             f32_close)


@pytest.fixture(autouse=True)
def _quiet_vacuous_codec_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield
