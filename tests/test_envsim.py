from dataclasses import replace

import numpy as np
import pytest

import rowwise
from lapal import configio, envsim
from lapal.envsim import (
    DemoBuffer,
    JitterConfig,
    collect_demos,
    env_def,
    env_reset,
    env_spec,
    env_step,
    forward_kinematics,
    rollout_episode,
    scripted_expert,
    wrap_angle,
)
from lapal.errors import CheckpointError, ConfigError, QualityGateError

ALL_ENVS = ["pointmass", "arm2", "arm6", "arm10", "arm6-perturbed"]


def test_env_dims():
    assert env_spec("pointmass").state_dim == 4
    assert env_spec("arm2").state_dim == 6 and env_spec("arm2").action_dim == 2
    assert env_spec("arm6").state_dim == 14 and env_spec("arm6").action_dim == 6
    assert env_spec("arm10").state_dim == 22 and env_spec("arm10").action_dim == 10


def test_unknown_env_rejected():
    with pytest.raises(ConfigError):
        env_spec("halfcheetah")
    with pytest.raises(ConfigError):
        env_reset("arm", 0)


def test_perturbed_arm_definition():
    base, pert = env_def("arm6"), env_def("arm6-perturbed")
    np.testing.assert_allclose(pert.params.lengths, 1.2 * np.array(base.params.lengths))
    assert pert.params.damping == 2.0 * base.params.damping
    assert pert.spec.digest() != base.spec.digest()


@pytest.mark.parametrize("field,value", [("damping", 1.5), ("lengths", (0.4, 0.3, 0.3))])
def test_env_digest_covers_the_dynamics(field, value, monkeypatch, tmp_path):
    """Changing one of arm3's dynamics parameters changes its digest, so a
    file written against the old dynamics no longer loads."""
    base = env_def("arm3")
    before = base.spec.digest()
    collect_demos("arm3", 1, seed=0, min_success_rate=0.0).save(tmp_path / "demos.bin")
    changed = replace(base, params=replace(base.params, **{field: value}))
    monkeypatch.setattr(envsim, "env_def", lambda env_id: changed)
    assert base.spec.digest() != before
    with pytest.raises(CheckpointError, match="different arm3 definition"):
        DemoBuffer.load(tmp_path / "demos.bin")


# -- kinematics ---------------------------------------------------------------


def test_fk_closed_forms():
    np.testing.assert_allclose(forward_kinematics((1, 1), (0, 0)), [2, 0], atol=1e-15)
    np.testing.assert_allclose(
        forward_kinematics((1, 1), (np.pi / 2, 0)), [0, 2], atol=1e-15
    )
    np.testing.assert_allclose(
        forward_kinematics((1, 1), (np.pi / 2, -np.pi / 2)), [1, 1], atol=1e-15
    )


def test_fk_matches_transform_composition():
    rng = np.random.default_rng(0)
    for _ in range(100):
        k = int(rng.integers(1, 8))
        lengths = rng.uniform(0.2, 1.5, k)
        angles = rng.uniform(-np.pi, np.pi, k)
        # oracle: compose per-link homogeneous transforms
        T = np.eye(3)
        for l, th in zip(lengths, angles):
            c, s = np.cos(th), np.sin(th)
            T = T @ np.array([[c, -s, c * l], [s, c, s * l], [0, 0, 1]])
        np.testing.assert_allclose(
            forward_kinematics(lengths, angles), T[:2, 2], atol=1e-12
        )


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(1)
    lengths = rng.uniform(0.2, 1.0, 5)
    angles = rng.uniform(-2, 2, 5)
    jac = rowwise.kernel_arm_jacobian(lengths, angles)
    h = 1e-7
    for j in range(5):
        up, dn = angles.copy(), angles.copy()
        up[j] += h
        dn[j] -= h
        fd = (forward_kinematics(lengths, up) - forward_kinematics(lengths, dn)) / (2 * h)
        np.testing.assert_allclose(jac[:, j], fd, atol=1e-6)


def test_wrap_angle_range():
    th = np.linspace(-10, 10, 2001)
    w = wrap_angle(th)
    assert np.all(w > -np.pi) and np.all(w <= np.pi)
    assert wrap_angle(np.array([np.pi]))[0] == np.pi
    assert wrap_angle(np.array([-np.pi]))[0] == np.pi


# -- dynamics -----------------------------------------------------------------


def test_arm_equilibrium():
    s = env_reset("arm6", 0)
    nxt, _ = env_step("arm6", s, np.zeros(6))
    np.testing.assert_array_equal(nxt, s)


def test_pointmass_single_euler_step():
    env = env_def("pointmass")
    s = env_reset("pointmass", 0)
    f = np.array([0.5, -0.25])
    nxt, _ = env_step("pointmass", s, f)
    np.testing.assert_allclose(nxt[2:], f * env.spec.dt / env.params.mass, atol=1e-15)


def kinetic_energy(env_id, state):
    env = env_def(env_id)
    if env.kind == "pointmass":
        v = state[2:]
        return 0.5 * env.params.mass * float(v @ v)
    _, vel, _ = envsim.split_arm_state(env, state)
    return 0.5 * env.params.inertia * float(vel @ vel)


def test_kinetic_energy_nonincreasing_unforced():
    for env_id in ("pointmass", "arm6"):
        s = env_reset(env_id, 3)
        # give it speed first
        rng = np.random.default_rng(4)
        for _ in range(20):
            s, _ = env_step(env_id, s, rng.uniform(-1, 1, env_spec(env_id).action_dim))
        ke = kinetic_energy(env_id, s)
        for _ in range(1000):
            s, _ = env_step(env_id, s, np.zeros(env_spec(env_id).action_dim))
            ke_next = kinetic_energy(env_id, s)
            assert ke_next <= ke + 1e-15
            ke = ke_next


def test_reset_deterministic():
    for env_id in ALL_ENVS:
        np.testing.assert_array_equal(env_reset(env_id, 7), env_reset(env_id, 7))


def test_goal_annulus_audit():
    # pointmass: goal = -state[:2] at reset
    p = env_def("pointmass").params
    radii = [np.linalg.norm(env_reset("pointmass", s)[:2]) for s in range(10_000)]
    assert min(radii) >= p.goal_radii[0] and max(radii) <= p.goal_radii[1]
    # arm: goal stored in the state tail, radius relative to total reach
    env = env_def("arm6")
    reach = float(np.sum(env.params.lengths))
    radii = [np.linalg.norm(env_reset("arm6", s)[-2:]) / reach for s in range(10_000)]
    assert min(radii) >= env.params.goal_radii[0] - 1e-12
    assert max(radii) <= env.params.goal_radii[1] + 1e-12


def test_pointmass_reset_at_origin():
    s = env_reset("pointmass", 0)
    # agent at origin: state[:2] = -goal, inside the unit disc, zero velocity
    assert np.linalg.norm(s[:2]) <= 1.0
    np.testing.assert_array_equal(s[2:], 0.0)


def test_states_bounded_under_fuzzed_actions():
    rng = np.random.default_rng(5)
    for env_id in ("pointmass", "arm10"):
        spec = env_spec(env_id)
        s = env_reset(env_id, 11)
        for _ in range(2 * spec.horizon):
            s, r = env_step(env_id, s, rng.uniform(-1, 1, spec.action_dim))
            assert np.all(np.isfinite(s)) and np.isfinite(r)


def test_nonfinite_input_faults():
    s = env_reset("pointmass", 0)
    with pytest.raises(envsim.EnvironmentFault):
        env_step("pointmass", s, np.array([np.nan, 0.0]))


def test_action_clamp_counter():
    envsim.reset_clamp_counts()
    s = env_reset("pointmass", 0)
    env_step("pointmass", s, np.array([5.0, 0.0]))
    assert envsim.clamp_counts().get("pointmass", 0) == 1


# -- experts ------------------------------------------------------------------


def test_arm_expert_zero_at_goal():
    env = env_def("arm6")
    angles = np.full(6, 0.3)
    goal = forward_kinematics(env.params.lengths, angles)
    state = np.concatenate([angles, np.zeros(6), goal])
    np.testing.assert_allclose(scripted_expert("arm6", state), np.zeros(6), atol=1e-12)


def test_pointmass_expert_collinear_at_rest():
    rng = np.random.default_rng(6)
    for _ in range(50):
        delta = rng.uniform(-0.3, 0.3, 2)  # small so no clipping
        state = np.concatenate([delta, np.zeros(2)])
        a = scripted_expert("pointmass", state)
        toward = -delta  # goal - pos
        cross = a[0] * toward[1] - a[1] * toward[0]
        assert abs(cross) < 1e-12 and a @ toward > 0


def episode_return(env_id, act_fn, episode_seed):
    return np.sum(rollout_episode(env_id, act_fn, episode_seed)[1])


def test_expert_beats_random_everywhere():
    for env_id in ALL_ENVS:
        spec = env_spec(env_id)
        exp, rnd = [], []
        for ep in range(8):
            exp.append(episode_return(env_id, lambda s, t: scripted_expert(env_id, s), 100 + ep))
            rng = np.random.default_rng(200 + ep)
            rnd.append(episode_return(env_id, lambda s, t: rng.uniform(-1, 1, spec.action_dim),
                                      100 + ep))
        assert np.mean(exp) > np.mean(rnd) + 1.0, env_id


def test_expert_reference_reproducible():
    a, b = ([rollout_episode("arm6", lambda s, t: scripted_expert("arm6", s), 50 + i)
             for i in range(4)] for _ in range(2))
    for (final_a, rewards_a), (final_b, rewards_b) in zip(a, b):
        assert final_a.tobytes() == final_b.tobytes()
        assert rewards_a.tobytes() == rewards_b.tobytes()


# -- demos ---------------------------------------------------------------------


def test_collect_demos_shapes_and_boundaries():
    spec = env_spec("pointmass")
    demos = collect_demos("pointmass", n_episodes=5, seed=0)
    assert len(demos) == 5 * spec.horizon
    np.testing.assert_array_equal(
        demos.episode_boundaries, np.arange(5) * spec.horizon
    )
    single = collect_demos("pointmass", n_episodes=1, seed=0)
    np.testing.assert_array_equal(single.episode_boundaries, [0])


def test_demo_replay_audit():
    """Within each episode, each state is the step of the state and action
    before it, and `next_states` holds each episode's final step."""
    demos = collect_demos("arm2", n_episodes=3, seed=1)
    h = env_spec("arm2").horizon
    for start in range(0, len(demos), h):
        path = np.concatenate([demos.states[start:start + h],
                               demos.next_states[start + h - 1:start + h]])
        for t in range(h):
            nxt, r = env_step("arm2", path[t], demos.actions[start + t])
            np.testing.assert_array_equal(nxt, path[t + 1])
            assert r == demos.rewards[start + t]


def test_demo_quality_gate_rejects_bad_expert():
    wild = JitterConfig(ou_sigma=30.0, fade_floor=1.0, fade_dist=1e9)
    with pytest.raises(QualityGateError):
        collect_demos("arm6", n_episodes=8, seed=0, jitter=wild)


DEMO_ARRAYS = ("states", "actions", "next_states", "dones", "rewards", "episode_boundaries")


def assert_same_demo_arrays(back, demos):
    assert back.env_id == demos.env_id and back.env_digest == demos.env_digest
    for name in DEMO_ARRAYS:
        ours, theirs = getattr(back, name), getattr(demos, name)
        assert (ours.dtype, ours.shape, ours.tobytes()) == (
            theirs.dtype, theirs.shape, theirs.tobytes()), name


def test_demo_file_round_trip(tmp_path):
    """A demo file holds the states and actions; loading derives the rest."""
    demos = collect_demos("arm6", n_episodes=4, seed=2)
    path = tmp_path / "demo.bin"
    demos.save(path)
    demos.save(tmp_path / "demo2.bin")
    assert (tmp_path / "demo.bin").read_bytes() == (tmp_path / "demo2.bin").read_bytes()
    stored = configio.read_checkpoint(path, "demo", lambda header, arrays: sorted(arrays))
    assert stored == ["actions", "states"]
    assert_same_demo_arrays(DemoBuffer.load(path), demos)


def test_six_array_demo_file_loads_to_the_same_arrays(tmp_path):
    """A file that also stores the four derived arrays, as demo files did
    before they held only states and actions, loads to the same arrays."""
    demos = collect_demos("arm3", n_episodes=3, seed=4)
    arrays = {name: getattr(demos, name) for name in DEMO_ARRAYS}
    arrays["episode_boundaries"] = demos.episode_boundaries.astype(np.uint64)
    configio.write_checkpoint(tmp_path / "six.bin", {
        "kind": "demo", "env_id": "arm3", "env_digest": demos.env_digest}, arrays)
    assert_same_demo_arrays(DemoBuffer.load(tmp_path / "six.bin"), demos)


def test_demo_file_rejects_wrong_env(tmp_path):
    demos = collect_demos("arm6", n_episodes=2, seed=0)
    path = tmp_path / "demo.bin"
    demos.save(path)
    # a well-formed file (valid checksum) whose env digest is not arm6's
    header, arrays = configio.read_checkpoint(path, "demo", lambda h, a: (h, a))
    configio.write_checkpoint(tmp_path / "bad.bin", {**header, "env_digest": "0" * 64},
                              arrays)
    with pytest.raises(CheckpointError):
        DemoBuffer.load(tmp_path / "bad.bin")
