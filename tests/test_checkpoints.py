"""The checkpoint container: every kind rejects any damaged or mismatched
file with CheckpointError and nothing else."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BUFFERS, float64, trees_in
from lapal import adversary, configio, envsim, latentact, orchestrator
from lapal.errors import CheckpointError
from lapal.latentact import CVAEConfig
from lapal.nncore import MLPSpec, ParamTree

FEAT = envsim.feature_dim("pointmass")
FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=150)


def random_demo(n_episodes, rng):
    """Pointmass demos of `n_episodes` fixed-horizon episodes: random states,
    random actions in the unit box, and what the constructor derives."""
    spec = envsim.env_spec("pointmass")
    n = n_episodes * spec.horizon
    return envsim.DemoBuffer("pointmass", spec.digest(), rng.standard_normal((n, 4)),
                             rng.uniform(-1.0, 1.0, (n, 2)))


def write_demo_file(path, states, actions):
    """An intact pointmass demo file (valid checksum) of these two arrays."""
    configio.write_checkpoint(path, {"kind": "demo", "env_id": "pointmass",
                                     "env_digest": envsim.env_spec("pointmass").digest()},
                              {"states": states, "actions": actions})


def small_artifacts():
    """One small pointmass object of each kind, with its saver, loader and digest."""
    rng = np.random.default_rng(0)
    demo = random_demo(1, rng)
    codec = latentact.make_codec(
        "pointmass", CVAEConfig(latent_dim=1, encoder_hidden=(3,), decoder_hidden=(3,)), 1)
    disc = adversary.make_discriminator(
        adversary.DiscComposition("pointmass", "latent", FEAT, 1, codec.digest()), (3,), 2)
    policy = orchestrator.PolicyBundle(
        "pointmass", ParamTree.init(MLPSpec(FEAT, (3,), 2), rng), codec)
    demo_digest = lambda d: [d.env_id, d.env_digest] + [a.tobytes() for a in (
        d.states, d.actions, d.next_states, d.dones, d.rewards, d.episode_boundaries)]
    return {
        "demo": (demo, lambda p, d: d.save(p), envsim.DemoBuffer.load, demo_digest),
        "codec": (codec, latentact.save_codec, latentact.load_codec,
                  latentact.ActionCodec.digest),
        "disc": (disc, adversary.save_discriminator, adversary.load_discriminator,
                 adversary.Discriminator.digest),
        "policy": (policy, orchestrator.save_policy, orchestrator.load_policy,
                   orchestrator.PolicyBundle.digest),
    }


ARTIFACTS = small_artifacts()
KINDS = sorted(ARTIFACTS)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """kind -> (bytes of the saved file, a scratch path for damaged copies)."""
    root = tmp_path_factory.mktemp("ckpt")
    out = {}
    for kind, (obj, save, _, _) in ARTIFACTS.items():
        save(root / kind, obj)
        out[kind] = (root / kind).read_bytes(), root / f"{kind}.damaged"
    return out


def load_bytes(kind, path, data):
    path.write_bytes(data)
    return ARTIFACTS[kind][2](path)


@pytest.mark.parametrize("kind", KINDS)
def test_round_trip_keeps_digest_and_bytes(kind, tmp_path):
    obj, save, load, digest = ARTIFACTS[kind]
    save(tmp_path / "a", obj)
    save(tmp_path / "b", obj)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
    assert digest(load(tmp_path / "a")) == digest(obj)


@pytest.mark.parametrize("kind", KINDS)
def test_truncation_at_every_offset_raises(kind, saved):
    raw, path = saved[kind]
    for cut in range(len(raw)):
        with pytest.raises(CheckpointError):
            load_bytes(kind, path, raw[:cut])


@pytest.mark.parametrize("kind", KINDS)
@FUZZ
@given(data=st.data())
def test_any_bit_flip_raises(kind, saved, data):
    raw, path = saved[kind]
    bit = data.draw(st.integers(0, 8 * len(raw) - 1))
    damaged = bytearray(raw)
    damaged[bit // 8] ^= 1 << (bit % 8)
    with pytest.raises(CheckpointError):
        load_bytes(kind, path, bytes(damaged))


@pytest.mark.parametrize("kind", KINDS)
@FUZZ
@given(suffix=st.binary(min_size=1, max_size=64))
def test_any_suffix_raises(kind, saved, suffix):
    raw, path = saved[kind]
    with pytest.raises(CheckpointError):
        load_bytes(kind, path, raw + suffix)


def rewrite(path, kind, **changes):
    """Re-save a checkpoint with header fields changed; the checksum stays valid."""
    header, arrays = configio.read_checkpoint(path, kind, lambda h, a: (h, a))
    configio.write_checkpoint(path, {**header, **changes}, arrays)


@pytest.mark.parametrize("kind", ["demo", "raw-policy"])
def test_wrong_env_digest_raises(kind, tmp_path):
    path = tmp_path / kind
    if kind == "demo":
        envsim.collect_demos("pointmass", n_episodes=1, seed=0).save(path)
    else:
        actor = ParamTree.init(MLPSpec(FEAT, (3,), 4), np.random.default_rng(3))
        orchestrator.save_policy(path, orchestrator.PolicyBundle("pointmass", actor))
        assert orchestrator.load_policy(path).codec is None
    file_kind, load = {"demo": ("demo", envsim.DemoBuffer.load),
                       "raw-policy": ("policy", orchestrator.load_policy)}[kind]
    rewrite(path, file_kind, env_digest="0" * 64)
    with pytest.raises(CheckpointError, match="different pointmass definition"):
        load(path)


@pytest.mark.parametrize("kind,changes", [
    ("demo", {"env_id": "nosuchenv"}),
    ("demo", {"env_id": 7}),
    ("codec", {"config": {"latent_dim": 1, "warp": 2}}),
    ("codec", {"config": {"latent_dim": 0}}),
    ("codec", {"config": {"latent_dim": 2, "epochs": -1}}),
    ("codec", {"encoder": None}),
    ("codec", {"config": {"latent_dim": 1, "encoder_hidden": [3], "decoder_hidden": [3],
                          "sample_encoding": False}}),
    ("disc", {"hidden": "3"}),
    ("disc", {"composition": {"env_id": "pointmass", "input_kind": "pixels",
                              "state_dim": FEAT, "u_dim": 1}}),
    ("policy", {"u_dim": "1"}),
    ("policy", {"policy_kind": "pixels"}),
    ("policy", {"actor": {"spec": "mlp", "step": 0}}),
    ("policy", {"codec.encoder": {"step": 0}}),
    ("policy", {"codec.config": {"latent_dim": 1, "encoder_hidden": [3], "decoder_hidden": [3],
                                 "sample_encoding": False}}),
])
def test_bad_header_field_raises(kind, changes, saved):
    raw, path = saved[kind]
    path.write_bytes(raw)
    rewrite(path, kind, **changes)
    with pytest.raises(CheckpointError):
        ARTIFACTS[kind][2](path)


def test_checkpoint_of_another_kind_raises(saved):
    raw, path = saved["codec"]
    with pytest.raises(CheckpointError, match="not 'policy'"):
        load_bytes("policy", path, raw)


def test_array_shape_that_does_not_fit_the_env_raises(saved):
    raw, path = saved["demo"]
    path.write_bytes(raw)
    header, arrays = configio.read_checkpoint(path, "demo", lambda h, a: (h, a))
    configio.write_checkpoint(path, header, {**arrays, "actions": np.zeros((3, 5))})
    with pytest.raises(CheckpointError, match="do not fit"):
        envsim.DemoBuffer.load(path)


@pytest.mark.parametrize("rows", [0, 1, 59, 61, 119, 121])
def test_demo_rows_that_are_not_whole_episodes_raise(rows, tmp_path):
    rng = np.random.default_rng(1)
    write_demo_file(tmp_path / "d", rng.standard_normal((rows, 4)),
                    rng.uniform(-1.0, 1.0, (rows, 2)))
    with pytest.raises(CheckpointError, match="60-step episodes"):
        envsim.DemoBuffer.load(tmp_path / "d")


@pytest.mark.parametrize("name,row,value", [
    ("states", 0, np.nan), ("states", 119, -np.inf), ("actions", 7, np.nan),
    ("actions", 60, np.inf), ("actions", 3, 1.0 + 2.0 ** -52), ("actions", 119, -1.5),
])
def test_demo_rows_that_are_not_finite_or_in_the_box_raise(name, row, value, tmp_path):
    """Checked before the constructor steps them, which would raise another
    error or clamp the action and count the clamp."""
    demo = random_demo(2, np.random.default_rng(3))
    arrays = {"states": demo.states.copy(), "actions": demo.actions.copy()}
    arrays[name][row, -1] = value
    write_demo_file(tmp_path / "d", **arrays)
    envsim.reset_clamp_counts()
    with pytest.raises(CheckpointError, match=r"finite and actions in \[-1, 1\]"):
        envsim.DemoBuffer.load(tmp_path / "d")
    assert envsim.clamp_counts() == {}


def test_saved_trees_load_float32_with_the_same_bytes_and_passes(tmp_path):
    # precision is not part of a checkpoint: a float64 tree saves the same
    # bytes, and the loaded float32 tree computes what the saved one did
    codec = ARTIFACTS["codec"][0]
    latentact.save_codec(tmp_path / "f32", codec)
    latentact.save_codec(tmp_path / "f64", float64(codec.copy()))
    assert (tmp_path / "f32").read_bytes() == (tmp_path / "f64").read_bytes()
    back = latentact.load_codec(tmp_path / "f32")
    assert back.digest() == codec.digest()
    assert back.encoder.dtype == back.decoder.dtype == np.float32
    x = np.random.default_rng(3).standard_normal((5, codec.encoder.spec.input_dim))
    assert back.encoder.forward(x).tobytes() == codec.encoder.forward(x).tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_trained_round_trip_keeps_digest_and_adam_state(kind, tmp_path):
    obj, save, load, digest = small_artifacts()[kind]
    rng = np.random.default_rng(4)
    for tree in trees_in(obj):
        for _ in range(3):
            tree.grads[...] = rng.standard_normal(tree.grads.size)
            tree.adam_step(lr=1e-2)
    save(tmp_path / "a", obj)
    back = load(tmp_path / "a")
    assert digest(back) == digest(obj)
    pairs = list(zip(trees_in(obj), trees_in(back), strict=True))
    assert len(pairs) == {"demo": 0, "disc": 1, "codec": 2, "policy": 3}[kind]
    for tree, loaded in pairs:
        assert loaded.step == tree.step == 3 and loaded.dtype == np.float32
        for name in BUFFERS[:1] + BUFFERS[2:]:
            assert getattr(loaded, name).tobytes() == getattr(tree, name).tobytes()


@pytest.mark.parametrize("kind", ["codec", "disc", "policy"])
def test_float64_master_weights_checkpoint_raises(kind, tmp_path):
    # a file written with float64 master weights: the float32 trees the lab
    # loads cannot hold them, so the loader refuses it instead of rounding
    obj, save, load, _ = small_artifacts()[kind]
    tree = next(trees_in(float64(obj)))
    tree.params += 1e-9 * np.random.default_rng(5).standard_normal(tree.params.size)
    save(tmp_path / "a", obj)
    with pytest.raises(CheckpointError, match="cannot hold exactly"):
        load(tmp_path / "a")
