"""Print one digest per setup and training path, to compare two versions.

A change meant to be bit-identical must print the same lines before and
after. Run from the repository root:

    PYTHONPATH=src python tests/digests.py

It prints a digest of the demos of every env family at fixed seeds, of a
short `train_codec` run (weights and history), of a small `run_training`
in each mode (per-iteration digests and the curve), of the same arm3 runs
with a 300-row replay buffer, which wraps, of an arm3 agnostic run that
makes no updates, of one evaluation of the arm3 agnostic policy with the
expert and random references, of a short transfer of that policy to
arm3-perturbed (codec weights and history) and its returns there, and of
20 float64 SAC learner steps on arm3 features. With `--against FILE` it
prints only the lines that differ from FILE, a saved output, and exits 1 if
any do:

    PYTHONPATH=src python tests/digests.py > before.txt
    PYTHONPATH=src python tests/digests.py --against before.txt

The `params`, `transfer` and `learner` lines hash only parameter buffers and
numbers, never a config string, so they stay comparable across a change to
how a config prints.
pytest does not collect this file.
"""

import argparse
import hashlib
import sys
import warnings
from dataclasses import astuple, replace

import numpy as np

from conftest import float64
from lapal import envsim, latentact, orchestrator, sacgen

ENVS = ["pointmass", "arm1", "arm2", "arm3", "arm6", "arm3-perturbed", "arm6-perturbed"]


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()[:16]


def demo_digest(demos) -> str:
    return digest(demos.env_id, demos.states, demos.actions, demos.next_states, demos.dones,
                  demos.rewards, demos.episode_boundaries)


RECORD_KEYS = ("iteration", "env_steps", "actor_digest", "critic_digest", "disc_digest",
               "alpha", "buffer_size")


def codec_params(codec) -> list:
    return [] if codec is None else [codec.encoder.params, codec.decoder.params]


def learner_digest() -> str:
    """20 SAC updates of a float64 arm3 agent on one fixed batch of demo
    transitions, with a constant reward: the params of the actor, critic 1,
    critic 2, target 1 and target 2, and the losses."""
    demos = envsim.collect_demos("arm3", 2, 5, min_success_rate=0.0)
    s, s2 = (envsim.feature_map("arm3", x[:64]) for x in (demos.states, demos.next_states))
    u = demos.actions[:64]
    agent = float64(sacgen.SacAgent(s.shape[1], u.shape[1], sacgen.SacConfig(), 0))
    rng = np.random.default_rng(1)
    losses = []
    for _ in range(20):
        a = sacgen.sac_update(agent, s, u, s2, np.full(len(s), 0.5), rng)
        losses.append((a["critic1"], a["critic2"], a["q_mean"], a["actor"], a["entropy"]))
    trees = (agent.actor, *(t.member(j) for t in (agent.critics, agent.targets) for j in (0, 1)))
    return digest(*[t.params for t in trees], agent.log_alpha.value, losses, a["u"])


def small_run(algo, env_id):
    return orchestrator.RunConfig(
        algo=algo, env_id=env_id, total_env_steps=500, steps_per_iteration=250,
        disc_updates_per_iteration=10, gen_updates_per_iteration=20,
        eval_every=250, eval_episodes=4, divergence_guard=False)


def run_with_records(run, sac_cfg, demos, codec):
    """The run's result and the per-iteration records it reported."""
    records = []
    res = orchestrator.run_training(run, sac_cfg, demos, codec if run.latent else None,
                                    seed=3, on_iteration=records.append)
    return res, records


def main(emit=print):
    """Hand each digest line to `emit`."""
    warnings.simplefilter("ignore")
    for env_id in ENVS:
        for n, seed in ((1, 0), (5, 3), (16, 11)):
            demos = envsim.collect_demos(env_id, n, seed, min_success_rate=0.0)
            emit(f"demos {env_id} n={n} seed={seed}: {demo_digest(demos)}")

    cfg = latentact.CVAEConfig(latent_dim=2, epochs=4)
    for env_id in ("arm3", "pointmass"):
        demos = envsim.collect_demos(env_id, 16, 5)
        codec, history = latentact.train_codec(demos, cfg, 7)
        if env_id == "arm3":
            emit(f"train_codec arm3: {digest(codec.digest(), sorted(history.items()))}")
        emit(f"codec params {env_id}: "
              f"{digest(*codec_params(codec), sorted(history.items()))}")

        for algo in orchestrator.ALGOS:
            run = small_run(algo, env_id)
            res, records = run_with_records(run, sacgen.SacConfig(), demos, codec)
            curve = [astuple(row) for row in res.curve]
            if env_id == "arm3":
                emit(f"run_training {algo}: {digest(records, curve, res.bundle.digest())}")
            numbers = [tuple(r[k] for k in RECORD_KEYS) for r in records]
            params = digest(numbers, curve, res.bundle.actor.params,
                            *codec_params(res.bundle.codec))
            emit(f"run params {env_id} {algo}: {params}")
            if env_id == "arm3" and algo == "lapal-agnostic":
                source = res.bundle
        if env_id == "arm3":
            wrapped = []
            for algo in orchestrator.ALGOS:
                res, records = run_with_records(small_run(algo, env_id),
                                          sacgen.SacConfig(buffer_capacity=300), demos, codec)
                wrapped += [records, [astuple(row) for row in res.curve], res.bundle.digest()]
            emit(f"run_training wrap arm3: {digest(*wrapped)}")
            idle = replace(small_run("lapal-agnostic", env_id), disc_updates_per_iteration=0,
                           gen_updates_per_iteration=0)
            res, records = run_with_records(idle, sacgen.SacConfig(), demos, codec)
            emit(f"run_training no updates arm3: "
                  f"{digest(records, [astuple(row) for row in res.curve])}")
            evals = orchestrator.evaluate_policies(
                [source, orchestrator.ExpertPolicy(env_id), orchestrator.RandomPolicy(env_id)],
                env_id, 16, 5)
            emit(f"evaluate_policies arm3: {digest(evals)}")

    target = envsim.collect_demos("arm3-perturbed", 16, 5)
    moved, history = orchestrator.transfer_policy(source, target, cfg, 7)
    emit(f"transfer arm3-perturbed: "
          f"{digest(*codec_params(moved.codec), sorted(history.items()))}")
    emit(f"evaluate transfer arm3-perturbed: "
          f"{digest(orchestrator.evaluate_policy(moved, 'arm3-perturbed', 16, 5))}")
    emit(f"learner float64: {learner_digest()}")


def compare(saved, lines) -> int:
    """Print the saved lines that `lines` lacks (`- `) and the lines that the
    saved output lacks (`+ `), then a count; 1 if any line differs."""
    gone = [line for line in saved if line not in set(lines)]
    new = [line for line in lines if line not in set(saved)]
    for mark, group in (("-", gone), ("+", new)):
        for line in group:
            print(f"{mark} {line}")
    print(f"{len(lines) - len(new)} of {len(lines)} lines unchanged, "
          f"{len(gone)} of {len(saved)} saved lines gone")
    return 1 if gone or new else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", metavar="FILE",
                    help="a saved output of this script: print only the lines that differ "
                         "from it, and exit 1 if any do")
    args = ap.parse_args()
    if args.against is None:
        main()
    else:
        printed = []
        main(printed.append)
        with open(args.against) as f:
            sys.exit(compare(f.read().splitlines(), printed))
