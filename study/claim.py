#!/usr/bin/env python3
"""Claim check: does the learner learn, beyond the untrained policy's prior?

Runs `gail` and `lapal-agnostic` on arm3 for 16k env steps at each seed,
moves each seed's agnostic policy to arm3-perturbed, and prints one JSON
line. Each (mode, seed) is one job in a pool of WORKERS spawned processes:
its prior run, its run and, for agnostic, its transfer. Every run is seeded
and single-threaded, so only `seconds` depends on the pool. Run from the
repository root (about 2 minutes on two cores), then check a later version
against that line:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 study/claim.py > before.json
    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 study/claim.py --reference before.json

Setup: demos `collect_demos("arm3", 16, seed=3)`; codec `train_codec(
CVAEConfig(latent_dim=2, epochs=30), seed=1)`; `SacConfig()` defaults;
`RunConfig` defaults (500 discriminator and 1000 generator updates per 1000
env steps, a 16-episode evaluation every 2000 steps) with the divergence
guard off. A mode's `prior` is the normalized return of its untrained actor
on the same evaluation episodes: the same run with zero updates.

Transfer: each seed's agnostic policy moves to arm3-perturbed through
`orchestrator.transfer_policy` on the demos `collect_demos("arm3-perturbed",
16, seed=3)`, with the codec's `CVAEConfig`. Its baseline is no retraining:
the same actor acting through the source codec, relabelled to
arm3-perturbed. Both are normalized against the expert and random policies
on the same EVAL_EPISODES arm3-perturbed episodes.

Curves are aggregated across seeds with `orchestrator.aggregate_curves`. The
check passes when, over the seeds,
  - agnostic's final mean normalized return is at least AGNOSTIC_FLOOR,
  - it is above gail's final mean,
  - each mode's final mean is above the mean of its prior,
  - the transferred policies' mean normalized return is above no
    retraining's,
and, when `--reference` gives an earlier output line, each mode's final mean
is within TOLERANCE[mode] of the reference's. The thresholds come from a
first run on seeds 0-2 (agnostic 0.889, seeds 0.845-0.929; gail 0.498, seeds
0.220-0.662): the floor sits below every agnostic seed, and each tolerance is
about twice the spread of a difference of two 3-seed means at that run's
seed spread (0.034 for agnostic, 0.197 for gail).
This script is not part of the test suite.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

from lapal import envsim, latentact, orchestrator, sacgen

MODES = ("gail", "lapal-agnostic")
AGNOSTIC_FLOOR = 0.8
TOLERANCE = {"gail": 0.3, "lapal-agnostic": 0.1}
# the thresholds above were set from a run at exactly these seeds and steps
SEEDS = (0, 1, 2)
STEPS = 16000
TARGET = "arm3-perturbed"
EVAL_EPISODES = 16
WORKERS = 2


def run(algo, demos, codec, seed, steps, updates=True):
    cfg = orchestrator.RunConfig(
        algo=algo, env_id="arm3", total_env_steps=steps, divergence_guard=False,
        **({} if updates else dict(disc_updates_per_iteration=0,
                                   gen_updates_per_iteration=0, eval_every=steps)))
    return orchestrator.run_training(cfg, sacgen.SacConfig(), demos,
                                     codec if cfg.latent else None, seed=seed)


def transfer(bundle, cvae, seed):
    """Normalized returns on TARGET of `bundle` moved by `transfer_policy`,
    and of the same actor through its source codec."""
    target = envsim.collect_demos(TARGET, 16, seed=3)
    refs = [orchestrator.ExpertPolicy(TARGET), orchestrator.RandomPolicy(TARGET)]
    moved, _ = orchestrator.transfer_policy(bundle, target, cvae, seed=seed)
    kept = orchestrator.PolicyBundle(
        TARGET, bundle.actor, dataclasses.replace(bundle.codec, env_id=TARGET))
    (moved_r, _), (kept_r, _), (expert, _), (rand, _) = orchestrator.evaluate_policies(
        [moved, kept] + refs, TARGET, EVAL_EPISODES, seed)
    return (moved_r - rand) / (expert - rand), (kept_r - rand) / (expert - rand)


def job(algo, seed, demos, codec, cvae):
    """One (mode, seed): its prior, its curve rows and, for `lapal-agnostic`,
    its (transferred, no retraining) returns; numbers only, no networks."""
    warnings.simplefilter("ignore")
    prior = run(algo, demos, codec, seed, 2000, updates=False).curve[0].norm_eval_return
    res = run(algo, demos, codec, seed, STEPS)
    moved = transfer(res.bundle, cvae, seed) if algo == "lapal-agnostic" else None
    return prior, res.curve, moved


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reference", help="an earlier output line of this script (a file)")
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")
    t0 = time.perf_counter()
    demos = envsim.collect_demos("arm3", 16, seed=3)
    cvae = latentact.CVAEConfig(latent_dim=2, epochs=30)
    codec, _ = latentact.train_codec(demos, cvae, seed=1)
    with ProcessPoolExecutor(WORKERS, mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = {(algo, seed): pool.submit(job, algo, seed, demos, codec, cvae)
                   for algo in MODES for seed in SEEDS}
        jobs = {key: f.result() for key, f in futures.items()}
    out = {"seeds": list(SEEDS), "steps": STEPS, "modes": {}}
    for algo in MODES:
        priors, curves, _ = zip(*(jobs[algo, seed] for seed in SEEDS))
        agg = orchestrator.aggregate_curves(curves)
        out["modes"][algo] = {
            "prior": sum(priors) / len(priors),
            "final": agg[-1]["mean_norm_return"],
            "final_std": agg[-1]["std_norm_return"],
            "final_by_seed": [c[-1].norm_eval_return for c in curves],
            "curve": [round(r["mean_norm_return"], 4) for r in agg],
        }
    moved = [jobs["lapal-agnostic", seed][2] for seed in SEEDS]
    by_seed = {"transferred": [m[0] for m in moved], "no_retraining": [m[1] for m in moved]}
    out["transfer"] = {name: sum(v) / len(v) for name, v in by_seed.items()}
    out["transfer"].update({f"{name}_by_seed": v for name, v in by_seed.items()})
    gail, agn = out["modes"]["gail"], out["modes"]["lapal-agnostic"]
    checks = {
        "agnostic_floor": agn["final"] >= AGNOSTIC_FLOOR,
        "agnostic_above_gail": agn["final"] > gail["final"],
        "above_prior": all(m["final"] > m["prior"] for m in out["modes"].values()),
        "transfer_above_no_retraining":
            out["transfer"]["transferred"] > out["transfer"]["no_retraining"],
    }
    if args.reference:
        with open(args.reference) as f:
            ref = json.loads(f.read().strip().splitlines()[-1])["modes"]
        checks["within_tolerance"] = all(
            abs(out["modes"][a]["final"] - ref[a]["final"]) <= TOLERANCE[a] for a in MODES)
    out.update(checks=checks, passed=all(checks.values()),
               seconds=round(time.perf_counter() - t0, 1))
    print(json.dumps(out))
    return 0 if out["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
