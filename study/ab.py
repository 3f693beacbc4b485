#!/usr/bin/env python3
"""In-process A/B of `run_training`, or of whole benchmark rounds, between an
older lapal and this checkout.

Both versions are imported into one process and their runs interleave, so a
per-process offset (code placement, heap layout) falls on both sides alike
instead of counting as a difference between them. Run from the repository
root, with OLD_SRC the `src` directory of another checkout:

    mkdir -p /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python3 study/ab.py /tmp/parent/src --reps 12
    python3 study/ab.py /tmp/parent/src --reps 12 --pin
    python3 study/ab.py /tmp/parent/src --reps 10 --pin --round --workload rollout-arm3

OLD_SRC/lapal is copied to a temporary package named `lapal_old` (every
import inside lapal is relative, so the copy imports as itself). The budget,
the seeds and the malloc pinning come from perfbench/run.py: each side
collects the workload's demos and pretrains its own codec once, then every
rep runs `run_training` for `gail` and `lapal-agnostic` on each side,
alternating which side goes first. `--pin` fixes glibc's malloc thresholds
as the benchmark does; without it glibc keeps its adaptive defaults. BLAS
runs on one thread, as in the benchmark.

For each mode it prints each side's median and quartiles of wall time, the
number of reps the new side was faster, the median minor page faults
(`ru_minflt`) per run, and whether the last per-iteration digests and the
curves of the two sides match.

With `--round` each rep runs perfbench/run.py's `run_round`, the whole
benchmark pipeline, once per side instead, alternating which side goes first,
after one untimed warm-up round per side. For each time metric that
BENCHMARK.json declares it prints each side's median and quartiles, the
number of reps the new side was faster, the new/old median ratio and, next to
it, each side's quartile spread as a share of its median; then the median
minor page faults of each `run_round` phase on each side, each side's failed
operations, and whether the two sides' round records are identical. Peak RSS
is per process, so it is left out. This script is not part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import importlib.util
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODES = ("gail", "lapal-agnostic")
DIGESTS = ("actor_digest", "critic_digest", "disc_digest", "codec_digest")


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@contextlib.contextmanager
def counting_faults(counts: dict, phase: str):
    """Append the minor page faults taken inside the block to counts[phase]."""
    f0 = minor_faults()
    try:
        yield
    finally:
        counts.setdefault(phase, []).append(minor_faults() - f0)


def load_bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)    # its dataclasses look their module up by name
    return run


def import_lapal(name: str):
    """The package `name` with the submodules `run_round` reads as attributes."""
    for mod in ("adversary", "envsim", "latentact", "orchestrator", "sacgen"):
        importlib.import_module(f"{name}.{mod}")
    return importlib.import_module(name)


class Side:
    """One version of lapal, its demos and codec, and its timed runs."""

    def __init__(self, name, package, run, budget, seeds):
        self.name = name
        lapal = import_lapal(package)
        self.envsim, self.latentact, self.orch, self.sacgen = (
            lapal.envsim, lapal.latentact, lapal.orchestrator, lapal.sacgen)
        self.budget, self.seeds = budget, seeds
        self.demos = self.envsim.collect_demos(run.ENV_ID, budget.demo_episodes, seeds.demos)
        cvae = self.latentact.CVAEConfig(latent_dim=run.LATENT_DIM, epochs=budget.codec_epochs)
        self.codec, _ = self.latentact.train_codec(self.demos, cvae, seeds.codec)
        self.env_id = run.ENV_ID
        self.times = {m: [] for m in MODES}
        self.faults = {m: [] for m in MODES}
        self.outcome = {}

    def train(self, algo):
        b = self.budget
        cfg = self.orch.RunConfig(
            algo=algo, env_id=self.env_id, total_env_steps=b.train_steps,
            steps_per_iteration=b.steps_per_iteration,
            disc_updates_per_iteration=b.disc_updates,
            gen_updates_per_iteration=b.gen_updates, eval_every=b.steps_per_iteration,
            eval_episodes=b.train_eval_episodes, divergence_guard=False)
        hook = []
        f0 = minor_faults()
        t0 = time.perf_counter()
        res = self.orch.run_training(cfg, self.sacgen.SacConfig(), self.demos,
                                     self.codec if cfg.latent else None, self.seeds.run,
                                     on_iteration=hook.append)
        t1 = time.perf_counter()
        self.times[algo].append(t1 - t0)
        self.faults[algo].append(minor_faults() - f0)
        # repr, so that the NaN losses of updates that never ran compare equal
        self.outcome[algo] = ([hook[-1][k] for k in DIGESTS],
                              repr([dataclasses.astuple(row) for row in res.curve]))


def compare_rounds(run, budget, seeds, reps) -> None:
    """`reps` interleaved benchmark rounds per side, after one untimed warm-up
    round each; prints the time metrics, the minor faults of each phase,
    failures and record comparison."""
    sides = {"old": import_lapal("lapal_old"), "new": import_lapal("lapal")}
    ledgers = {name: run.Ledger() for name in sides}
    times = {name: {} for name in sides}
    faults = {name: {} for name in sides}      # phase -> minor faults per round
    records = {name: [] for name in sides}
    (run.OUT / "ckpt").mkdir(parents=True, exist_ok=True)     # run_round saves here
    for rep in range(-1, reps):
        for name in ("old", "new") if rep % 2 == 0 else ("new", "old"):
            counts = faults[name] if rep >= 0 else {}
            t, rec = run.run_round(sides[name], budget, seeds, ledgers[name],
                                   lambda phase: counting_faults(counts, phase))
            if rep >= 0:
                for k, v in t.items():
                    times[name].setdefault(k, []).append(v)
                records[name].append(json.dumps(rec, sort_keys=True))

    for metric in (m for m, unit in run.declared_metrics(0) if unit == "s"):
        old, new = times["old"].get(metric, []), times["new"].get(metric, [])
        if not (old and new):
            print(f"{metric}: not measured (old {len(old)}, new {len(new)} rounds)")
            continue
        wins = sum(n < o for o, n in zip(old, new))
        q = {"old": run.quartiles(old), "new": run.quartiles(new)}
        spread = ", ".join(f"{name} {(q3 - q1) / q2:.1%}" for name, (q1, q2, q3) in q.items())
        print(f"{metric}: new faster in {wins}/{min(len(old), len(new))} rounds; "
              f"new/old median {q['new'][1] / q['old'][1]:.3f} "
              f"(quartile spread / median: {spread})")
        for name, (q1, q2, q3) in q.items():
            print(f"  {name}: median {1e3 * q2:.1f} ms, quartiles {1e3 * q1:.1f}-"
                  f"{1e3 * q3:.1f} ms")
    print("median minor page faults per round:")
    for phase in faults["old"]:
        print(f"  {phase}: " + ", ".join(
            f"{name} {statistics.median(faults[name].get(phase, [0])):.0f}" for name in sides))
    for name, ledger in ledgers.items():
        print(f"{name}: operations attempted {ledger.attempted} failed {len(ledger.failures)}")
        for op, kind, msg in ledger.failures:
            print(f"  failed {op} ({kind}): {msg}")
    same = records["old"] == records["new"] and len(set(records["old"])) == 1
    print(f"round records {'identical' if same else 'differ'} across sides and rounds")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src", metavar="OLD_SRC",
                    help="src directory of the older version, holding lapal/")
    ap.add_argument("--workload", default="learner-arm3",
                    help="perfbench workload whose budget the runs use")
    ap.add_argument("--seed", type=int, default=0, help="perfbench workload seed")
    ap.add_argument("--reps", type=int, default=12, help="interleaved reps per mode")
    ap.add_argument("--round", action="store_true",
                    help="time whole benchmark rounds (run_round) instead of run_training")
    ap.add_argument("--pin", action="store_true",
                    help="fix glibc's malloc thresholds as perfbench/run.py does")
    args = ap.parse_args(argv)

    run = load_bench()
    os.environ.update(run.BLAS_ENV)     # before numpy loads its BLAS
    malloc = run.pin_malloc() if args.pin else "default"
    old = Path(args.old_src) / "lapal"
    if not (old / "__init__.py").is_file():
        ap.error(f"no lapal package at {old}")
    import numpy as np

    print(f"workload {args.workload}, seed {args.seed}, {args.reps} reps, malloc {malloc}")
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(old, Path(tmp) / "lapal_old")
        sys.path[:0] = [tmp, str(ROOT / "src")]
        budget, seeds = run.WORKLOADS[args.workload], run.Seeds.from_seed(args.seed, np)
        if args.round:
            compare_rounds(run, budget, seeds, args.reps)
            return 0
        sides = [Side("old", "lapal_old", run, budget, seeds),
                 Side("new", "lapal", run, budget, seeds)]
        for algo in MODES:         # one untimed run each warms caches and lazy set-up
            for side in sides:
                side.train(algo)
                side.times[algo].clear()
                side.faults[algo].clear()
        for rep in range(args.reps):
            for algo in MODES:
                for side in sides[::-1] if rep % 2 else sides:
                    side.train(algo)

    old_side, new_side = sides
    for algo in MODES:
        wins = sum(n < o for o, n in zip(old_side.times[algo], new_side.times[algo]))
        same = [a == b for a, b in zip(old_side.outcome[algo], new_side.outcome[algo])]
        print(f"{algo}: new faster in {wins}/{args.reps} reps; "
              f"digests {'match' if same[0] else 'differ'}, "
              f"curves {'match' if same[1] else 'differ'}")
        for side in sides:
            q1, q2, q3 = run.quartiles(side.times[algo])
            faults = statistics.median(side.faults[algo])
            print(f"  {side.name}: median {1e3 * q2:.1f} ms, quartiles {1e3 * q1:.1f}-"
                  f"{1e3 * q3:.1f} ms, minor faults per run {faults:.0f}")
        ratio = statistics.median(new_side.times[algo]) / statistics.median(old_side.times[algo])
        print(f"  new/old median: {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
