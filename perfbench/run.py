#!/usr/bin/env python3
"""Benchmark of the lapal lab: set-up, training, evaluation and transfer.

Run from the repository root:

    python3 perfbench/run.py --workload learner-arm3 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --smoke --seconds 1

Each workload is a closed sequence of calls in one single-threaded process:
a round runs the whole user pipeline once (demo collection and codec
pretraining, `run_training` in every mode, a standalone evaluation, decoder
retraining for the perturbed arm, and a save/load round trip of every
checkpoint kind). Rounds repeat until the next one would end after
`--seconds` (at least MIN_ROUNDS), and each end-to-end time is the median
over rounds, scaled by the machine speed SpeedProbe measured in the run.
The workloads share the pipeline and differ in budget, so each one loads a
different layer; perfbench/DESIGN.md says which and why.

With `--trace 1` the untraced rounds are followed by one traced round whose
spans give the per-layer metrics; end-to-end metrics come only from untraced
rounds. The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Records of every run, and the spans of
traced runs, go to `.bench_out/` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_out"

# One BLAS thread: the lab is single-threaded by design, and on a 2-core
# machine one thread measured the same as the default.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

ENV_ID, TARGET_ENV = "arm3", "arm3-perturbed"
LATENT_DIM = 2
MODES = {"gail": "gail", "lapal-agnostic": "agnostic", "lapal-aware": "aware"}
MIN_ROUNDS = 3
MIN_ROUNDS_SMOKE = 2
# Reported times are scaled to a machine on which SpeedProbe takes this long.
PROBE_NOMINAL_S = 0.008


@dataclass(frozen=True)
class Budget:
    demo_episodes: int          # source and target demo collection
    codec_epochs: int           # codec pretraining and decoder retraining
    train_steps: int            # env steps per run_training call
    steps_per_iteration: int    # also the evaluation interval
    disc_updates: int           # per iteration
    gen_updates: int            # per iteration
    train_eval_episodes: int    # evaluation inside run_training
    eval_episodes: int          # standalone evaluation (eval_s, transfer eval)


# learner-arm3 keeps the default ratio of 500 discriminator and 1000
# generator updates per 1000 env steps; rollout-arm3 keeps 20 and 50 per 1000
# with 16-episode evaluations every iteration; transfer-arm3 spends its time
# in CVAE training. The reasons are in DESIGN.md.
WORKLOADS = {
    "learner-arm3": Budget(16, 10, 250, 250, 125, 250, 2, 8),
    "rollout-arm3": Budget(16, 10, 500, 500, 10, 25, 16, 16),
    "transfer-arm3": Budget(16, 60, 1000, 500, 10, 25, 1, 8),
}
SMOKE = Budget(8, 8, 160, 160, 2, 4, 1, 1)

LAYERS = (
    "envsim.env_step", "envsim.env_def", "envsim.feature_map.b1",
    "envsim.feature_map.bN", "envsim.scripted_expert", "envsim.rollout_episode",
    "envsim.collect_demos",
    "nncore.forward.b1", "nncore.forward.bN", "nncore.backward", "nncore.adam_step",
    "sacgen.critic_update", "sacgen.actor_update", "sacgen.polyak_update",
    "sacgen.decoder_adversarial_step", "sacgen.act", "sacgen.ReplayBuffer.push",
    "adversary.disc_loss_and_grad", "adversary.disc_reward",
    "latentact.encode", "latentact.decode.b1", "latentact.decode.bN",
    "latentact.train_codec", "latentact.cvae_loss_and_grad",
    "orchestrator.evaluate_policy", "orchestrator.run_training",
)
# Self time of these layers inside run_training is learner work (minibatch
# updates); of the rest it is rollout work (stepping, batch-1 forward and
# decode, the collection loop itself).
LEARNER_LAYERS = frozenset((
    "envsim.feature_map.bN", "nncore.forward.bN", "nncore.backward",
    "nncore.adam_step", "sacgen.critic_update", "sacgen.actor_update",
    "sacgen.polyak_update", "sacgen.decoder_adversarial_step",
    "adversary.disc_loss_and_grad", "adversary.disc_reward", "latentact.encode",
    "latentact.decode.bN",
))
INCLUSIVE = ("orchestrator.run_training", "latentact.train_codec",
             "envsim.collect_demos", "orchestrator.evaluate_policy")


class Ledger:
    """Operations attempted and failed, and output checks passed and failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []          # (operation, exception type, message)
        self.checks = {}            # name -> [passed, failed]
        self.problems = []

    def op(self, name, fn):
        """Run one operation; a raised exception counts it as failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:    # counted and reported; the run goes on
            tb = traceback.format_exception_only(type(exc), exc)[-1].strip()
            self.failures.append((name, type(exc).__name__, tb[:300]))
            return None

    def check(self, name, ok, detail=""):
        self.checks.setdefault(name, [0, 0])[0 if ok else 1] += 1
        if not ok:
            self.problems.append(f"{name}: {detail}")


class SpeedProbe:
    """Times a fixed kernel that does not touch lapal: how fast the machine ran.

    On a shared VM the speed of identical work drifts by about 25% over tens
    of seconds, and all steps of a run drift together. The kernel mixes
    batch-128 matrix products with small per-row numpy calls and interpreter
    overhead, like the lab, and runs before every step of every untraced
    round; the run's times are scaled by PROBE_NOMINAL_S over the median
    kernel time.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.standard_normal((128, 64))
        self.w = rng.standard_normal((64, 64))
        self.v = rng.standard_normal(8)
        self.samples = []

    def __call__(self) -> None:
        np = self.np
        t0 = time.perf_counter()
        for _ in range(40):
            h = np.maximum(self.a @ self.w, 0.0)
            h.T @ h
            for _ in range(10):
                float(np.sum(np.cos(np.clip(0.5 * self.v + 1.0, -1.0, 1.0))))
        self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        return PROBE_NOMINAL_S / statistics.median(self.samples)


@dataclass(frozen=True)
class Seeds:
    demos: int
    codec: int
    run: int
    eval: int
    target_demos: int
    transfer: int

    @classmethod
    def from_seed(cls, seed: int, np):
        return cls(*(int(x) for x in np.random.SeedSequence(seed).generate_state(6)))


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def demo_digest(demos) -> str:
    h = hashlib.sha256(demos.env_id.encode())
    for arr in (demos.states, demos.actions, demos.next_states, demos.dones,
                demos.rewards, demos.episode_boundaries):
        h.update(arr.tobytes())
    return h.hexdigest()


def run_round(lapal, b: Budget, seeds: Seeds, ledger: Ledger, phase):
    """One pass of the user pipeline.

    Returns (times, record): wall times in seconds keyed by metric name, and
    a deterministic record (curves, digests) that must repeat exactly for the
    same seed and code.
    """
    envsim, latentact, orch, sacgen = (lapal.envsim, lapal.latentact,
                                       lapal.orchestrator, lapal.sacgen)
    perf = time.perf_counter
    times, rec = {}, {}
    cvae = latentact.CVAEConfig(latent_dim=LATENT_DIM, epochs=b.codec_epochs)

    with phase("setup"):
        t0 = perf()
        demos = ledger.op("collect_demos", lambda: envsim.collect_demos(
            ENV_ID, b.demo_episodes, seeds.demos))
        trained = None if demos is None else ledger.op(
            "train_codec", lambda: latentact.train_codec(demos, cvae, seeds.codec))
        t1 = perf()
    if trained is None:
        return times, rec
    codec, history = trained
    times["setup_s"] = t1 - t0
    ledger.check("codec_history_finite", _finite(history["loss"] + history["holdout_recon"]),
                 "non-finite codec pretraining history")
    rec["demo_digest"] = demo_digest(demos)
    rec["codec_digest"] = codec.digest()

    runs = {}
    for algo, short in MODES.items():
        cfg = orch.RunConfig(
            algo=algo, env_id=ENV_ID, total_env_steps=b.train_steps,
            steps_per_iteration=b.steps_per_iteration,
            disc_updates_per_iteration=b.disc_updates,
            gen_updates_per_iteration=b.gen_updates,
            eval_every=b.steps_per_iteration, eval_episodes=b.train_eval_episodes,
            divergence_guard=False,
        )
        hook = []
        with phase("train." + short):
            envsim.reset_clamp_counts()
            t0 = perf()
            res = ledger.op(f"run_training.{short}", lambda: orch.run_training(
                cfg, sacgen.SacConfig(), demos, codec if cfg.latent else None,
                seeds.run, on_iteration=hook.append))
            t1 = perf()
            clamps = sum(envsim.clamp_counts().values())
        if res is None:
            continue
        times[f"train_s.{short}"] = t1 - t0
        rows = [asdict(r) for r in res.curve]
        values = [v for r in rows for k, v in r.items()
                  if not (k == "recon_mse" and not cfg.latent)]
        ledger.check("finite_curves", bool(rows) and _finite(values),
                     f"{algo}: non-finite or empty curve")
        ledger.check("expert_beats_random", res.expert_return > res.random_return,
                     f"{algo}: expert {res.expert_return} <= random {res.random_return}")
        last = hook[-1]
        rec[algo] = {
            "norm_return": [r["norm_eval_return"] for r in rows],
            "digests": {k: last[k] for k in ("actor_digest", "critic_digest",
                                             "disc_digest", "codec_digest")},
            "clamps": clamps,
        }
        runs[algo] = res

    agn = runs.get("lapal-agnostic")
    references = (orch.ExpertPolicy, orch.RandomPolicy)
    if agn is not None:
        with phase("eval"):
            t0 = perf()
            out = ledger.op("evaluate", lambda: [
                orch.evaluate_policy(p, ENV_ID, b.eval_episodes, seeds.eval)
                for p in (agn.bundle,) + tuple(cls(ENV_ID) for cls in references)])
            t1 = perf()
        if out is not None:
            times["eval_s"] = t1 - t0
            ledger.check("expert_beats_random", out[1][0] > out[2][0],
                         f"eval: expert {out[1][0]} <= random {out[2][0]}")
            rec["eval_returns"] = [m for m, _ in out]

    with phase("transfer"):
        t0 = perf()
        target = ledger.op("collect_demos.target", lambda: envsim.collect_demos(
            TARGET_ENV, b.demo_episodes, seeds.target_demos))
        moved = None if target is None or agn is None else ledger.op(
            "transfer_policy", lambda: orch.transfer_policy(agn.bundle, target, cvae,
                                                            seeds.transfer))
        t1 = perf()
    if moved is not None:
        times["transfer_s"] = t1 - t0
        bundle, history = moved
        ledger.check("codec_history_finite", _finite(history["loss"]),
                     "non-finite decoder retraining history")
        with phase("transfer_eval"):
            out = ledger.op("evaluate.target", lambda: [
                orch.evaluate_policy(p, TARGET_ENV, b.eval_episodes, seeds.eval)
                for p in (bundle,) + tuple(cls(TARGET_ENV) for cls in references)])
        if out is not None:
            ledger.check("expert_beats_random", out[1][0] > out[2][0],
                         f"transfer eval: expert {out[1][0]} <= random {out[2][0]}")
            rec["transfer_returns"] = [m for m, _ in out]
            rec["transfer_policy_digest"] = bundle.digest()

    with phase("ckpt"):
        adversary = lapal.adversary
        kinds = {
            "demo": (demos, lambda p, o: o.save(p), envsim.DemoBuffer.load, demo_digest),
            "codec": (codec, latentact.save_codec, latentact.load_codec,
                      lambda c: c.digest()),
        }
        if agn is not None:
            disc = agn.discriminator
            kinds["disc"] = (disc, adversary.save_discriminator,
                             lambda p: adversary.load_discriminator(p, disc.composition),
                             lambda d: d.digest())
            kinds["policy"] = (agn.bundle, orch.save_policy, orch.load_policy,
                               lambda p: p.digest())
        for kind, (obj, save, load, digest) in kinds.items():
            path = OUT / "ckpt" / kind

            def trip():
                t0 = perf()
                save(path, obj)
                t1 = perf()
                back = load(path)
                t2 = perf()
                return t1 - t0, t2 - t1, path.stat().st_size, digest(back)

            out = ledger.op(f"ckpt.{kind}", trip)
            if out is None:
                continue
            ledger.check("ckpt_digest", out[3] == digest(obj),
                         f"{kind}: reloaded digest differs from the saved one")
            times[f"ckpt.{kind}.save_ms"] = 1e3 * out[0]
            times[f"ckpt.{kind}.load_ms"] = 1e3 * out[1]
            times[f"ckpt.{kind}.bytes"] = float(out[2])
    return times, rec


def layer_metrics(tracer, total_s: float, np) -> dict:
    """Per-layer counts, self times and shares from one traced round."""
    names = np.array([s[0] for s in tracer.spans], dtype=object)
    rows = np.array([s[4] for s in tracer.spans])
    dur = np.array([s[2] - s[1] for s in tracer.spans])
    self_t = tracer.self_times()
    phase = np.array(tracer.phases(), dtype=object)
    in_train = np.array([p.startswith("train.") for p in phase], dtype=bool)
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    calls = {}
    for layer in LAYERS:
        sel = names == layer
        n = int(sel.sum())
        calls[layer] = n
        put(f"{layer}.calls", n, "count")
        put(f"{layer}.self_us", 1e6 * self_t[sel].sum() / n if n else 0.0, "us")
        put(f"{layer}.share", 100.0 * self_t[sel].sum() / total_s, "%")
    for layer in INCLUSIVE:
        put(f"{layer}.incl_share", 100.0 * dur[names == layer].sum() / total_s, "%")
    fm_rows = rows[(names == "envsim.feature_map.b1") | (names == "envsim.feature_map.bN")]
    put("envsim.feature_map.rows", fm_rows.sum(), "count")

    train_total = sum(s[2] - s[1] for s in tracer.spans
                      if s[3] < 0 and s[0].startswith("train."))
    learner = np.array([n in LEARNER_LAYERS for n in names], dtype=bool)
    put("train.learner_share", 100.0 * self_t[in_train & learner].sum() / train_total, "%")
    put("train.rollout_share", 100.0 * self_t[in_train & ~learner].sum() / train_total, "%")

    updates = int((in_train & ((names == "sacgen.critic_update")
                               | (names == "adversary.disc_loss_and_grad"))).sum())
    bn_rows = rows[in_train & (names == "envsim.feature_map.bN")].sum()
    put("envsim.feature_map.rows_per_update", bn_rows / updates if updates else 0.0, "rows")
    steps = calls["envsim.env_step"]
    put("envsim.env_def.calls_per_env_step",
        calls["envsim.env_def"] / steps if steps else 0.0, "ratio")
    fwd = calls["nncore.forward.b1"] + calls["nncore.forward.bN"]
    put("nncore.forward.b1_share", 100.0 * calls["nncore.forward.b1"] / fwd if fwd else 0.0, "%")
    return m


def source_hash() -> str:
    """Digest of the code under test and of the benchmark itself."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def check_run_determinism(ledger, key: str, record_digest: str) -> str:
    """Compare with the last run of the same workload, seed, budget and code."""
    store = OUT / "digests.json"
    seen = json.loads(store.read_text()) if store.exists() else {}
    if key in seen:
        ledger.check("run_determinism", seen[key] == record_digest,
                     f"record digest {record_digest} differs from an earlier run's "
                     f"{seen[key]}")
        return "compared"
    seen[key] = record_digest
    store.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n")
    return "stored"


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def declared_metrics(trace: int) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def load_lapal():
    """Import lapal from this checkout's src/, or exit 2 if it is missing."""
    init = ROOT / "src" / "lapal" / "__init__.py"
    if not init.is_file():
        print(f"error: no lapal sources at {init.parent}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import lapal
    import lapal.adversary
    import lapal.envsim
    import lapal.latentact
    import lapal.nncore
    import lapal.orchestrator
    import lapal.sacgen

    if Path(lapal.__file__).resolve().parent != init.parent.resolve():
        print(f"error: imported lapal from {lapal.__file__}, not this checkout",
              file=sys.stderr)
        sys.exit(2)
    return lapal


def pin_malloc() -> str:
    """Fix glibc's malloc thresholds at their initial defaults.

    glibc raises its mmap threshold each time a large block is freed, so
    whether a later large array lands on fresh pages or on pages already
    resident depends on the allocation history, and peak RSS jumped by up
    to 10% between identical runs. With the thresholds fixed, peak RSS
    counts the pages the lab touches.
    """
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)    # absent outside glibc
    if mallopt is None:
        return "default"
    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
    if mallopt(M_MMAP_THRESHOLD, 128 * 1024) and mallopt(M_TRIM_THRESHOLD, 128 * 1024):
        return "mmap_threshold=131072,trim_threshold=131072"
    return "default"


def run_workload(args) -> int:
    malloc = pin_malloc()
    lapal = load_lapal()
    import numpy as np

    from tracer import Tracer

    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    (OUT / "ckpt").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(OUT / "tmp")    # policy checkpoints stage the codec here
    budget = SMOKE if args.smoke else WORKLOADS[args.workload]
    seeds = Seeds.from_seed(args.seed, np)
    min_rounds = MIN_ROUNDS_SMOKE if args.smoke else MIN_ROUNDS
    probe = SpeedProbe(np)

    def probed(span):
        @contextlib.contextmanager
        def phase(name):
            probe()
            with span(name):
                yield
        return phase

    ledger = Ledger()
    samples, round_s, records = {}, [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        times, rec = run_round(lapal, budget, seeds, ledger,
                               probed(lambda name: contextlib.nullcontext()))
        round_s.append(time.perf_counter() - t0)
        records.append(rec)
        for k, v in times.items():
            samples.setdefault(k, []).append(v)
        # stop before a round that would likely end after --seconds
        elapsed = time.perf_counter() - start
        if len(records) >= min_rounds and elapsed + statistics.median(round_s) > args.seconds:
            break

    traced = None
    if args.trace:
        tracer = Tracer()
        tracer.install(lapal)
        try:
            t0 = time.perf_counter()
            _, rec = run_round(lapal, budget, seeds, ledger, probed(tracer.span))
            traced_s = time.perf_counter() - t0
        finally:
            tracer.restore()
        records.append(rec)
        traced = layer_metrics(tracer, traced_s, np)
        traced["trace.overhead_s"] = (traced_s - statistics.median(round_s), "s")
        traced["trace.spans"] = (float(len(tracer.spans)), "count")
        tag = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
        tracer.save(OUT / f"spans-{tag}.npz")

    # every round, traced or not, must reproduce the first one exactly
    canon = [json.dumps(r, sort_keys=True) for r in records]
    for i, c in enumerate(canon[1:], 1):
        ledger.check("round_determinism", c == canon[0],
                     f"round {i} record differs from round 0")
    record_digest = hashlib.sha256(canon[0].encode()).hexdigest()
    key = "/".join((source_hash(), args.workload, str(args.seed),
                    hashlib.sha256(repr(budget).encode()).hexdigest()[:16]))
    determinism = check_run_determinism(ledger, key, record_digest)

    medians = {k: quartiles(v) for k, v in samples.items()}
    scale = probe.scale()
    computed = {k: (q[1] * scale, "s") for k, q in medians.items()
                if not k.startswith("ckpt.")}
    computed["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                               "MB")
    if traced is not None:
        computed = dict(traced)
        for k, q in medians.items():
            if k.startswith("ckpt."):
                computed[k] = (q[1], "bytes" if k.endswith(".bytes") else "ms")
        computed["machine.probe_ms"] = (1e3 * statistics.median(probe.samples), "ms")
        computed["envsim.clamps"] = (float(sum(
            run["clamps"] for algo, run in records[-1].items() if algo in MODES)), "count")

    metrics = {}
    for name, unit in declared_metrics(args.trace):
        if name not in computed:
            ledger.problems.append(f"metric {name} was not measured")
        elif computed[name][1] != unit:
            ledger.problems.append(f"metric {name} measured in {computed[name][1]}, "
                                   f"declared in {unit}")
        else:
            metrics[name] = {"value": computed[name][0], "unit": unit}

    result = {"correct": not ledger.problems, "attempted": ledger.attempted,
              "failed": len(ledger.failures), "metrics": metrics}
    report = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "trace": args.trace, "budget": asdict(budget), "seeds": asdict(seeds),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}, "malloc": malloc,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "arch": platform.machine()},
        "rounds": len(round_s), "round_s": round_s, "samples": samples,
        "quartiles": medians, "probe_s": probe.samples, "scale": scale,
        "failures": ledger.failures, "checks": ledger.checks,
        "problems": ledger.problems, "run_determinism": determinism,
        "record_digest": record_digest, "record": records[0],
        "per_layer": traced, "result": result,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} rounds {len(round_s)} "
          f"blas {BLAS_ENV['OPENBLAS_NUM_THREADS']} thread(s){' smoke' if args.smoke else ''}")
    print(f"  speed probe median {1e3 * statistics.median(probe.samples):.3f} ms: "
          f"times below are raw, reported times are scaled by {scale:.4f}")
    for k, (q1, med, q3) in sorted(medians.items()):
        print(f"  {k:28s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}")
    if traced is not None:
        for k, (v, unit) in sorted(traced.items()):
            print(f"  {k:52s} {v:14.6g} {unit}")
    print(f"operations attempted {ledger.attempted} failed {len(ledger.failures)}")
    for op, kind in sorted({(op, kind) for op, kind, _ in ledger.failures}):
        n = sum(1 for f in ledger.failures if f[:2] == (op, kind))
        msg = next(f[2] for f in ledger.failures if f[:2] == (op, kind))
        print(f"  failed {op} x{n}: {msg}")
    for p in ledger.problems:
        print(f"  problem {p}")
    print("checks " + json.dumps(ledger.checks, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process, then one summary table."""
    summary, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        checks = next(json.loads(l[len("checks "):]) for l in lines
                      if l.startswith("checks "))
        result = json.loads(lines[-1])
        summary[name] = {"result": result, "checks": checks}
        status |= 0 if result["correct"] else 1
        print(f"{name}: correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:52s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps({"workloads": summary}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure rounds for this long (at least the minimum rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add one traced round and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets: every workload in seconds")
    args = parser.parse_args(argv)
    os.environ.update(BLAS_ENV)    # before numpy is first imported
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
