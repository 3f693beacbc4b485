"""Span tracer that times lapal's public functions from outside the package.

`Tracer.install` replaces module functions and class methods with wrappers
that record one span per call: name, start, end, the span that was open when
the call began (its parent) and, for batch-shaped calls, the row count.
`Tracer.restore` puts the originals back. Nothing inside `lapal` changes:
internal calls resolve module globals at call time, so a wrapper installed on
the module attribute also sees calls made from inside the package.

Spans stay in memory until `save` writes them out at the end of a run.
A span's self time is its duration minus the durations of its direct
children; the process is single-threaded, so children nest strictly.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

_perf = time.perf_counter


def _rows(x) -> int:
    """Row count of a state or input argument: 1 for a vector."""
    shape = np.shape(x)
    return 1 if len(shape) < 2 else int(shape[0])


def _batch_suffix(name):
    return lambda args, kwargs: (name + (".b1" if _rows(args[1]) == 1 else ".bN"),
                                 _rows(args[1]))


def targets(lapal):
    """(owner, attribute, namer) for every traced boundary.

    A namer maps the call's (args, kwargs) to (span name, rows). The span
    names are the layer names the benchmark reports.
    """
    envsim, nncore, sacgen = lapal.envsim, lapal.nncore, lapal.sacgen
    adversary, latentact, orch = lapal.adversary, lapal.latentact, lapal.orchestrator
    out = []

    def plain(owner, prefix, attrs):
        for attr in attrs:
            name = f"{prefix}.{attr}"
            out.append((owner, attr, lambda a, k, name=name: (name, 0)))

    plain(envsim, "envsim", ("env_step", "env_def", "scripted_expert",
                             "rollout_episode", "collect_demos"))
    out.append((envsim, "feature_map", _batch_suffix("envsim.feature_map")))
    out.append((nncore.ParamTree, "forward", _batch_suffix("nncore.forward")))
    plain(nncore.ParamTree, "nncore", ("backward", "adam_step"))
    plain(sacgen, "sacgen", ("critic_update", "actor_update", "polyak_update",
                             "decoder_adversarial_step", "act"))
    plain(sacgen.ReplayBuffer, "sacgen.ReplayBuffer", ("push",))
    plain(adversary, "adversary", ("disc_loss_and_grad", "disc_reward"))
    plain(latentact, "latentact", ("encode", "train_codec", "cvae_loss_and_grad"))
    out.append((latentact, "decode", _batch_suffix("latentact.decode")))
    plain(orch, "orchestrator", ("evaluate_policy", "run_training"))
    return out


class Tracer:
    """Records spans; `span` marks the benchmark's own phases."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index, rows]
        self._stack = []
        self._patches = []

    @contextlib.contextmanager
    def span(self, name: str, rows: int = 0):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, rows]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = _perf()
        try:
            yield
        finally:
            rec[2] = _perf()
            self._stack.pop()

    def _wrap(self, original, namer):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            name, rows = namer(args, kwargs)
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, rows]
            spans.append(rec)
            stack.append(idx)
            rec[1] = _perf()
            try:
                return original(*args, **kwargs)
            finally:
                rec[2] = _perf()
                stack.pop()

        traced.__wrapped__ = original
        return traced

    def install(self, lapal) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for owner, attr, namer in targets(lapal):
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, namer))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> np.ndarray:
        dur = np.array([s[2] - s[1] for s in self.spans])
        child = np.zeros(len(dur))
        parents = np.array([s[3] for s in self.spans], dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur - child

    def phases(self) -> list:
        """Name of the outermost span above each span (its benchmark phase)."""
        out = []
        for s in self.spans:
            out.append(s[0] if s[3] < 0 else out[s[3]])
        return out

    def save(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        np.savez_compressed(
            path,
            names=np.array(names),
            name_id=np.array([ids[s[0]] for s in self.spans], dtype=np.int32),
            start=np.array([s[1] for s in self.spans]),
            end=np.array([s[2] for s in self.spans]),
            parent=np.array([s[3] for s in self.spans], dtype=np.int64),
            rows=np.array([s[4] for s in self.spans], dtype=np.int64),
        )
