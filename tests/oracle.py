"""Exact divergence computations on small discrete distributions.

These are the ground-truth references the adversarial machinery is checked
against: KL and Jensen-Shannon divergences, the closed-form optimal
discriminator with its objective value, and pushforwards under support maps
for data-processing checks. All sums use math.fsum for compensated
accumulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lapal.errors import ConfigError

_ATOL = 1e-12


@dataclass(frozen=True)
class DiscreteDist:
    """Probability vector over a finite support {0, ..., n-1}."""

    probs: tuple

    def __post_init__(self):
        p = tuple(float(x) for x in self.probs)
        if not p:
            raise ConfigError("empty support")
        if any(x < 0.0 for x in p):
            raise ConfigError(f"negative probability in {p}")
        if abs(math.fsum(p) - 1.0) > _ATOL:
            raise ConfigError(f"probabilities sum to {math.fsum(p)}, not 1")
        object.__setattr__(self, "probs", p)

    def __len__(self):
        return len(self.probs)

    @classmethod
    def from_weights(cls, weights) -> "DiscreteDist":
        w = [float(x) for x in weights]
        total = math.fsum(w)
        if total <= 0:
            raise ConfigError("weights must have positive total")
        return cls(tuple(x / total for x in w))


def kl(p: DiscreteDist, q: DiscreteDist) -> float:
    """sum_i p_i log(p_i / q_i); +inf reported on a support violation."""
    if len(p) != len(q):
        raise ConfigError("mismatched supports")
    terms = []
    for pi, qi in zip(p.probs, q.probs):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return math.inf
        terms.append(pi * math.log(pi / qi))
    return math.fsum(terms)


def js(p: DiscreteDist, q: DiscreteDist) -> float:
    """Jensen-Shannon divergence, in [0, log 2]."""
    if len(p) != len(q):
        raise ConfigError("mismatched supports")
    m = DiscreteDist(tuple(0.5 * (pi + qi) for pi, qi in zip(p.probs, q.probs)))
    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


def optimal_gan_objective(p_e: DiscreteDist, p_t: DiscreteDist):
    """Pointwise optimal discriminator and its achieved objective.

    D*_i = p_e_i / (p_e_i + p_t_i) on the joint support, and
    J* = sum p_e log D* + sum p_t log(1 - D*) = 2 js(p_e, p_t) - log 4.
    Points outside both supports get D* = 0.5 by convention (they never
    contribute to the objective).
    """
    if len(p_e) != len(p_t):
        raise ConfigError("mismatched supports")
    d_star = np.empty(len(p_e))
    terms = []
    for i, (pe, pt) in enumerate(zip(p_e.probs, p_t.probs)):
        tot = pe + pt
        d_star[i] = 0.5 if tot == 0.0 else pe / tot
        if pe > 0.0:
            terms.append(pe * math.log(d_star[i]))
        if pt > 0.0:
            terms.append(pt * math.log(1.0 - d_star[i]))
    j_star = math.fsum(terms)
    identity = 2.0 * js(p_e, p_t) - math.log(4.0)
    if abs(j_star - identity) > 1e-10:
        raise AssertionError(
            f"objective {j_star} deviates from 2*JS - log4 = {identity}"
        )
    return d_star, j_star


def pushforward(p: DiscreteDist, mapping) -> DiscreteDist:
    """Image distribution under a total map old index -> new index."""
    mapping = [int(m) for m in mapping]
    if len(mapping) != len(p):
        raise ConfigError("map must be total on the support")
    if any(m < 0 for m in mapping):
        raise ConfigError("map targets must be non-negative indices")
    out = [0.0] * (max(mapping) + 1)
    for pi, m in zip(p.probs, mapping):
        out[m] += pi
    return DiscreteDist(tuple(out))
