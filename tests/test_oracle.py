import math

import numpy as np
import pytest

import oracle
from lapal.errors import ConfigError
from oracle import DiscreteDist, js, kl, optimal_gan_objective, pushforward

# js((1/2,1/2), (1/4,3/4)) by direct high-precision summation:
#   m = (3/8, 5/8)
#   0.5*(0.5 ln(4/3) + 0.5 ln(4/5)) + 0.5*(0.25 ln(2/3) + 0.75 ln(6/5))
JS_REGRESSION = 0.5 * (0.5 * math.log(4 / 3) + 0.5 * math.log(4 / 5)) + 0.5 * (
    0.25 * math.log(2 / 3) + 0.75 * math.log(6 / 5)
)


def rand_dist(rng, n, allow_zeros=False):
    w = rng.uniform(0.0 if allow_zeros else 1e-3, 1.0, n)
    if allow_zeros:
        w[rng.random(n) < 0.2] = 0.0
        if w.sum() == 0:
            w[0] = 1.0
    return DiscreteDist.from_weights(w)


def test_dist_validation():
    with pytest.raises(ConfigError):
        DiscreteDist((0.5, 0.6))
    with pytest.raises(ConfigError):
        DiscreteDist((-0.1, 1.1))
    with pytest.raises(ConfigError):
        DiscreteDist(())
    d = DiscreteDist.from_weights([2, 2])
    assert d.probs == (0.5, 0.5)


def test_kl_basic():
    p = DiscreteDist((0.3, 0.7))
    assert kl(p, p) == 0.0
    assert kl(DiscreteDist((1.0, 0.0)), DiscreteDist((0.5, 0.5))) == pytest.approx(
        math.log(2), abs=1e-15
    )


def test_kl_support_violation_is_inf():
    assert kl(DiscreteDist((0.5, 0.5)), DiscreteDist((1.0, 0.0))) == math.inf


def test_kl_nonnegative_fuzz():
    rng = np.random.default_rng(0)
    for _ in range(500):
        p = rand_dist(rng, 6)
        q = rand_dist(rng, 6)
        assert kl(p, q) >= 0.0


def test_js_basic():
    p = DiscreteDist((0.2, 0.8))
    assert js(p, p) == 0.0
    disjoint = js(DiscreteDist((1.0, 0.0)), DiscreteDist((0.0, 1.0)))
    assert disjoint == pytest.approx(math.log(2), abs=1e-15)


def test_js_range_fuzz():
    rng = np.random.default_rng(1)
    for _ in range(500):
        v = js(rand_dist(rng, 5, allow_zeros=True), rand_dist(rng, 5, allow_zeros=True))
        assert 0.0 <= v <= math.log(2) + 1e-15


def test_js_regression_constant():
    got = js(DiscreteDist((0.5, 0.5)), DiscreteDist((0.25, 0.75)))
    assert got == pytest.approx(JS_REGRESSION, abs=1e-15)
    # frozen from a 40-digit mpmath evaluation of the same sum
    assert got == pytest.approx(0.03382207556860523, abs=1e-15)


def test_optimal_gan_equal_dists():
    p = DiscreteDist((0.25, 0.25, 0.5))
    d_star, j_star = optimal_gan_objective(p, p)
    np.testing.assert_allclose(d_star, 0.5)
    assert j_star == pytest.approx(-math.log(4), abs=1e-12)


def test_optimal_gan_disjoint():
    _, j_star = optimal_gan_objective(
        DiscreteDist((0.5, 0.5, 0.0, 0.0)), DiscreteDist((0.0, 0.0, 0.3, 0.7))
    )
    assert j_star == pytest.approx(0.0, abs=1e-12)


def test_optimal_gan_identity_fuzz():
    # the identity J* = 2 JS - log 4 is asserted internally at 1e-10
    rng = np.random.default_rng(2)
    for _ in range(1000):
        p = rand_dist(rng, 8, allow_zeros=True)
        q = rand_dist(rng, 8, allow_zeros=True)
        _, j_star = optimal_gan_objective(p, q)
        assert abs(j_star - (2.0 * js(p, q) - math.log(4))) <= 1e-10


def test_pushforward_identity_and_merge():
    p = DiscreteDist((0.1, 0.2, 0.3, 0.4))
    assert pushforward(p, [0, 1, 2, 3]).probs == p.probs
    merged = pushforward(p, [0, 0, 0, 0])
    assert merged.probs == (1.0,)


def test_pushforward_requires_total_map():
    with pytest.raises(ConfigError):
        pushforward(DiscreteDist((0.5, 0.5)), [0])


def test_data_processing_inequality_fuzz():
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n + 1))
        p = rand_dist(rng, n, allow_zeros=True)
        q = rand_dist(rng, n, allow_zeros=True)
        mapping = rng.integers(0, m, n)
        pp, qq = pushforward(p, mapping), pushforward(q, mapping)
        assert js(pp, qq) <= js(p, q) + 1e-12
        k_before, k_after = kl(p, q), kl(pp, qq)
        if math.isfinite(k_before):
            assert k_after <= k_before + 1e-12
