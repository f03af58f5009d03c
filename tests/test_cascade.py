"""Cascade synthesis contracts and lognormal closed forms."""

import math

import numpy as np
import pytest

from wcascade.cascade import (
    CascadeSpec,
    CauchyFactor,
    FoldedLognormal,
    NormalNoise,
    PointMass,
    SignedLognormal,
    additive_law_from_dict,
    synthesize_mixed,
    theoretical_tau_lognormal,
)

LN2 = math.log(2.0)


def pyramids_equal(a, b):
    if (a.depth, a.root_approx, a.root_detail) != (b.depth, b.root_approx, b.root_detail):
        return False
    return all(np.array_equal(x, y) for x, y in zip(a.layers, b.layers))


def test_point_mass_unit_magnitudes():
    spec = CascadeSpec(depth=8, multiplier_law=PointMass(1.0), seed=4)
    pyramid = synthesize_mixed(spec)
    for j in range(1, 9):
        assert np.allclose(np.abs(pyramid.layer(j)), 1.0)


def test_same_seed_bit_identical():
    law = SignedLognormal.from_log2(-0.33, 0.02)
    a = synthesize_mixed(CascadeSpec(depth=10, multiplier_law=law, seed=99))
    b = synthesize_mixed(CascadeSpec(depth=10, multiplier_law=law, seed=99))
    assert pyramids_equal(a, b)
    c = synthesize_mixed(CascadeSpec(depth=10, multiplier_law=law, seed=100))
    assert not pyramids_equal(a, c)


def test_null_noise_reproduces_pure_stream():
    # a zero-variance noise law draws nothing, so the Philox stream holds
    # only the factor blocks (magnitudes, then signs) of child = W * parent
    law = SignedLognormal.from_log2(-0.33, 0.02)
    rng = np.random.Generator(np.random.Philox(key=7))
    parents = np.array([1.0])
    pure = []
    for _ in range(10):
        n = 2 * parents.size
        w = np.exp(rng.normal(law.mean_log, math.sqrt(law.var_log), n))
        w *= rng.integers(0, 2, n) * 2.0 - 1.0
        parents = w * np.repeat(parents, 2)
        pure.append(parents)
    for extra in ({}, {"additive_law": NormalNoise(0.0)},
                  {"additive_law": additive_law_from_dict({"kind": "zero"})}):
        mixed = synthesize_mixed(CascadeSpec(depth=10, multiplier_law=law, seed=7, **extra))
        assert all(np.array_equal(a, b) for a, b in zip(pure, mixed.layers))


def test_depth_validation():
    with pytest.raises(ValueError):
        CascadeSpec(depth=0, multiplier_law=PointMass(1.0))


def test_lognormal_log2_descent_rate():
    # mean of log2 |deepest layer| should be depth * mean_log2, with the
    # Monte Carlo error estimated from independent replications (leaves of
    # one tree share ancestors, so the naive per-leaf error is far too
    # small).
    mean_log2, var_log2, depth, reps = -0.33, 0.02, 17, 12
    law = SignedLognormal.from_log2(mean_log2, var_log2)
    means = []
    for seed in range(reps):
        pyramid = synthesize_mixed(
            CascadeSpec(depth=depth, multiplier_law=law, seed=seed)
        )
        means.append(np.log2(np.abs(pyramid.layer(depth))).mean())
    means = np.asarray(means)
    stderr = means.std(ddof=1) / math.sqrt(reps)
    assert abs(means.mean() - mean_log2 * depth) <= 3.0 * stderr


def test_point_mass_descent_exact_in_magnitude():
    h_c = 0.3
    spec = CascadeSpec(depth=12, multiplier_law=PointMass(2.0**-h_c), seed=13)
    pyramid = synthesize_mixed(spec)
    for j in range(6, 12):
        mean_ratio = np.abs(pyramid.layer(j)).mean() / np.abs(pyramid.layer(j + 1)).mean()
        assert abs(math.log2(mean_ratio) - h_c) < 1e-12
        # the centered standard deviation picks up the sample sign imbalance
        # of order 1/layer_size, so it is only approximately exact
        std_ratio = pyramid.layer(j).std() / pyramid.layer(j + 1).std()
        assert abs(math.log2(std_ratio) - h_c) < 0.03


def test_mixed_layer_variance_ratio():
    # Var(W) = 0.18, Var(eta) = 0.32: squared layer-spread ratios sit at 0.50
    var_log = 0.02 * LN2
    mean_log = (math.log(0.18) - 2 * var_log) / 2
    law = SignedLognormal(mean_log, var_log)
    # E[W^2] of the signed lognormal, which is its variance (zero mean)
    assert abs(math.exp(2 * law.mean_log + 2 * law.var_log) - 0.18) < 1e-12
    spec = CascadeSpec(
        depth=14, multiplier_law=law, additive_law=NormalNoise(0.32), seed=6
    )
    pyramid = synthesize_mixed(spec)
    for j in range(12, 14):
        ratio = (pyramid.layer(j + 1).std() / pyramid.layer(j).std()) ** 2
        assert abs(ratio - 0.50) <= 0.05


def test_cauchy_factor_synthesis_runs():
    spec = CascadeSpec(depth=8, multiplier_law=CauchyFactor(0.6), seed=3)
    pyramid = synthesize_mixed(spec)
    assert np.all(np.isfinite(pyramid.layer(8)))


def test_returned_draws_match_recursion():
    # rebuild each layer from the Philox stream: factor block, then noise block
    law = FoldedLognormal.from_log2(-0.33, 0.02)
    spec = CascadeSpec(
        depth=6, multiplier_law=law, additive_law=NormalNoise(0.09), seed=44
    )
    pyramid = synthesize_mixed(spec)
    rng = np.random.Generator(np.random.Philox(key=44))
    parents = np.array([spec.root_detail])
    h = abs(spec.root_detail)
    for j in range(1, 7):
        n = 2 * parents.size
        w = np.exp(rng.normal(law.mean_log, math.sqrt(law.var_log), n))
        eta = rng.normal(0.0, math.sqrt(0.09), n)
        children = w * np.repeat(parents, 2) + eta * h
        assert np.array_equal(children, pyramid.layer(j))
        parents = children
        h = children.std()


def test_theoretical_tau_fixed_points():
    rng = np.random.default_rng(1)
    for _ in range(5):
        m, v = rng.normal(), rng.uniform(0.001, 0.5)
        assert theoretical_tau_lognormal(m, v, 0.0) == pytest.approx(-1.0)
    # zero-variance factor of magnitude w gives the straight line
    q = np.linspace(-3, 3, 13)
    w = 2.0**-0.5
    tau = theoretical_tau_lognormal(math.log(w), 0.0, q)
    assert np.allclose(tau, q / 2 - 1, atol=1e-12)


def test_theoretical_tau_concave_and_peak_location():
    m, v = -0.33 * LN2, 0.02 * LN2
    q = np.linspace(-5, 5, 81)
    tau = theoretical_tau_lognormal(m, v, q)
    assert np.all(np.diff(tau, 2) < 0)
    # derivative at zero locates the spectrum peak
    eps = 1e-6
    alpha0 = (
        theoretical_tau_lognormal(m, v, eps) - theoretical_tau_lognormal(m, v, -eps)
    ) / (2 * eps)
    assert abs(alpha0 - 0.33) < 1e-6
    assert abs(alpha0 - (-m / LN2)) < 1e-9


def test_spec_serialization_round_trip():
    spec = CascadeSpec(
        depth=9,
        multiplier_law=FoldedLognormal.from_log2(-0.33, 0.02),
        additive_law=NormalNoise(0.09),
        root_detail=2.0,
        root_approx=-1.0,
        seed=1234,
    )
    again = CascadeSpec.from_dict(
        {
            "depth": 9,
            "multiplier_law": {"kind": "folded_lognormal", "mean_log2": -0.33, "var_log2": 0.02},
            "additive_law": {"kind": "normal", "variance": 0.09},
            "root_detail": 2.0,
            "root_approx": -1.0,
            "seed": 1234,
        }
    )
    assert again == spec
    assert pyramids_equal(synthesize_mixed(spec), synthesize_mixed(again))


def test_log2_parameter_conversion():
    law = SignedLognormal.from_log2(-0.33, 0.02)
    assert law.mean_log == pytest.approx(-0.33 * LN2)
    assert law.var_log == pytest.approx(0.02 * LN2)
    from wcascade.cascade import multiplier_law_from_dict

    parsed = multiplier_law_from_dict(
        {"kind": "signed_lognormal", "mean_log2": -0.33, "var_log2": 0.02}
    )
    assert parsed == law


@pytest.mark.parametrize("random_sign", ["false", "true", 0, 1, None])
def test_point_mass_random_sign_must_be_a_json_boolean(random_sign):
    from wcascade.cascade import multiplier_law_from_dict

    law = {"kind": "point_mass", "value": 0.7, "random_sign": random_sign}
    with pytest.raises(ValueError, match="random_sign must be true or false"):
        multiplier_law_from_dict(law)
    assert multiplier_law_from_dict({**law, "random_sign": False}) == PointMass(0.7, False)
    assert multiplier_law_from_dict({"kind": "point_mass", "value": 0.7}) == PointMass(0.7, True)
