"""Transform correctness against a dense-matrix oracle plus contracts."""

import json

import numpy as np
import pytest

from wcascade.dwt import (
    _DB4_HIGH_PASS,
    _DB4_LOW_PASS,
    TimeSeries,
    WaveletPyramid,
    dwt_forward,
    dwt_inverse,
    load_pyramid,
    rescale,
    save_pyramid,
)


def analysis_matrix(length):
    """Dense orthonormal analysis matrix built level by level.

    Row order matches the pyramid flattening used by `flatten_pyramid`:
    approximation, root detail, then layers coarse to fine.  Built by
    explicit periodic filter matrices and matrix products, independently of
    the pyramid filtering code.
    """
    h, g = _DB4_LOW_PASS, _DB4_HIGH_PASS
    approx_rows = np.eye(length)
    detail_blocks = []
    while approx_rows.shape[0] > 1:
        n = approx_rows.shape[0]
        low = np.zeros((n // 2, n))
        high = np.zeros((n // 2, n))
        for k in range(n // 2):
            for m in range(h.size):
                low[k, (2 * k + m) % n] += h[m]
                high[k, (2 * k + m) % n] += g[m]
        detail_blocks.append(high @ approx_rows)
        approx_rows = low @ approx_rows
    blocks = [approx_rows, detail_blocks[-1]] + detail_blocks[:-1][::-1]
    return np.vstack(blocks)


def flatten_pyramid(p):
    return np.concatenate(
        [[p.root_approx, p.root_detail]] + [layer for layer in p.layers]
    )


def random_pyramid(depth, seed, rescaled=False):
    rng = np.random.default_rng(seed)
    return WaveletPyramid(
        depth=depth,
        root_approx=rng.normal(),
        root_detail=rng.normal(),
        layers=[rng.normal(size=2 ** (j + 1)) for j in range(depth)],
        rescaled=rescaled,
    )


def test_constant_series_has_zero_details():
    p = dwt_forward(TimeSeries(np.ones(8)))
    assert abs(abs(p.root_approx) - np.sqrt(8)) < 1e-12
    assert abs(p.root_detail) < 1e-12
    for layer in p.layers:
        assert np.max(np.abs(layer)) < 1e-12


def test_linear_ramp_interior_details_vanish():
    length = 256
    x = np.arange(length, dtype=float)
    p = dwt_forward(TimeSeries(x))
    norm = np.linalg.norm(x)
    taps = 4
    for j in range(1, p.depth + 1):
        level = p.depth + 1 - j  # 1 = finest
        step = 2**level
        support = (taps - 1) * (step - 1) + taps  # effective filter footprint
        layer = p.layer(j)
        interior = [k for k in range(layer.size) if step * k + support <= length]
        if interior:
            assert np.max(np.abs(layer[interior])) <= 1e-9 * norm


def test_forward_matches_matrix_oracle():
    length = 1024
    rng = np.random.default_rng(7)
    x = rng.normal(size=length)
    oracle = analysis_matrix(length) @ x
    mine = flatten_pyramid(dwt_forward(TimeSeries(x)))
    assert np.max(np.abs(mine - oracle)) <= 1e-10 * np.max(np.abs(oracle))


def test_inverse_matches_matrix_oracle_column():
    length = 64
    matrix = analysis_matrix(length)
    # unit detail at layer 1, position 0: third flattened coefficient
    p = WaveletPyramid(
        depth=5,
        root_approx=0.0,
        root_detail=0.0,
        layers=[np.array([1.0, 0.0])] + [np.zeros(2 ** (j + 1)) for j in range(1, 5)],
        rescaled=False,
    )
    series = dwt_inverse(p)
    assert np.max(np.abs(series.values - matrix.T[:, 2])) < 1e-12


def test_inverse_of_constant_pyramid():
    p = WaveletPyramid(
        depth=2,
        root_approx=np.sqrt(8),
        root_detail=0.0,
        layers=[np.zeros(2), np.zeros(4)],
        rescaled=False,
    )
    series = dwt_inverse(p)
    assert np.max(np.abs(series.values - 1.0)) < 1e-12


@pytest.mark.parametrize("length", [8, 32, 1024, 2**17])
def test_round_trip_identity(length):
    rng = np.random.default_rng(length)
    x = rng.normal(size=length)
    y = dwt_inverse(dwt_forward(TimeSeries(x)))
    assert np.max(np.abs(y.values - x)) <= 1e-10 * np.max(np.abs(x))


def test_pyramid_round_trip():
    p = random_pyramid(depth=10, seed=3)
    q = dwt_forward(dwt_inverse(p))
    a, b = flatten_pyramid(p), flatten_pyramid(q)
    assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(a))


@pytest.mark.parametrize("length", [8, 64, 4096])
def test_parseval(length):
    rng = np.random.default_rng(length + 1)
    x = rng.normal(size=length)
    p = dwt_forward(TimeSeries(x))
    energy = p.root_approx**2 + p.root_detail**2 + sum(np.sum(l**2) for l in p.layers)
    assert abs(np.sum(x**2) - energy) <= 1e-9 * np.sum(x**2)


def test_db4_filters_are_an_orthonormal_pair_with_two_vanishing_moments():
    h, g = _DB4_LOW_PASS, _DB4_HIGH_PASS
    assert abs(np.dot(h, h) - 1.0) <= 1e-10
    assert abs(np.dot(h[:2], h[2:])) <= 1e-10  # orthogonal to its shift by 2
    assert np.array_equal(g, [h[3], -h[2], h[1], -h[0]])  # alternating flip
    k = np.arange(4.0)
    assert abs(np.sum(g)) <= 1e-8 and abs(np.dot(k, g)) <= 1e-8
    assert abs(np.dot(k**2, g)) > 0.1  # the moment of order 2 does not vanish


def test_db4_annihilates_lines_but_not_parabolas():
    length = 64
    x = np.arange(length, dtype=float)
    for poly, vanishes in ((np.full(length, 3.0), True), (x, True), (x**2, False)):
        finest = dwt_forward(TimeSeries(poly)).layer(5)
        interior = finest[: (length - 4) // 2 + 1]  # windows clear of the wrap
        assert (np.max(np.abs(interior)) <= 1e-9 * np.max(poly)) == vanishes


def test_rescale_layer_factor():
    p = WaveletPyramid(
        depth=3,
        root_approx=0.0,
        root_detail=0.0,
        layers=[np.zeros(2), np.zeros(4), np.ones(8)],
        rescaled=False,
    )
    r = rescale(p, "to_rescaled")
    assert np.allclose(r.layer(3), 2.0**1.5)
    assert r.rescaled


def test_rescale_involution_and_std_scaling():
    p = random_pyramid(depth=6, seed=11)
    r = rescale(p, "to_rescaled")
    for j in range(1, 7):
        assert np.isclose(r.layer(j).std(), p.layer(j).std() * 2 ** (j / 2))
    back = rescale(r, "to_raw")
    for j in range(1, 7):
        # odd layers scale by an irrational factor, so allow 1 ulp
        assert np.allclose(back.layer(j), p.layer(j), rtol=1e-14, atol=0.0)


def test_rescale_rejects_same_direction_twice():
    p = random_pyramid(depth=3, seed=2, rescaled=True)
    with pytest.raises(ValueError):
        rescale(p, "to_rescaled")
    with pytest.raises(ValueError):
        rescale(rescale(p, "to_raw"), "to_raw")


def test_inverse_handles_rescaled_pyramid():
    p = random_pyramid(depth=8, seed=13)
    r = rescale(p, "to_rescaled")
    a = dwt_inverse(p)
    b = dwt_inverse(r)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_serialization_round_trip(tmp_path):
    p = random_pyramid(depth=5, seed=17, rescaled=True)
    path = tmp_path / "p.json"
    save_pyramid(p, path)
    q = load_pyramid(path)
    assert q.depth == p.depth and q.rescaled == p.rescaled
    assert q.root_approx == p.root_approx and q.root_detail == p.root_detail
    for j in range(1, 6):
        assert np.array_equal(q.layer(j), p.layer(j))
    # schema check
    data = json.loads(path.read_text())
    assert set(data) == {"depth", "rescaled", "root_approx", "root_detail", "layers"}


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        TimeSeries(np.ones(12))  # not a power of two
    with pytest.raises(ValueError):
        TimeSeries(np.array([1.0, np.nan, 0.0, 1.0]))
    with pytest.raises(ValueError):
        WaveletPyramid(depth=2, root_approx=0, root_detail=0,
                       layers=[np.zeros(2), np.zeros(3)], rescaled=False)


def test_scale_indexing():
    p = random_pyramid(depth=4, seed=1)
    assert p.length == 32
    assert p.scale(0) == 32.0
    assert p.scale(4) == 2.0
