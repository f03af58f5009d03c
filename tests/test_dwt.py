"""Transform correctness against a dense-matrix oracle plus contracts."""

import json
import tracemalloc

import numpy as np
import pytest

from wcascade.dwt import (
    _DB4_HIGH_PASS,
    _DB4_LOW_PASS,
    TimeSeries,
    WaveletPyramid,
    _analysis_step,
    _layer_factor,
    _synthesis_step,
    dwt_forward,
    dwt_inverse,
    layer_exponent,
    layer_spread,
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


def unscaled(layers):
    """New layers with the ``2**(j/2)`` factor divided out, as `dwt_inverse` does per layer."""
    return [layer / _layer_factor(j) for j, layer in enumerate(layers, start=1)]


def flatten_raw(p):
    """`flatten_pyramid` with the layer rescaling removed: the oracle's coefficients."""
    return np.concatenate([[p.root_approx, p.root_detail]] + unscaled(p.layers))


def roll_analysis_step(approx):
    """The filter-bank split over four rolled copies: the reference for `_analysis_step`."""
    n = approx.size
    low = np.zeros(n // 2)
    high = np.zeros(n // 2)
    for m, (hm, gm) in enumerate(zip(_DB4_LOW_PASS, _DB4_HIGH_PASS)):
        shifted = np.roll(approx, -m)[::2]
        low += hm * shifted
        high += gm * shifted
    return low, high


def roll_synthesis_step(low, high):
    """Synthesis over zero-stuffed, rolled inputs: the reference for `_synthesis_step`."""
    n = 2 * low.size
    up_low = np.zeros(n)
    up_high = np.zeros(n)
    up_low[::2] = low
    up_high[::2] = high
    out = np.zeros(n)
    for m, (hm, gm) in enumerate(zip(_DB4_LOW_PASS, _DB4_HIGH_PASS)):
        out += hm * np.roll(up_low, m) + gm * np.roll(up_high, m)
    return out


def random_pyramid(depth, seed):
    rng = np.random.default_rng(seed)
    return WaveletPyramid(
        root_approx=rng.normal(),
        root_detail=rng.normal(),
        layers=[rng.normal(size=2 ** (j + 1)) for j in range(depth)],
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
    mine = flatten_raw(dwt_forward(TimeSeries(x)))
    assert np.max(np.abs(mine - oracle)) <= 1e-10 * np.max(np.abs(oracle))


def test_inverse_matches_matrix_oracle_column():
    length = 64
    matrix = analysis_matrix(length)
    # unit raw detail at layer 1, position 0: third flattened coefficient
    p = WaveletPyramid(
        root_approx=0.0,
        root_detail=0.0,
        layers=rescale([np.array([1.0, 0.0])] + [np.zeros(2 ** (j + 1)) for j in range(1, 5)]),
    )
    series = dwt_inverse(p)
    assert np.max(np.abs(series.values - matrix.T[:, 2])) < 1e-12


def test_inverse_of_constant_pyramid():
    p = WaveletPyramid(
        root_approx=np.sqrt(8),
        root_detail=0.0,
        layers=[np.zeros(2), np.zeros(4)],
    )
    series = dwt_inverse(p)
    assert np.max(np.abs(series.values - 1.0)) < 1e-12


@pytest.mark.parametrize("length", [8, 32, 1024, 2**17])
def test_round_trip_identity(length):
    rng = np.random.default_rng(length)
    x = rng.normal(size=length)
    y = dwt_inverse(dwt_forward(TimeSeries(x)))
    assert np.max(np.abs(y.values - x)) <= 1e-10 * np.max(np.abs(x))


STEP_LENGTHS = [1, 2, 4, 8, 1000, 2**17]


def step_inputs(size, seed):
    """Named pairs of step inputs: huge and tiny values, signed zeros, an exact cancellation."""
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, size))
    signs = np.where(rng.random(size=(2, size)) < 0.5, -0.0, 0.0)
    cases = {f"scaled-1e{e}": (a * 10.0**e, b * 10.0**e) for e in (300, -300)}
    cases["signed-zeros"] = (signs[0], signs[1])
    # the tap-0 terms h0*low and g0*high cancel where the rounding allows
    cases["cancellation"] = (a, -a * _DB4_LOW_PASS[0] / _DB4_HIGH_PASS[0])
    return cases


@pytest.mark.parametrize("size", STEP_LENGTHS)
def test_synthesis_step_is_bit_equal_to_the_rolled_sum(size):
    cases = step_inputs(size, seed=size)
    low, high = cases["cancellation"]
    assert np.any(_DB4_LOW_PASS[0] * low + _DB4_HIGH_PASS[0] * high == 0.0)
    for name, (low, high) in cases.items():
        assert _synthesis_step(low, high).tobytes() == roll_synthesis_step(low, high).tobytes(), name
    # an all-zero input with mixed signs still synthesizes to +0.0 everywhere
    low, high = cases["signed-zeros"]
    assert not np.any(np.signbit(_synthesis_step(low, high)))


@pytest.mark.parametrize("size", [n for n in STEP_LENGTHS if n % 2 == 0])
def test_analysis_step_is_bit_equal_to_the_rolled_sum(size):
    for name, (approx, _) in step_inputs(size, seed=size + 1).items():
        for got, want in zip(_analysis_step(approx), roll_analysis_step(approx)):
            assert got.tobytes() == want.tobytes(), name


# Tracemalloc peak per path sample at 2**16 samples.  The steps and writer
# read 32.1, 20.0 and 34.1 B (Python 3.11, numpy 2.4); each bound adds 25%.
# With rolled copies, zero-stuffed inputs and one JSON text per layer they
# read 60, 32 and 68 B, over every bound.
MEMORY_BOUNDS = {"dwt_inverse": 40.0, "dwt_forward": 25.0, "save_pyramid": 42.5}


@pytest.mark.parametrize("name", sorted(MEMORY_BOUNDS))
def test_transform_and_writer_memory_per_sample(tmp_path, name):
    n = 2**16
    series = TimeSeries(np.random.default_rng(5).normal(size=n))
    pyramid = dwt_forward(series)
    run = {
        "dwt_inverse": lambda: dwt_inverse(pyramid),
        "dwt_forward": lambda: dwt_forward(series),
        "save_pyramid": lambda: save_pyramid(pyramid, tmp_path / "p.json"),
    }[name]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= MEMORY_BOUNDS[name]


def test_pyramid_round_trip():
    p = random_pyramid(depth=10, seed=3)
    q = dwt_forward(dwt_inverse(p))
    a, b = flatten_pyramid(p), flatten_pyramid(q)
    assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(a))


@pytest.mark.parametrize("length", [8, 64, 4096])
def test_parseval(length):
    rng = np.random.default_rng(length + 1)
    x = rng.normal(size=length)
    energy = np.sum(flatten_raw(dwt_forward(TimeSeries(x))) ** 2)
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
    ones = [np.ones(2**j) for j in range(1, 4)]
    for j, (scaled, raw) in enumerate(zip(rescale(ones), unscaled(ones)), start=1):
        assert np.array_equal(scaled, np.full(2**j, 2.0 ** (j / 2.0)))
        assert np.array_equal(raw, np.full(2**j, 1.0 / 2.0 ** (j / 2.0)))
    assert all(np.array_equal(o, np.ones(2**j)) for j, o in enumerate(ones, start=1))


def test_rescale_involution_and_std_scaling():
    layers = random_pyramid(depth=6, seed=11).layers
    scaled = rescale(layers)
    for j in range(1, 7):
        assert np.isclose(scaled[j - 1].std(), layers[j - 1].std() * 2 ** (j / 2))
    back = unscaled(scaled)
    for j in range(1, 7):
        # odd layers scale by an irrational factor, so allow 1 ulp
        assert np.all(np.abs(back[j - 1] - layers[j - 1]) <= np.spacing(np.abs(layers[j - 1])))


def test_inverse_handles_rescaled_pyramid():
    # the factor comes off each layer before its step: the oracle synthesizes the raw ones
    p = random_pyramid(depth=5, seed=13)
    before = [layer.copy() for layer in p.layers]
    series = dwt_inverse(p)
    oracle = analysis_matrix(2 ** (p.depth + 1)).T @ flatten_raw(p)
    assert np.max(np.abs(series.values - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    assert all(np.array_equal(a, b) for a, b in zip(p.layers, before))
    # dividing one layer at a time gives the bits of synthesizing a whole unscaled copy
    approx = _synthesis_step(np.array([p.root_approx]), np.array([p.root_detail]))
    for layer in unscaled(p.layers):
        approx = _synthesis_step(approx, layer)
    assert series.values.tobytes() == approx.tobytes()


def test_inverse_holds_one_unscaled_layer_at_a_time():
    # an undone copy of the whole pyramid, held through the synthesis, read 3.50 path sizes
    pyramid = random_pyramid(depth=16, seed=23)
    tracemalloc.start()
    try:
        dwt_inverse(pyramid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.25 * 2**17 * 8, peak / (2**17 * 8)


def test_serialization_round_trip(tmp_path):
    p = random_pyramid(depth=5, seed=17)
    path = tmp_path / "p.json"
    save_pyramid(p, path)
    q = load_pyramid(path)
    assert q.depth == p.depth
    assert q.root_approx == p.root_approx and q.root_detail == p.root_detail
    for j in range(1, 6):
        assert np.array_equal(q.layer(j), p.layer(j))
    # schema check
    data = json.loads(path.read_text())
    assert set(data) == {"depth", "rescaled", "root_approx", "root_detail", "layers"}
    assert data["rescaled"] is True


def test_saved_bytes_are_those_json_dump_writes(tmp_path):
    # the deepest layer spans more than two of `save_pyramid`'s 2**14-value
    # encoding blocks and holds the values whose repr is easiest to get wrong
    block = 2**14
    depth = (2 * block + 5).bit_length()
    p = random_pyramid(depth, seed=19)
    deepest = p.layers[-1]
    assert deepest.size > 2 * block + 5
    odd_values = [-0.0, 5e-324, 1e308, 1e16, 1e-5, 3.0]
    for k, value in enumerate(odd_values):
        deepest[k * block // 2] = value
    deepest[-len(odd_values):] = odd_values
    path = tmp_path / "p.json"
    save_pyramid(p, path)
    expected = tmp_path / "expected.json"
    with open(expected, "w") as fh:
        json.dump({"depth": p.depth, "rescaled": True, "root_approx": p.root_approx,
                   "root_detail": p.root_detail,
                   "layers": [layer.tolist() for layer in p.layers]}, fh)
        fh.write("\n")
    assert path.read_bytes() == expected.read_bytes()


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        TimeSeries(np.ones(12))  # not a power of two
    with pytest.raises(ValueError):
        TimeSeries(np.array([1.0, np.nan, 0.0, 1.0]))
    with pytest.raises(ValueError):
        WaveletPyramid(root_approx=0, root_detail=0,
                       layers=[np.zeros(2), np.zeros(3)])


@pytest.mark.parametrize("rescaled", ["false", "true", 0, 1, None])
def test_pyramid_file_rescaled_must_be_a_json_boolean(rescaled):
    data = json.loads(json.dumps({
        "depth": 2, "root_approx": 0.0, "root_detail": 1.0,
        "layers": [[1.0, -1.0], [0.5, -0.5, 0.5, -0.5]], "rescaled": rescaled,
    }))
    with pytest.raises(ValueError, match="rescaled must be true or false"):
        WaveletPyramid.from_dict(data)
    # a raw file takes the factor on load
    held = WaveletPyramid.from_dict({**data, "rescaled": True})
    data["rescaled"] = False
    loaded = WaveletPyramid.from_dict(data)
    for j in (1, 2):
        assert np.array_equal(loaded.layer(j), held.layer(j) * 2.0 ** (j / 2.0))


@pytest.mark.parametrize("depth", [2.0, "2", True, None])
def test_pyramid_file_depth_must_be_a_json_integer(depth):
    data = {"depth": depth, "root_approx": 0.0, "root_detail": 1.0,
            "layers": [[1.0, -1.0], [0.5, -0.5, 0.5, -0.5]], "rescaled": True}
    with pytest.raises(ValueError, match=f"depth must be an integer, got {depth!r}"):
        WaveletPyramid.from_dict(data)


def test_raw_file_whose_rescaling_overflows_is_refused():
    data = {"depth": 2, "root_approx": 0.0, "root_detail": 1.0,
            "layers": [[1.0, -1.0], [1e308, 0.0, 0.0, 0.0]], "rescaled": False}
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="layer 2 contains non-finite"):
        WaveletPyramid.from_dict(data)


def test_scale_indexing():
    p = random_pyramid(depth=4, seed=1)
    assert p.scale(0) == 32.0
    assert p.scale(4) == 2.0
    assert np.array_equal(p.layer(0), [p.root_detail]) and p.layer(4) is p.layers[3]
    for j in (-1, 5):
        with pytest.raises(ValueError, match="outside 0..4"):
            p.layer(j)


def test_children_are_rows_of_the_next_layer():
    p = random_pyramid(depth=4, seed=2)
    for j in range(p.depth):
        rows, finer = p.children(j), p.layer(j + 1)
        assert rows.shape == (2**j, 2)
        assert np.shares_memory(rows, p.layers[j])
        for k in range(2**j):
            assert (rows[k, 0], rows[k, 1]) == (finer[2 * k], finer[2 * k + 1])
    for j in (-1, 4):
        with pytest.raises(ValueError, match="outside 0..3"):
            p.children(j)


@pytest.mark.parametrize("k", [-1000, -3, 0, 5, 1000])
def test_layer_unit_follows_a_power_of_two(k):
    values = np.ldexp(np.random.default_rng(5).standard_normal(512), k)
    e = layer_exponent(values)
    assert e == layer_exponent(values * 2.0**-k) + k
    assert 0.5 <= np.abs(np.ldexp(values, -e)).max() < 1.0
    # the spread is worked in that unit: exact at any k, and the std wherever the squares are finite
    assert layer_spread(values) == np.ldexp(layer_spread(np.ldexp(values, -k)), k)
    if abs(k) < 500:
        assert layer_spread(values) == values.std()
