"""Periodic Daubechies-4 wavelet transform between series and dyadic pyramids.

A series of length ``L = 2**(depth+1)`` maps to a pyramid holding one
approximation coefficient, one root detail coefficient and detail layers
``j = 1..depth`` with ``2**j`` entries each.  Layer ``j`` lives at scale
``L / 2**j``, so the deepest layer sits at scale 2.  Boundaries are
periodic (circular convolution) and decimation keeps even indices, which
freezes the phase of every coefficient: analysing a synthesised pyramid
reproduces it bit-for-bit up to rounding.

Every pyramid in memory is in the rescaled convention: detail layer ``j``
carries the ``2**(j/2)`` factor that makes a layer-to-layer multiplicative
recursion stationary.  The root detail is unchanged by rescaling (its
factor is ``2**0``).  Only this module sees raw coefficients:
:func:`dwt_forward` applies the factor, :func:`dwt_inverse` removes it, and
:func:`load_pyramid` applies it to a file written with ``"rescaled": false``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeSeries",
    "WaveletPyramid",
    "dwt_forward",
    "dwt_inverse",
    "rescale",
    "save_pyramid",
    "load_pyramid",
]

# Daubechies 4-tap scaling filter, the (1 +/- sqrt 3) / (4 sqrt 2) family,
# written out to full double precision, and its alternating-flip wavelet
# filter g[k] = (-1)**k h[3-k], which has two vanishing moments.
_DB4_LOW_PASS = np.array([
    0.4829629131445341,
    0.8365163037378077,
    0.2241438680420134,
    -0.12940952255126034,
])
_DB4_HIGH_PASS = ((-1.0) ** np.arange(4)) * _DB4_LOW_PASS[::-1]

# Layer values per `json.dumps` call in `save_pyramid`: a bound on the JSON
# text held at once.
_JSON_BLOCK = 1 << 14


def json_bool(value, name: str) -> bool:
    """A JSON ``true`` or ``false`` as read by ``json``; ``bool()`` would read ``"false"`` as true."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def json_int(value, name: str) -> int:
    """A JSON integer as read by ``json``; ``int()`` would truncate ``10.9`` and read ``"42"`` and ``true``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def json_float(value, name: str) -> float:
    """A JSON number as read by ``json``; ``float()`` would read ``"0.5"``, ``"1_0"`` and ``true``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def json_floats(values, name: str) -> np.ndarray:
    """A JSON list of numbers as a float array, each entry checked as by :func:`json_float`.

    Only the set of the entries' types is built, so a long list costs no
    second list.
    """
    if not isinstance(values, list):
        raise ValueError(f"{name} must be a list of numbers, got {values!r}")
    if not set(map(type, values)) <= {float, int}:
        for k, value in enumerate(values):
            json_float(value, f"{name}[{k}]")
    return np.asarray(values, dtype=float)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass
class TimeSeries:
    """Equally spaced samples of a real-valued signal.

    The length must be a power of two (at least 2) and every value finite.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("time series values must be one-dimensional")
        n = self.values.size
        if n < 2 or not _is_power_of_two(n):
            raise ValueError(
                f"time series length must be a power of two >= 2, got {n}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("time series contains non-finite values")

    @property
    def length(self) -> int:
        return self.values.size


@dataclass
class WaveletPyramid:
    """Dyadic tree of detail coefficients plus the root approximation.

    ``layers[i]`` holds layer ``j = i + 1`` with ``2**j`` entries, in the
    rescaled convention; the reconstructed series has length
    ``2**(depth+1)``, where ``depth`` is the layer count.  Node ``k`` of
    layer ``j`` has children ``2k`` (left) and ``2k+1`` (right) in layer
    ``j + 1``; ``children(j)`` holds those pairs as rows.
    """

    root_approx: float
    root_detail: float
    layers: list

    def __post_init__(self):
        self.root_approx = float(self.root_approx)
        self.root_detail = float(self.root_detail)
        if not (math.isfinite(self.root_approx) and math.isfinite(self.root_detail)):
            raise ValueError("root coefficients must be finite")
        layers = []
        for i, layer in enumerate(self.layers):
            arr = np.asarray(layer, dtype=float)
            if arr.shape != (2 ** (i + 1),):
                raise ValueError(
                    f"layer {i + 1} must have {2 ** (i + 1)} entries, got {arr.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"layer {i + 1} contains non-finite values")
            layers.append(arr)
        self.layers = layers

    @property
    def depth(self) -> int:
        return len(self.layers)

    def scale(self, j: int) -> float:
        """Scale of layer ``j`` in sample units (root layer is ``j = 0``)."""
        if not 0 <= j <= self.depth:
            raise ValueError(f"layer index {j} outside 0..{self.depth}")
        return float(2 ** (self.depth + 1 - j))

    def layer(self, j: int) -> np.ndarray:
        """Detail coefficients of layer ``j``; layer 0 is the root detail alone."""
        if not 0 <= j <= self.depth:
            raise ValueError(f"layer index {j} outside 0..{self.depth}")
        return self.layers[j - 1] if j else np.array([self.root_detail])

    def children(self, j: int) -> np.ndarray:
        """Layer ``j + 1`` as a ``(2**j, 2)`` view: row ``k`` is node ``k``'s children, left first."""
        if not 0 <= j < self.depth:
            raise ValueError(f"parent layer index {j} outside 0..{self.depth - 1}")
        return self.layers[j].reshape(-1, 2)

    @classmethod
    def from_dict(cls, data: dict) -> "WaveletPyramid":
        """A pyramid file's dict; a ``"rescaled": false`` file is rescaled here."""
        depth = json_int(data["depth"], "depth")
        root_approx = json_float(data["root_approx"], "root_approx")
        root_detail = json_float(data["root_detail"], "root_detail")
        layers = data["layers"]
        if not isinstance(layers, list):  # a string or a dict would be enumerated
            raise ValueError(f"layers must be a list of lists of numbers, got {layers!r}")
        layers = [json_floats(layer, f"layers[{i}]") for i, layer in enumerate(layers)]
        rescaled = json_bool(data["rescaled"], "rescaled")
        if depth < 0:
            raise ValueError("depth must be non-negative")
        if len(layers) != depth:
            raise ValueError(f"expected {depth} layers, got {len(layers)}")
        if not rescaled:
            # the factor can take a finite raw coefficient to inf, which `cls` refuses
            with np.errstate(over="ignore"):
                layers = rescale(layers)
        return cls(root_approx, root_detail, layers)


def layer_exponent(values: np.ndarray) -> int:
    """A layer's unit ``2**e``, ``e = frexp(max |x|)[1]``: a nonzero layer's ``max |x| * 2**-e`` is in [0.5, 1)."""
    return math.frexp(max(values.max(), -values.min()))[1]


def layer_spread(values: np.ndarray) -> float:
    """A layer's ``h_j``: its population std, or the magnitude of a size-one layer, which has no spread.

    It is ``std()``'s steps, worked in place on one copy in the layer's
    unit (:func:`layer_exponent`), so no square overflows.  Such scaling is
    exact away from subnormals: the bits are ``values.std()``'s wherever
    that is finite, and ``layer_spread(x * 2**k) == layer_spread(x) * 2**k``.
    """
    if values.size == 1:
        return float(abs(values[0]))
    e = layer_exponent(values)
    scaled = np.ldexp(values, -e)
    scaled -= scaled.mean()
    scaled *= scaled
    return math.ldexp(math.sqrt(scaled.mean()), e)


def save_pyramid(pyramid: WaveletPyramid, path) -> None:
    """Write ``{depth, rescaled, root_approx, root_detail, layers}`` as JSON.

    ``rescaled`` is always ``true``: the layers are written as held.

    Each block of ``_JSON_BLOCK`` values goes through ``json.dumps``, which
    encodes in C (``json.dump`` to a file encodes in pure Python), and only
    one block's text is held at a time.  The bytes are those ``json.dump``
    writes for the same dict.
    """
    head = json.dumps(
        {
            "depth": pyramid.depth,
            "rescaled": True,
            "root_approx": pyramid.root_approx,
            "root_detail": pyramid.root_detail,
        }
    )
    with open(path, "w") as fh:
        fh.write(head[:-1] + ', "layers": [')
        for j, layer in enumerate(pyramid.layers):
            fh.write(", [" if j else "[")
            for start in range(0, layer.size, _JSON_BLOCK):
                block = layer[start:start + _JSON_BLOCK].tolist()
                fh.write((", " if start else "") + json.dumps(block)[1:-1])
            fh.write("]")
        fh.write("]}\n")


def load_pyramid(path) -> WaveletPyramid:
    """A pyramid file in either convention, as a rescaled pyramid."""
    with open(path) as fh:
        return WaveletPyramid.from_dict(json.load(fh))


def _analysis_step(approx: np.ndarray):
    """One periodic filter-bank split; keeps even-indexed outputs.

    Output ``i`` of tap ``m`` reads ``approx[(2i + m) mod n]``: the entries
    of parity ``m % 2``, of which the first ``m // 2`` wrap round to the end.
    """
    half = approx.size // 2
    low = np.zeros(half)
    high = np.zeros(half)
    for m, (hm, gm) in enumerate(zip(_DB4_LOW_PASS, _DB4_HIGH_PASS)):
        same_parity = approx[m % 2::2]
        wrap = m // 2
        inner = half - wrap
        low[:inner] += hm * same_parity[wrap:]
        high[:inner] += gm * same_parity[wrap:]
        low[inner:] += hm * same_parity[:wrap]
        high[inner:] += gm * same_parity[:wrap]
    return low, high


def _synthesis_step(low: np.ndarray, high: np.ndarray):
    """Adjoint of :func:`_analysis_step`; exact inverse by orthonormality.

    Even output ``2k`` takes taps 0 and 2 of inputs ``k`` and ``k - 1``, odd
    output ``2k + 1`` taps 1 and 3 of the same inputs, wrapping periodically.
    This is bit-for-bit the sum over all four taps of the zero-stuffed
    inputs: the taps that meet a stuffed zero add a zero to a sum that
    starts at ``0.0 +`` and so is never -0.0, which leaves it unchanged.
    """
    out = np.empty(2 * low.size)
    for parity in (0, 1):
        h_k, g_k = _DB4_LOW_PASS[parity], _DB4_HIGH_PASS[parity]
        h_prev, g_prev = _DB4_LOW_PASS[parity + 2], _DB4_HIGH_PASS[parity + 2]
        dst = out[parity::2]
        # `0.0 +` maps a -0.0 first term to +0.0, as the four-tap sum does
        dst[:] = 0.0 + (h_k * low + g_k * high)
        dst[1:] += h_prev * low[:-1] + g_prev * high[:-1]
        dst[:1] += h_prev * low[-1:] + g_prev * high[-1:]
    return out


def dwt_forward(series: TimeSeries) -> WaveletPyramid:
    """Full periodic wavelet decomposition of a power-of-two series.

    Returns the rescaled pyramid, which :func:`dwt_inverse` maps back to the
    input.  Before the rescaling the coefficients conserve the input energy
    (Parseval).
    """
    approx = series.values.copy()
    details = []  # finest level first
    while approx.size > 1:
        approx, det = _analysis_step(approx)
        details.append(det)
    root_detail = float(details[-1][0])
    layers = details[:-1][::-1]  # coarse (layer 1) to fine (layer depth)
    return WaveletPyramid(
        root_approx=float(approx[0]),
        root_detail=root_detail,
        layers=rescale(layers),
    )


def dwt_inverse(pyramid: WaveletPyramid) -> TimeSeries:
    """Reconstruct the series a pyramid expands.

    Each layer is divided by its ``2**(j/2)`` factor just before its
    synthesis step; the pyramid is left untouched.
    """
    approx = _synthesis_step(np.array([pyramid.root_approx]), np.array([pyramid.root_detail]))
    for j, layer in enumerate(pyramid.layers, start=1):
        approx = _synthesis_step(approx, layer / _layer_factor(j))
    return TimeSeries(approx)


def _layer_factor(j: int) -> float:
    """Detail layer ``j``'s rescaling factor ``2**(j/2)``, a Python float power."""
    return 2.0 ** (j / 2.0)


def rescale(layers: list) -> list:
    """New detail layers ``1..depth`` with the ``2**(j/2)`` factor applied."""
    return [layer * _layer_factor(j) for j, layer in enumerate(layers, start=1)]
