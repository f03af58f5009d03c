"""Periodic Daubechies-4 wavelet transform between series and dyadic pyramids.

A series of length ``L = 2**(depth+1)`` maps to a pyramid holding one
approximation coefficient, one root detail coefficient and detail layers
``j = 1..depth`` with ``2**j`` entries each.  Layer ``j`` lives at scale
``L / 2**j``, so the deepest layer sits at scale 2.  Boundaries are
periodic (circular convolution) and decimation keeps even indices, which
freezes the phase of every coefficient: analysing a synthesised pyramid
reproduces it bit-for-bit up to rounding.

Detail layers may carry the ``2**(j/2)`` rescaling that makes a
layer-to-layer multiplicative recursion stationary; the ``rescaled`` flag
records which convention a pyramid is in.  The root detail is unchanged by
rescaling (its factor is ``2**0``).
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

    ``layers[i]`` holds layer ``j = i + 1`` with ``2**j`` entries; the
    reconstructed series has length ``2**(depth+1)``.  ``rescaled`` is True
    when layer ``j`` carries the extra ``2**(j/2)`` factor.
    """

    depth: int
    root_approx: float
    root_detail: float
    layers: list
    rescaled: bool

    def __post_init__(self):
        self.depth = int(self.depth)
        self.root_approx = float(self.root_approx)
        self.root_detail = float(self.root_detail)
        if self.depth < 0:
            raise ValueError("depth must be non-negative")
        if len(self.layers) != self.depth:
            raise ValueError(
                f"expected {self.depth} layers, got {len(self.layers)}"
            )
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
    def length(self) -> int:
        """Length of the series this pyramid reconstructs to."""
        return 2 ** (self.depth + 1)

    def scale(self, j: int) -> float:
        """Scale of layer ``j`` in sample units (root layer is ``j = 0``)."""
        if not 0 <= j <= self.depth:
            raise ValueError(f"layer index {j} outside 0..{self.depth}")
        return float(2 ** (self.depth + 1 - j))

    def layer(self, j: int) -> np.ndarray:
        """Detail coefficients of layer ``j >= 1``."""
        if not 1 <= j <= self.depth:
            raise ValueError(f"layer index {j} outside 1..{self.depth}")
        return self.layers[j - 1]

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "rescaled": self.rescaled,
            "root_approx": self.root_approx,
            "root_detail": self.root_detail,
            "layers": [layer.tolist() for layer in self.layers],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WaveletPyramid":
        return cls(
            depth=data["depth"],
            root_approx=data["root_approx"],
            root_detail=data["root_detail"],
            layers=[np.asarray(layer, dtype=float) for layer in data["layers"]],
            rescaled=bool(data["rescaled"]),
        )


def save_pyramid(pyramid: WaveletPyramid, path) -> None:
    with open(path, "w") as fh:
        json.dump(pyramid.to_dict(), fh)
        fh.write("\n")


def load_pyramid(path) -> WaveletPyramid:
    with open(path) as fh:
        return WaveletPyramid.from_dict(json.load(fh))


def _analysis_step(approx: np.ndarray):
    """One periodic filter-bank split; keeps even-indexed outputs."""
    n = approx.size
    low = np.zeros(n // 2)
    high = np.zeros(n // 2)
    for m, (hm, gm) in enumerate(zip(_DB4_LOW_PASS, _DB4_HIGH_PASS)):
        shifted = np.roll(approx, -m)[::2]
        low += hm * shifted
        high += gm * shifted
    return low, high


def _synthesis_step(low: np.ndarray, high: np.ndarray):
    """Adjoint of :func:`_analysis_step`; exact inverse by orthonormality."""
    n = 2 * low.size
    up_low = np.zeros(n)
    up_high = np.zeros(n)
    up_low[::2] = low
    up_high[::2] = high
    out = np.zeros(n)
    for m, (hm, gm) in enumerate(zip(_DB4_LOW_PASS, _DB4_HIGH_PASS)):
        out += hm * np.roll(up_low, m) + gm * np.roll(up_high, m)
    return out


def dwt_forward(series: TimeSeries) -> WaveletPyramid:
    """Full periodic wavelet decomposition of a power-of-two series.

    Returns an unrescaled pyramid whose coefficients conserve the input
    energy (Parseval) and which :func:`dwt_inverse` maps back to the input.
    """
    approx = series.values.copy()
    details = []  # finest level first
    while approx.size > 1:
        approx, det = _analysis_step(approx)
        details.append(det)
    root_detail = float(details[-1][0]) if details else 0.0
    layers = details[:-1][::-1]  # coarse (layer 1) to fine (layer depth)
    return WaveletPyramid(
        depth=len(layers),
        root_approx=float(approx[0]),
        root_detail=root_detail,
        layers=layers,
        rescaled=False,
    )


def dwt_inverse(pyramid: WaveletPyramid) -> TimeSeries:
    """Reconstruct the series a pyramid expands.

    Rescaled pyramids are accepted; the ``2**(j/2)`` factor is removed
    internally before synthesis and the input is left untouched.
    """
    working = pyramid
    if pyramid.rescaled:
        working = rescale(pyramid, "to_raw")
    approx = _synthesis_step(np.array([working.root_approx]), np.array([working.root_detail]))
    for layer in working.layers:
        approx = _synthesis_step(approx, layer)
    return TimeSeries(approx)


def rescale(pyramid: WaveletPyramid, direction: str) -> WaveletPyramid:
    """Apply or remove the ``2**(j/2)`` layer rescaling.

    ``direction`` is ``"to_rescaled"`` or ``"to_raw"``; asking for the state
    the pyramid is already in is an error.  Applying both directions in
    sequence is the identity.
    """
    if direction not in ("to_rescaled", "to_raw"):
        raise ValueError(f"unknown rescale direction {direction!r}")
    if direction == "to_rescaled" and pyramid.rescaled:
        raise ValueError("pyramid is already rescaled")
    if direction == "to_raw" and not pyramid.rescaled:
        raise ValueError("pyramid is already in raw convention")
    layers = []
    for i, layer in enumerate(pyramid.layers):
        factor = 2.0 ** ((i + 1) / 2.0)
        layers.append(layer * factor if direction == "to_rescaled" else layer / factor)
    return WaveletPyramid(
        depth=pyramid.depth,
        root_approx=pyramid.root_approx,
        root_detail=pyramid.root_detail,
        layers=layers,
        rescaled=direction == "to_rescaled",
    )
