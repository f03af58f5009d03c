"""Dyadic multiplicative cascade synthesis on wavelet pyramids.

Starting from a single root detail coefficient, each node of the dyadic
tree spawns two children equal to the parent value times an independent
random factor, optionally plus an independent noise draw scaled by the
sample standard deviation of the parent layer:

    child = W * parent + eta * h_layer

With the noise switched off this is the pure multiplicative rule.  The
output pyramid is in the rescaled convention, under which the recursion is
stationary layer to layer.

Randomness comes from a counter-based Philox stream keyed by the spec's
seed.  Draws are consumed layer by layer; within a layer the factor block
is drawn before the noise block, each laid out child-minor with the left
child before the right.  A noise law of variance 0 consumes no draws, so
switching the noise off reproduces the pure cascade stream bit for bit.

Closed forms for the scaling exponents and singular spectrum of the
lognormal-factor cascade are provided as ground truth for estimator tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from wcascade.dwt import WaveletPyramid, json_bool, json_float, json_int
from wcascade.wtmm import SingularSpectrum

__all__ = [
    "SignedLognormal",
    "FoldedLognormal",
    "PointMass",
    "CauchyFactor",
    "NormalNoise",
    "CascadeSpec",
    "synthesize_mixed",
    "theoretical_tau_lognormal",
    "theoretical_spectrum_lognormal",
    "multiplier_law_from_dict",
    "additive_law_from_dict",
]

_LN2 = math.log(2.0)


@dataclass
class FoldedLognormal:
    """Always-positive lognormal factor; log |W| is normal.

    ``mean_log`` and ``var_log`` parametrize ``log |W|`` in natural-log
    units; :meth:`from_log2` accepts base-2 parameters and converts both by
    a factor ``ln 2``.
    """

    mean_log: float
    var_log: float

    def __post_init__(self):
        if not (math.isfinite(self.mean_log) and 0 <= self.var_log < math.inf):
            raise ValueError("mean_log must be finite and var_log finite and non-negative")

    @classmethod
    def from_log2(cls, mean_log2: float, var_log2: float) -> "FoldedLognormal":
        return cls(mean_log2 * _LN2, var_log2 * _LN2)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.exp(rng.normal(self.mean_log, math.sqrt(self.var_log), n))


class SignedLognormal(FoldedLognormal):
    """|W| lognormal with an independent fair random sign (zero mean)."""

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # Magnitude block first, then the sign block.
        magnitudes = super().sample(rng, n)
        return magnitudes * (rng.integers(0, 2, n) * 2.0 - 1.0)


@dataclass
class PointMass:
    """Constant-magnitude factor, by default with a fair random sign."""

    value: float
    random_sign: bool = True

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("value must be finite")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.random_sign:
            return (rng.integers(0, 2, n) * 2.0 - 1.0) * abs(self.value)
        return np.full(n, float(self.value))


@dataclass
class CauchyFactor:
    """Cauchy-distributed factor; symmetric, undefined variance."""

    scale: float

    def __post_init__(self):
        if not 0 < self.scale < math.inf:
            raise ValueError("scale must be finite and positive")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.scale * rng.standard_cauchy(n)


@dataclass
class NormalNoise:
    """Zero-mean normal additive term; variance 0 means no noise."""

    variance: float

    def __post_init__(self):
        if not 0 <= self.variance < math.inf:
            raise ValueError("variance must be finite and non-negative")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(0.0, math.sqrt(self.variance), n)


def multiplier_law_from_dict(data: dict):
    """Parse a factor law; lognormal kinds accept log2- or natural-log keys."""
    kind = data["kind"]
    if kind in ("signed_lognormal", "folded_lognormal"):
        cls = SignedLognormal if kind == "signed_lognormal" else FoldedLognormal
        if "mean_log2" in data or "var_log2" in data:
            return cls.from_log2(
                json_float(data["mean_log2"], "mean_log2"), json_float(data["var_log2"], "var_log2")
            )
        return cls(json_float(data["mean_log"], "mean_log"), json_float(data["var_log"], "var_log"))
    if kind == "point_mass":
        value = json_float(data["value"], "value")
        return PointMass(value, json_bool(data.get("random_sign", True), "random_sign"))
    if kind == "cauchy":
        return CauchyFactor(json_float(data["scale"], "scale"))
    raise ValueError(f"unknown multiplier law kind {kind!r}")


def additive_law_from_dict(data: dict) -> NormalNoise:
    """Parse a noise law; ``"zero"`` is the normal law of variance 0."""
    kind = data["kind"]
    if kind == "normal":
        return NormalNoise(json_float(data["variance"], "variance"))
    if kind == "zero":
        return NormalNoise(0.0)
    raise ValueError(f"unknown additive law kind {kind!r}")


@dataclass
class CascadeSpec:
    """Everything needed to synthesize one cascade realization.

    ``depth`` is the index of the deepest detail layer, so the pyramid
    reconstructs to a series of length ``2**(depth+1)``.  Equal specs
    (including the seed) produce bit-identical pyramids.
    """

    depth: int
    multiplier_law: object
    additive_law: NormalNoise = field(default_factory=lambda: NormalNoise(0.0))
    root_detail: float = 1.0
    root_approx: float = 0.0
    seed: int = 0

    def __post_init__(self):
        self.depth = int(self.depth)
        if self.depth < 1:
            raise ValueError("cascade depth must be >= 1")
        self.seed = int(self.seed)
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if not (math.isfinite(self.root_detail) and math.isfinite(self.root_approx)):
            raise ValueError("root coefficients must be finite")

    @classmethod
    def from_dict(cls, data: dict) -> "CascadeSpec":
        return cls(
            depth=json_int(data["depth"], "depth"),
            multiplier_law=multiplier_law_from_dict(data["multiplier_law"]),
            additive_law=additive_law_from_dict(data.get("additive_law", {"kind": "zero"})),
            root_detail=json_float(data.get("root_detail", 1.0), "root_detail"),
            root_approx=json_float(data.get("root_approx", 0.0), "root_approx"),
            seed=json_int(data.get("seed", 0), "seed"),
        )


def synthesize_mixed(spec: CascadeSpec) -> WaveletPyramid:
    """Cascade ``child = W * parent + eta * h_j``, layer by layer from the root.

    With a noise law of variance 0 no noise is drawn, which leaves the pure
    multiplicative cascade.  A layer that overflows to a non-finite value
    is rejected with a ``ValueError`` naming it.
    """
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    use_noise = spec.additive_law.variance > 0.0
    layers = []
    parents = np.array([spec.root_detail])
    # Layer-0 statistic: a single root coefficient has no spread, so its
    # magnitude stands in for the standard deviation.
    h = abs(spec.root_detail)
    for j in range(1, spec.depth + 1):
        # Overflow shows up as inf or nan and is rejected below, so numpy
        # need not warn about it.
        with np.errstate(over="ignore", invalid="ignore"):
            w = spec.multiplier_law.sample(rng, 2 * parents.size)
            children = w * np.repeat(parents, 2)
            if use_noise:
                children += spec.additive_law.sample(rng, children.size) * h
                h = float(children.std())
        if not np.all(np.isfinite(children)):
            raise ValueError(f"layer {j} contains non-finite values")
        layers.append(children)
        parents = children
    return WaveletPyramid(
        depth=spec.depth,
        root_approx=spec.root_approx,
        root_detail=spec.root_detail,
        layers=layers,
    )


def theoretical_tau_lognormal(mean_log: float, var_log: float, q):
    """Scaling exponents of the pure lognormal-factor cascade.

    ``tau(q) = -(q m + q^2 v / 2) / ln 2 - 1`` for ``log |W|`` normal with
    mean ``m`` and variance ``v``; always -1 at q = 0 and concave in q.
    """
    if var_log < 0:
        raise ValueError("var_log must be non-negative")
    q = np.asarray(q, dtype=float)
    tau = -(q * mean_log + 0.5 * q * q * var_log) / _LN2 - 1.0
    return tau if tau.ndim else float(tau)


def theoretical_spectrum_lognormal(mean_log: float, var_log: float, alpha_grid) -> SingularSpectrum:
    """Parabolic singular spectrum of the pure lognormal-factor cascade.

    ``D(alpha) = 1 - (alpha - alpha0)^2 ln2 / (2 v)`` with the peak
    ``alpha0 = -m / ln 2``; values below zero are clipped and the support
    is the interval where the parabola is non-negative.
    """
    if not var_log > 0:
        raise ValueError(
            "var_log must be positive; a zero-variance factor gives a "
            "single-point spectrum"
        )
    alpha = np.asarray(alpha_grid, dtype=float)
    alpha0 = -mean_log / _LN2
    parabola = 1.0 - (alpha - alpha0) ** 2 * _LN2 / (2.0 * var_log)
    q_of_alpha = -(alpha * _LN2 + mean_log) / var_log
    tau = theoretical_tau_lognormal(mean_log, var_log, q_of_alpha)
    half_width = math.sqrt(2.0 * var_log / _LN2)
    return SingularSpectrum(
        q_grid=q_of_alpha,
        tau=tau,
        tau_stderr=np.zeros_like(alpha),
        alpha=alpha,
        D=np.maximum(parabola, 0.0),
        support=(alpha0 - half_width, alpha0 + half_width),
        peak_alpha=alpha0,
    )
