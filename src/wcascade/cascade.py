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
child before the right.  A null noise law consumes no draws, so switching
the noise off reproduces the pure cascade stream bit for bit.

Closed forms for the scaling exponents and singular spectrum of the
lognormal-factor cascade are provided as ground truth for estimator tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wcascade.dwt import WaveletPyramid
from wcascade.wtmm import SingularSpectrum

__all__ = [
    "SignedLognormal",
    "FoldedLognormal",
    "PointMass",
    "CauchyFactor",
    "NormalNoise",
    "ZeroNoise",
    "CascadeSpec",
    "synthesize_wcascade",
    "synthesize_mixed",
    "theoretical_tau_lognormal",
    "theoretical_spectrum_lognormal",
    "multiplier_law_from_dict",
    "additive_law_from_dict",
]

_LN2 = math.log(2.0)


@dataclass
class SignedLognormal:
    """|W| lognormal with an independent fair random sign (zero mean).

    ``mean_log`` and ``var_log`` parametrize ``log |W|`` in natural-log
    units; :meth:`from_log2` accepts base-2 parameters and converts both by
    a factor ``ln 2``.
    """

    mean_log: float
    var_log: float

    def __post_init__(self):
        if self.var_log < 0:
            raise ValueError("var_log must be non-negative")

    @classmethod
    def from_log2(cls, mean_log2: float, var_log2: float) -> "SignedLognormal":
        return cls(mean_log2 * _LN2, var_log2 * _LN2)

    @property
    def variance(self) -> float:
        return math.exp(2.0 * self.mean_log + 2.0 * self.var_log)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # Magnitude block first, then the sign block.
        magnitudes = np.exp(rng.normal(self.mean_log, math.sqrt(self.var_log), n))
        signs = rng.integers(0, 2, n) * 2.0 - 1.0
        return magnitudes * signs

    def to_dict(self) -> dict:
        return {"kind": "signed_lognormal", "mean_log": self.mean_log, "var_log": self.var_log}


@dataclass
class FoldedLognormal:
    """Always-positive lognormal factor; log |W| is normal."""

    mean_log: float
    var_log: float

    def __post_init__(self):
        if self.var_log < 0:
            raise ValueError("var_log must be non-negative")

    @classmethod
    def from_log2(cls, mean_log2: float, var_log2: float) -> "FoldedLognormal":
        return cls(mean_log2 * _LN2, var_log2 * _LN2)

    @property
    def variance(self) -> float:
        second = math.exp(2.0 * self.mean_log + 2.0 * self.var_log)
        mean = math.exp(self.mean_log + 0.5 * self.var_log)
        return second - mean * mean

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.exp(rng.normal(self.mean_log, math.sqrt(self.var_log), n))

    def to_dict(self) -> dict:
        return {"kind": "folded_lognormal", "mean_log": self.mean_log, "var_log": self.var_log}


@dataclass
class PointMass:
    """Constant-magnitude factor, by default with a fair random sign."""

    value: float
    random_sign: bool = True

    @property
    def variance(self) -> float:
        return self.value * self.value if self.random_sign else 0.0

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.random_sign:
            return (rng.integers(0, 2, n) * 2.0 - 1.0) * abs(self.value)
        return np.full(n, float(self.value))

    def to_dict(self) -> dict:
        return {"kind": "point_mass", "value": self.value, "random_sign": self.random_sign}


@dataclass
class CauchyFactor:
    """Cauchy-distributed factor; symmetric, undefined variance."""

    scale: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    @property
    def variance(self) -> float:
        return math.inf

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.scale * rng.standard_cauchy(n)

    def to_dict(self) -> dict:
        return {"kind": "cauchy", "scale": self.scale}


@dataclass
class NormalNoise:
    """Zero-mean normal additive term; variance 0 degenerates to no noise."""

    variance: float

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("variance must be non-negative")

    @property
    def is_null(self) -> bool:
        return self.variance == 0.0

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(0.0, math.sqrt(self.variance), n)

    def to_dict(self) -> dict:
        return {"kind": "normal", "variance": self.variance}


@dataclass
class ZeroNoise:
    """Point mass at zero: the additive term is absent."""

    @property
    def variance(self) -> float:
        return 0.0

    @property
    def is_null(self) -> bool:
        return True

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.zeros(n)

    def to_dict(self) -> dict:
        return {"kind": "zero"}


def multiplier_law_from_dict(data: dict):
    """Parse a factor law; lognormal kinds accept log2- or natural-log keys."""
    kind = data["kind"]
    if kind in ("signed_lognormal", "folded_lognormal"):
        cls = SignedLognormal if kind == "signed_lognormal" else FoldedLognormal
        if "mean_log2" in data or "var_log2" in data:
            return cls.from_log2(float(data["mean_log2"]), float(data["var_log2"]))
        return cls(float(data["mean_log"]), float(data["var_log"]))
    if kind == "point_mass":
        return PointMass(float(data["value"]), bool(data.get("random_sign", True)))
    if kind == "cauchy":
        return CauchyFactor(float(data["scale"]))
    raise ValueError(f"unknown multiplier law kind {kind!r}")


def additive_law_from_dict(data: dict):
    kind = data["kind"]
    if kind == "normal":
        return NormalNoise(float(data["variance"]))
    if kind == "zero":
        return ZeroNoise()
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
    additive_law: object = None
    root_detail: float = 1.0
    root_approx: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.additive_law is None:
            self.additive_law = ZeroNoise()
        self.depth = int(self.depth)
        if self.depth < 1:
            raise ValueError("cascade depth must be >= 1")
        self.seed = int(self.seed)
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if not (math.isfinite(self.root_detail) and math.isfinite(self.root_approx)):
            raise ValueError("root coefficients must be finite")

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "root_detail": self.root_detail,
            "root_approx": self.root_approx,
            "seed": int(self.seed),
            "multiplier_law": self.multiplier_law.to_dict(),
            "additive_law": self.additive_law.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CascadeSpec":
        return cls(
            depth=int(data["depth"]),
            multiplier_law=multiplier_law_from_dict(data["multiplier_law"]),
            additive_law=additive_law_from_dict(data.get("additive_law", {"kind": "zero"})),
            root_detail=float(data.get("root_detail", 1.0)),
            root_approx=float(data.get("root_approx", 0.0)),
            seed=int(data.get("seed", 0)),
        )


def _generate(spec: CascadeSpec):
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    use_noise = not spec.additive_law.is_null
    layers = []
    draws = []
    parents = np.array([spec.root_detail])
    # Layer-0 statistic: a single root coefficient has no spread, so its
    # magnitude stands in for the standard deviation.
    h = abs(spec.root_detail)
    for _ in range(spec.depth):
        n_children = 2 * parents.size
        w = spec.multiplier_law.sample(rng, n_children)
        children = w * np.repeat(parents, 2)
        if use_noise:
            eta = spec.additive_law.sample(rng, n_children)
            children = children + eta * h
        else:
            eta = np.zeros(n_children)
        layers.append(children)
        draws.append((w, eta))
        parents = children
        h = float(children.std())
    pyramid = WaveletPyramid(
        depth=spec.depth,
        root_approx=spec.root_approx,
        root_detail=spec.root_detail,
        layers=layers,
        rescaled=True,
    )
    return pyramid, draws


def synthesize_wcascade(spec: CascadeSpec, return_draws: bool = False):
    """Pure multiplicative cascade; requires a null additive law."""
    if not spec.additive_law.is_null:
        raise ValueError(
            "pure cascade requires a null additive law; use synthesize_mixed"
        )
    pyramid, draws = _generate(spec)
    return (pyramid, draws) if return_draws else pyramid


def synthesize_mixed(spec: CascadeSpec, return_draws: bool = False):
    """Multiplicative cascade with the layer-scaled additive term.

    With a null additive law the result is bit-identical to
    :func:`synthesize_wcascade` of the same spec.
    """
    pyramid, draws = _generate(spec)
    return (pyramid, draws) if return_draws else pyramid


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
