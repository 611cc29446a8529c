"""Analog noise models for the photonic computing path.

The paper (§7, Figure 18) identifies shot noise and thermal noise as the
two dominant noise sources of the prototype and shows that their combined
effect on an 8-bit photonic multiplication is well modeled by a Gaussian
distribution with mean 2.32 and standard deviation 1.65 on the 0..255
digital scale (0.65 % of full range).  The emulator injects exactly this
model per MAC result.

:class:`GaussianNoise` is the calibrated composite model;
:class:`ShotNoise` and :class:`ThermalNoise` are the physically separate
components for experiments that want to vary them independently; and
:class:`CompositeNoise` sums independent sources.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NoiseModel",
    "NoiselessModel",
    "GaussianNoise",
    "ShotNoise",
    "ThermalNoise",
    "CompositeNoise",
    "PROTOTYPE_NOISE_MEAN",
    "PROTOTYPE_NOISE_STD",
    "FULL_SCALE",
]

# Measured on the prototype (Figure 18), in units of the 0..255 scale.
PROTOTYPE_NOISE_MEAN = 2.32
PROTOTYPE_NOISE_STD = 1.65
FULL_SCALE = 255.0


class NoiseModel:
    """Base interface: perturb a measured analog readout."""

    #: Whether perturbing a block of readouts in one :meth:`apply` call
    #: consumes the same RNG stream as perturbing them one by one.
    #: True for models whose ``apply`` is a single shaped draw (numpy
    #: Generators fill ``normal(size=a)`` then ``normal(size=b)``
    #: identically to ``normal(size=a + b)``); the compiled fast path
    #: relies on this to batch per-row readout noise without changing
    #: seeded results.  Models that cascade multiple draws per call
    #: (e.g. :class:`CompositeNoise`) interleave differently when
    #: batched and must declare ``False``.
    stream_equivalent = True

    #: Whether one readout's noise is the signal-independent Gaussian
    #: ``N(self.mean, self.std**2)``, so that the signed digital sum of
    #: ``r`` readouts is itself one closed-form draw, ``N(mean *
    #: sum(signs), std**2 * r)``.  A model declaring it exposes ``mean``
    #: and ``std``, and cores may draw once per digital output instead
    #: of once per readout; signal-dependent or cascaded models keep
    #: the per-readout stream.
    summable = False

    def sample(self, size: int | tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        """Draw noise values (0..255 scale) of the given shape."""
        raise NotImplementedError

    def apply(
        self, clean: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Return ``clean`` (0..255 scale) with noise added."""
        clean = np.asarray(clean, dtype=np.float64)
        return clean + self.sample(clean.shape, rng)


class NoiselessModel(NoiseModel):
    """The ideal photonic path: readouts equal the true analog values."""

    summable = True
    mean = 0.0
    std = 0.0

    def sample(self, size, rng) -> np.ndarray:
        """All-zero noise."""
        return np.zeros(size)

    def apply(self, clean, rng) -> np.ndarray:
        """Return an untouched copy of the clean values."""
        return np.asarray(clean, dtype=np.float64).copy()


@dataclass
class GaussianNoise(NoiseModel):
    """Gaussian noise calibrated against the prototype (Figure 18).

    ``mean`` and ``std`` are expressed on the 0..255 digital scale.  The
    defaults reproduce the measured fit (mean 2.32, std 1.65).
    """

    mean: float = PROTOTYPE_NOISE_MEAN
    std: float = PROTOTYPE_NOISE_STD
    summable = True

    def __post_init__(self) -> None:
        if self.std < 0:
            raise ValueError("noise standard deviation cannot be negative")

    @property
    def relative_std(self) -> float:
        """Noise std as a fraction of full scale (the paper's 0.65 %)."""
        return self.std / FULL_SCALE

    def sample(self, size, rng) -> np.ndarray:
        """Draw calibrated Gaussian noise of the given shape."""
        return rng.normal(self.mean, self.std, size=size)


@dataclass
class ShotNoise(NoiseModel):
    """Photon shot noise: variance proportional to the signal level.

    Shot noise arises from the quantized arrival of photons at the
    photodetector, so its standard deviation grows with the square root of
    the detected intensity.  ``scale`` sets the std at full scale.
    """

    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.scale < 0:
            raise ValueError("shot noise scale cannot be negative")

    def sample(self, size, rng) -> np.ndarray:
        """Draw shot noise assuming mid-scale illumination."""
        # Signal-independent fallback: assume mid-scale illumination.
        level = FULL_SCALE / 2.0
        std = self.scale * np.sqrt(level / FULL_SCALE)
        return rng.normal(0.0, std, size=size)

    def apply(self, clean, rng) -> np.ndarray:
        """Add signal-dependent shot noise to the clean values."""
        clean = np.asarray(clean, dtype=np.float64)
        level = np.clip(clean, 0.0, None)
        std = self.scale * np.sqrt(level / FULL_SCALE)
        return clean + rng.normal(0.0, 1.0, size=clean.shape) * std


@dataclass
class ThermalNoise(NoiseModel):
    """Johnson-Nyquist thermal noise: signal-independent Gaussian."""

    std: float = 1.0

    def __post_init__(self) -> None:
        if self.std < 0:
            raise ValueError("thermal noise std cannot be negative")

    def sample(self, size, rng) -> np.ndarray:
        """Draw signal-independent thermal noise."""
        return rng.normal(0.0, self.std, size=size)


class CompositeNoise(NoiseModel):
    """Sum of independent noise sources (e.g. shot + thermal)."""

    # Cascading draws one sample per source per call, so batched and
    # per-row application interleave the stream differently: batched
    # results remain statistically identical but not draw-for-draw.
    stream_equivalent = False

    def __init__(self, *sources: NoiseModel) -> None:
        if not sources:
            raise ValueError("a composite noise model needs >=1 source")
        self.sources = tuple(sources)

    def sample(self, size, rng) -> np.ndarray:
        """Sum one draw from every constituent source."""
        total = np.zeros(size)
        for source in self.sources:
            total = total + source.sample(size, rng)
        return total

    def apply(self, clean, rng) -> np.ndarray:
        # Each source perturbs the running value, matching physically
        # cascaded noise processes.
        out = np.asarray(clean, dtype=np.float64).copy()
        for source in self.sources:
            out = source.apply(out, rng)
        return out


def fit_gaussian(samples: np.ndarray) -> tuple[float, float]:
    """Fit a Gaussian to measured noise samples (Figure 18's fit).

    Returns ``(mean, std)`` using the maximum-likelihood estimators.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 2:
        raise ValueError("need at least two samples to fit a Gaussian")
    return float(samples.mean()), float(samples.std())
