"""Model-mix sampling and the chunked open-loop traffic source.

The §9 workloads draw models uniformly; real inference fleets are
skewed — a few hot models take most of the traffic (the ENLighten-style
transformer mixes are the extreme case).  :class:`ModelMix` is a
weighted sampler over any model zoo (the seven §9 specs, deployed DAGs,
or plain names); :meth:`ModelMix.zipf` builds the canonical skew.

:class:`OpenLoopTraffic` zips an arrival process with a mix into a
stream of requests.  Generation is *chunked*: :meth:`OpenLoopTraffic.
chunks` yields ``(times, models)`` array pairs so a million-request
campaign streams in O(chunk) memory, while :meth:`runtime_trace`
materializes :class:`~repro.runtime.cluster.RuntimeRequest` lists (with
payloads) for the fabric.  Arrival times, model draws, and payload
levels come from three independent keyed substreams, so every consumer
sees the same arrivals for a given ``(seed, stream)`` no matter which
outputs it asks for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .arrivals import (
    ARRIVAL_RNG_DOMAIN,
    LEVELS_RNG_DOMAIN,
    MIX_RNG_DOMAIN,
    ArrivalProcess,
    substream,
)

__all__ = ["ModelMix", "TrafficChunk", "OpenLoopTraffic"]


class ModelMix:
    """A weighted categorical sampler over a model zoo."""

    def __init__(
        self,
        models: Sequence[object],
        weights: Sequence[float] | None = None,
    ) -> None:
        if not models:
            raise ValueError("a model mix needs at least one model")
        self.models = list(models)
        if weights is None:
            weights = [1.0] * len(self.models)
        if len(weights) != len(self.models):
            raise ValueError(
                f"{len(self.models)} models but {len(weights)} weights"
            )
        w = np.asarray(weights, dtype=np.float64)
        if np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be non-negative and sum > 0")
        self.probabilities = w / w.sum()

    @classmethod
    def zipf(
        cls, models: Sequence[object], exponent: float = 1.2
    ) -> "ModelMix":
        """Zipf-skewed mix: model ``k`` gets weight ``1/(k+1)^exponent``.

        Order matters — the first model is the hot one.
        """
        if exponent < 0:
            raise ValueError("Zipf exponent cannot be negative")
        weights = [
            1.0 / (rank + 1) ** exponent for rank in range(len(models))
        ]
        return cls(models, weights)

    def __len__(self) -> int:
        return len(self.models)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` model indices drawn from the mix."""
        return rng.choice(len(self.models), size=n, p=self.probabilities)


@dataclass(frozen=True)
class TrafficChunk:
    """One generated slice of an open-loop request stream."""

    #: Global index of this chunk's first request.
    start_id: int
    #: Arrival times (seconds), strictly increasing across chunks.
    times: np.ndarray
    #: Index into the mix's model list, one per arrival.
    models: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


class OpenLoopTraffic:
    """A seeded open-loop request stream: arrivals × model mix.

    ``stream`` keys this traffic source's substreams, so a campaign
    sweeping many (process, load, platform) points under one base seed
    gives every point its own independent — and individually
    reproducible — stream.
    """

    def __init__(
        self,
        process: ArrivalProcess,
        mix: ModelMix | Sequence[object],
        seed: int = 0,
        stream: int | tuple[int, ...] = 0,
    ) -> None:
        self.process = process
        self.mix = mix if isinstance(mix, ModelMix) else ModelMix(mix)
        self.seed = seed
        self.stream = (
            stream if isinstance(stream, tuple) else (stream,)
        )

    def _rng(self, domain: int) -> np.random.Generator:
        return substream(self.seed, domain, *self.stream)

    def chunks(
        self, total: int, chunk_size: int = 65_536
    ) -> Iterator[TrafficChunk]:
        """Generate ``total`` requests, ``chunk_size`` at a time.

        Each call restarts the substreams, so iterating twice yields
        bit-identical traffic.
        """
        if total < 1:
            raise ValueError("a traffic stream needs at least one request")
        if chunk_size < 1:
            raise ValueError("chunk size must be at least 1")
        sampler = self.process.sampler(self._rng(ARRIVAL_RNG_DOMAIN))
        mix_rng = self._rng(MIX_RNG_DOMAIN)
        produced = 0
        while produced < total:
            n = min(chunk_size, total - produced)
            yield TrafficChunk(
                start_id=produced,
                times=sampler.take(n),
                models=self.mix.sample(n, mix_rng),
            )
            produced += n

    def runtime_trace(self, total: int) -> list:
        """A materialized :class:`~repro.runtime.cluster.RuntimeRequest`
        trace (mix models must be deployed
        :class:`~repro.core.dag.ComputationDAG` objects).

        Query payloads (0..255 activation levels sized to each model's
        input layer) come from their own keyed substream, so payloads
        never perturb arrival or mix reproducibility.
        """
        from ..runtime.cluster import RuntimeRequest

        levels_rng = self._rng(LEVELS_RNG_DOMAIN)
        requests = []
        for chunk in self.chunks(total):
            for i, (t, m) in enumerate(zip(chunk.times, chunk.models)):
                dag = self.mix.models[int(m)]
                levels = levels_rng.integers(
                    0, 256, size=dag.tasks[0].input_size
                ).astype(np.float64)
                requests.append(
                    RuntimeRequest(
                        request_id=chunk.start_id + i,
                        model_id=dag.model_id,
                        arrival_s=float(t),
                        data_levels=levels,
                    )
                )
        return requests
