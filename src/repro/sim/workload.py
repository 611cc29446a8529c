"""Inference request workloads for the large-scale simulations (§9).

Requests arrive as a Poisson process; every DNN model in the mix is
equally likely.  The arrival rate is sized so that the *most congested*
accelerator under comparison runs at a target utilization (the paper uses
≈90-99 %), which is what makes queueing — not just raw compute — part of
the serve-time story.

A trace is a :class:`SimTrace`: four columns (request ids, arrival
seconds, a model pick per request, the model list) that read as a
sequence of :class:`SimRequest` built on demand, so generating and
simulating a trace makes no per-request object.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ..dnn.model import ModelSpec
from .accelerators import AcceleratorSpec

__all__ = [
    "SimRequest",
    "SimTrace",
    "PoissonWorkload",
    "rate_for_utilization",
]


@dataclass(frozen=True)
class SimRequest:
    """One inference query in the simulation."""

    request_id: int
    model: ModelSpec
    arrival_s: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.arrival_s < math.inf:
            raise ValueError("arrival time must be finite and non-negative")


class SimTrace(Sequence[SimRequest]):
    """A read-only request trace held as columns.

    Request ``i`` is ``SimRequest(request_ids[i], models[picks[i]],
    arrivals[i])``; indexing and iteration build those on demand, so a
    trace reads like a list of requests while the simulator reads the
    columns.  Every arrival must be finite and non-negative.
    """

    def __init__(
        self,
        request_ids: Sequence[int] | np.ndarray,
        arrivals: Sequence[float] | np.ndarray,
        picks: Sequence[int] | np.ndarray,
        models: Sequence[object],
    ) -> None:
        columns = []
        for values, dtype in (
            (request_ids, np.int64), (arrivals, np.float64), (picks, np.int64)
        ):
            column = np.asarray(values, dtype=dtype).view()
            column.flags.writeable = False
            columns.append(column)
        self.request_ids, self.arrivals, self.picks = columns
        self.models = tuple(models)
        count = len(self.arrivals)
        if len(self.request_ids) != count or len(self.picks) != count:
            raise ValueError("trace columns differ in length")
        if count == 0:
            return
        # min is NaN when any arrival is: NaN >= 0 is False.
        if not (self.arrivals.min() >= 0.0 and self.arrivals.max() < np.inf):
            raise ValueError("arrival time must be finite and non-negative")
        if self.picks.min() < 0 or self.picks.max() >= len(self.models):
            raise ValueError("model pick out of range")

    @classmethod
    def from_requests(cls, requests: Sequence[SimRequest]) -> "SimTrace":
        """The columns of a request list; one model entry per distinct
        model object, in first-use order."""
        models: list[object] = []
        index: dict[int, int] = {}
        picks = []
        for request in requests:
            pick = index.get(id(request.model))
            if pick is None:
                pick = index[id(request.model)] = len(models)
                models.append(request.model)
            picks.append(pick)
        return cls(
            [r.request_id for r in requests],
            [r.arrival_s for r in requests],
            picks,
            models,
        )

    def take(self, rows: slice | np.ndarray) -> "SimTrace":
        """The requests ``rows`` selects (a slice or an index array), in
        that order."""
        return SimTrace(
            self.request_ids[rows], self.arrivals[rows], self.picks[rows],
            self.models,
        )

    def __len__(self) -> int:
        return len(self.arrivals)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(index)
        return SimRequest(
            int(self.request_ids[index]),
            self.models[self.picks[index]],
            float(self.arrivals[index]),
        )

    def __iter__(self) -> Iterator[SimRequest]:
        models = self.models
        for request_id, pick, arrival in zip(
            self.request_ids.tolist(), self.picks.tolist(),
            self.arrivals.tolist(),
        ):
            yield SimRequest(request_id, models[pick], arrival)


def rate_for_utilization(
    accelerators: list[AcceleratorSpec],
    models: list[ModelSpec],
    utilization: float,
) -> float:
    """Arrival rate putting the most congested accelerator at the target.

    Utilization is compute occupancy: the accelerator's cores are busy
    only while computing (the datapath stage is pipelined in front of
    them), so the offered load is ``rate x mean compute time`` over the
    uniform model mix.  The binding constraint is the platform with the
    largest mean compute time.
    """
    if not accelerators:
        raise ValueError("need at least one accelerator")
    if not models:
        raise ValueError("need at least one model")
    if not 0.0 < utilization < 1.0:
        raise ValueError("utilization must be in (0, 1)")
    worst_mean_compute = max(
        float(np.mean([acc.compute_seconds(m) for m in models]))
        for acc in accelerators
    )
    return utilization / worst_mean_compute


class PoissonWorkload:
    """Generates Poisson-arrival request traces over a uniform model mix."""

    def __init__(
        self,
        models: list[ModelSpec],
        arrival_rate_per_s: float,
        seed: int = 0,
    ) -> None:
        if not models:
            raise ValueError("need at least one model in the mix")
        if arrival_rate_per_s <= 0:
            raise ValueError("arrival rate must be positive")
        self.models = list(models)
        self.arrival_rate_per_s = arrival_rate_per_s
        self.seed = seed

    def trace(self, num_requests: int, trace_index: int = 0) -> SimTrace:
        """One randomized trace of ``num_requests`` requests.

        ``trace_index`` selects an independent substream so the paper's
        "ten randomized-generated inference request traces" are
        reproducible individually.
        """
        if num_requests < 1:
            raise ValueError("a trace needs at least one request")
        rng = np.random.default_rng((self.seed, trace_index))
        gaps = rng.exponential(
            1.0 / self.arrival_rate_per_s, size=num_requests
        )
        arrivals = np.cumsum(gaps)
        choices = rng.integers(0, len(self.models), size=num_requests)
        return SimTrace(
            np.arange(num_requests), arrivals, choices, self.models
        )
