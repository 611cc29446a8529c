"""Shared serving statistics and accounting.

Two ledgers track serving behaviour: the NIC's frame counters
(:class:`NICCounters`, moved only by :func:`repro.net.ingress.receive`,
one counter per frame fate) and the serving layers' request statistics
(:class:`ServerStats`, shared by the cluster, the fabric, the fleet
engine and the §9 simulator).  This module holds both, so a dashboard
reading any layer sees the same metrics computed the same way.

A serve's per-request story is one :class:`Outcomes` table — a row per
offered request with its fate, reason, timing and energy — and every
count a serve reports is a reduction over it (:class:`Tallied`).  The
real-datapath serve, the §9 simulator and the fleet engine all write
it; the first two read a served row back as the one record view,
:class:`ServedRecord`, and the fleet engine reduces each landing block
of rows into its counters and streamed summaries and keeps none.

Latency samples are held in a fixed-capacity reservoir
(:class:`LatencyReservoir`) rather than an append-forever list, so a
server that stays up under sustained traffic uses bounded memory while
its percentile estimates stay statistically representative of the whole
run.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import IntEnum, IntFlag
from functools import cached_property

import numpy as np

__all__ = [
    "DEFAULT_RESERVOIR_CAPACITY",
    "DEFAULT_TAIL_CAPACITY",
    "EnergyLedger",
    "LatencyReservoir",
    "NICCounters",
    "Outcome",
    "OutcomeFlag",
    "OutcomeReason",
    "OutcomeRows",
    "Outcomes",
    "ServedRecord",
    "ServerStats",
    "Tallied",
    "check_accounting",
    "grouped_by_first_use",
    "sequential_sum",
]

#: Default number of latency samples retained for percentile estimation.
#: 4096 uniform samples put the standard error of a p99 estimate around
#: 0.16 percentile points (sqrt(0.99*0.01/4096)), far below operator
#: noise, while capping memory at a few tens of kilobytes per server.
DEFAULT_RESERVOIR_CAPACITY = 4096

#: Default number of largest values tracked exactly for tail quantiles.
#: A uniform reservoir is hopeless at p999 (a 4096-sample reservoir holds
#: ~4 values above the 99.9th percentile), so the reservoir additionally
#: keeps the top ``DEFAULT_TAIL_CAPACITY`` values verbatim: p999 over a
#: million-request stream needs the largest 1000 values, which 1024
#: covers exactly — fleet SLO curves never need record retention.
DEFAULT_TAIL_CAPACITY = 1024


def sequential_sum(start: float, values: np.ndarray) -> float:
    """``start + values[0] + values[1] + ...`` added left to right.

    ``cumsum`` accumulates strictly in order, so the result is bit-equal
    to the per-value ``+=`` loop it replaces; ``ndarray.sum`` is
    pairwise and is not.
    """
    if len(values) == 0:
        return start
    return float(np.cumsum(np.concatenate(((start,), values)))[-1])


def grouped_by_first_use(codes: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """``(code, rows holding it)`` per distinct code, ordered by each
    code's first row — the order a per-value loop would first meet
    them, which is the insertion order of the dicts it fills."""
    groups = [
        (code, np.flatnonzero(codes == code))
        for code in np.flatnonzero(np.bincount(codes)).tolist()
    ]
    groups.sort(key=lambda group: group[1][0])
    return groups


class LatencyReservoir:
    """A fixed-capacity uniform sample of an unbounded value stream.

    Implements reservoir sampling (Vitter's Algorithm R): the first
    ``capacity`` values are kept verbatim; after that each new value
    replaces a random slot with probability ``capacity / count``, which
    keeps every value seen so far equally likely to be retained.
    Percentiles computed over the reservoir are therefore unbiased
    estimates over the *entire* stream, not just a recent window, and
    memory never grows past ``capacity`` floats.

    The running count and sum are exact, so :attr:`mean` is exact even
    when the reservoir has started subsampling.

    Alongside the uniform sample, the reservoir tracks the largest
    ``tail_capacity`` values exactly (a min-heap updated in O(log k)).
    Tail percentiles whose rank falls inside that tracked tail — p999
    over up to ``1000 x tail_capacity`` values — are computed *exactly*
    from the retained order statistics instead of estimated from the
    subsample, which is what makes p999 SLO curves meaningful without
    per-request record retention.

    :meth:`add_many` observes a block of values at once and leaves the
    reservoir exactly as per-value :meth:`add` calls would: its one
    ``integers`` call with an array ``high`` consumes the bit stream as
    one scalar draw per value does (pinned by
    ``tests/core/test_stats.py::test_block_integers_match_scalar_stream``),
    so the generator always sits where per-value draws leave it.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_RESERVOIR_CAPACITY,
        seed: int = 0,
        tail_capacity: int = DEFAULT_TAIL_CAPACITY,
    ) -> None:
        if capacity < 1:
            raise ValueError("reservoir capacity must be at least 1")
        if tail_capacity < 0:
            raise ValueError("tail capacity cannot be negative")
        self.capacity = capacity
        self.tail_capacity = tail_capacity
        self._samples: list[float] = []
        self._count = 0
        self._total = 0.0
        self._rng = np.random.default_rng(seed)
        #: Min-heap of the largest values observed so far.
        self._tail: list[float] = []
        #: Guaranteed number of exact top order statistics in ``_tail``;
        #: ``None`` means "never merged": the heap provably holds the
        #: top ``min(count, tail_capacity)``.  A merge can only vouch
        #: for the smaller of the two sides' guarantees, so the bound
        #: becomes explicit (and sticky) afterwards.
        self._tail_exact: int | None = None

    def _tail_coverage(self) -> int:
        """How many of the stream's largest values are held exactly."""
        if self._tail_exact is not None:
            return self._tail_exact
        return min(self._count, self.tail_capacity)

    def add(self, value: float) -> None:
        """Observe one value, retaining it with reservoir probability."""
        self._count += 1
        self._total += value
        if self.tail_capacity:
            if len(self._tail) < self.tail_capacity:
                heapq.heappush(self._tail, value)
            elif value > self._tail[0]:
                heapq.heapreplace(self._tail, value)
        if len(self._samples) < self.capacity:
            self._samples.append(value)
            return
        slot = int(self._rng.integers(0, self._count))
        if slot < self.capacity:
            self._samples[slot] = value

    def add_many(self, values: np.ndarray) -> None:
        """Observe a block of values, in order.

        Leaves the reservoir exactly as ``for v in values: add(v)``
        would: same samples, count, sum (added left to right), tail
        and generator position.
        """
        values = np.asarray(values, dtype=np.float64)
        if len(values) == 0:
            return
        first = self._count + 1
        self._count += len(values)
        self._total = sequential_sum(self._total, values)
        tail = self._tail
        if self.tail_capacity:
            room = max(self.tail_capacity - len(tail), 0)
            for value in values[:room].tolist():
                heapq.heappush(tail, value)
            # The tail's minimum only rises, so a value at or under it
            # now is a no-op in the per-value loop as well.
            late = values[room:]
            for value in late[late > tail[0]].tolist():
                if value > tail[0]:
                    heapq.heapreplace(tail, value)
        samples = self._samples
        fill = self.capacity - len(samples)
        if fill > 0:
            samples.extend(values[:fill].tolist())
            values = values[fill:]
            first += fill
            if len(values) == 0:
                return
        slots = self._rng.integers(0, np.arange(first, first + len(values)))
        hits = np.flatnonzero(slots < self.capacity)
        for slot, value in zip(slots[hits].tolist(), values[hits].tolist()):
            samples[slot] = value

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count(self) -> int:
        """Exact number of values observed (may exceed ``capacity``)."""
        return self._count

    @property
    def total(self) -> float:
        """Exact sum over every observed value."""
        return self._total

    @property
    def mean(self) -> float:
        """Exact mean over every observed value."""
        if self._count == 0:
            raise ValueError("no samples observed yet")
        return self._total / self._count

    def percentile(self, q: float) -> float:
        """One percentile estimate from the retained sample."""
        return self.percentiles([q])[0]

    def _tail_percentile(
        self, q: float, coverage: int, ordered: list[float]
    ) -> float | None:
        """Exact percentile from the tracked tail, or ``None``.

        ``ordered`` is the tail sorted largest first, of which the top
        ``coverage`` values are exact.  Follows numpy's
        linear-interpolation convention over the full conceptual stream
        of ``count`` values: the percentile at ``q`` interpolates the
        order statistics at positions ``floor(h)`` and ``ceil(h)`` with
        ``h = (count - 1) * q / 100``.  When both positions fall inside
        the exactly-tracked top of the stream the interpolated value is
        exact, not an estimate.
        """
        # Same operation order as np.percentile (q -> quantile first),
        # so exact answers match a full-stream np.percentile bit for bit.
        h = (q / 100.0) * (self._count - 1)
        lo = int(np.floor(h))
        # Index of ``lo`` counted from the stream maximum (0 = max).
        from_top = self._count - 1 - lo
        if from_top >= coverage:
            return None
        v_lo = ordered[from_top]
        v_hi = ordered[from_top - 1] if from_top > 0 else v_lo
        # numpy's _lerp: interpolate from the nearer end for accuracy,
        # so tail-exact answers match np.percentile over the full
        # stream bit for bit.
        t = h - lo
        if t >= 0.5:
            return float(v_hi - (v_hi - v_lo) * (1.0 - t))
        return float(v_lo + (v_hi - v_lo) * t)

    def percentiles(self, qs: list[float]) -> list[float]:
        """Several percentiles from one pass over the retained sample.

        A single :func:`numpy.percentile` call sorts the reservoir once
        for all requested quantiles.  Once the stream outgrows the
        uniform sample, any quantile whose rank lands inside the
        exactly-tracked tail (p999 and beyond on long streams) is
        answered from the tail's order statistics instead — exact where
        the subsample would be noisiest.
        """
        if not self._samples:
            raise ValueError("no samples observed yet")
        if self._count == len(self._samples):
            # Nothing was subsampled: the reservoir is the stream.
            values = np.percentile(self._samples, qs)
            return [float(v) for v in np.atleast_1d(values)]
        coverage = self._tail_coverage()
        out: list[float | None] = [None] * len(qs)
        if coverage > 1:
            # One sort of the tail serves every quantile.
            ordered = sorted(self._tail, reverse=True)
            out = [self._tail_percentile(q, coverage, ordered) for q in qs]
        estimated = [q for q, v in zip(qs, out) if v is None]
        if estimated:
            values = np.atleast_1d(np.percentile(self._samples, estimated))
            it = iter(float(v) for v in values)
            out = [v if v is not None else next(it) for v in out]
        return [float(v) for v in out]

    def merge(self, other: "LatencyReservoir") -> None:
        """Fold another reservoir into this one in place.

        The count and sum stay exact, so :attr:`mean` remains exact
        over the union of both streams.  The retained sample is rebuilt
        as a stream-weighted subsample: when the combined retention
        exceeds ``capacity``, slots are split between the two sources
        in proportion to their exact stream counts and filled by
        without-replacement draws from each side, which keeps the
        merged reservoir approximately uniform over the union.  The
        draw uses this reservoir's own RNG, so merging is deterministic
        for a fixed construction/merge order (as in cross-shard
        aggregation, where shard order is fixed).

        Exact tails merge exactly: the union's top-k values are each in
        their own side's top-k, so keeping the largest ``tail_capacity``
        of the two tails preserves exactness up to the smaller side's
        guarantee — p999 merged across shards is still exact while every
        shard's tracked tail covers its own top 0.1%.
        """
        if other._count == 0:
            return
        if self.tail_capacity:
            # sorted()[:k] is the list heapq.nlargest(k, ...) returns
            # (both stable), built in one C sort.
            merged_tail = sorted(self._tail + other._tail, reverse=True)[
                : self.tail_capacity
            ]
            # A side constrains the union only once it has discarded
            # values (saturated tail) or carries an explicit bound from
            # an earlier merge; a fully-retained side vouches for all
            # of its own values.
            bounds = [self.tail_capacity]
            for side in (self, other):
                if side._tail_exact is not None:
                    bounds.append(side._tail_exact)
                elif side._count > side.tail_capacity:
                    bounds.append(side.tail_capacity)
            self._tail_exact = min(bounds)
            heapq.heapify(merged_tail)
            self._tail = merged_tail
        combined = self._samples + other._samples
        if self._count == 0 or len(combined) <= self.capacity:
            self._samples = combined
        else:
            total = self._count + other._count
            take_self = int(round(self.capacity * self._count / total))
            take_self = min(max(take_self, 0), len(self._samples))
            take_other = min(
                self.capacity - take_self, len(other._samples)
            )
            picks_self = self._rng.choice(
                len(self._samples), size=take_self, replace=False
            )
            picks_other = self._rng.choice(
                len(other._samples), size=take_other, replace=False
            )
            self._samples = [
                self._samples[int(i)] for i in np.sort(picks_self)
            ] + [other._samples[int(i)] for i in np.sort(picks_other)]
        self._count += other._count
        self._total += other._total


class EnergyLedger:
    """Bounded-memory per-request energy accounting.

    Every layer of the serving stack charges energy through one of
    these: the exact count and joule totals (global and per model)
    make joules-per-inference exact over arbitrarily long runs, while
    per-request energies stream through a :class:`LatencyReservoir`
    so energy percentiles get the same exact-tail treatment as
    latency percentiles — p999 energy over a million-request campaign
    is an exact order statistic, not an estimate.

    Ledgers merge the same way :class:`ServerStats` do: totals add
    exactly (so merged means are exact and order-invariant), and the
    reservoirs fold via :meth:`LatencyReservoir.merge`.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_RESERVOIR_CAPACITY,
        seed: int = 0,
        tail_capacity: int = DEFAULT_TAIL_CAPACITY,
    ) -> None:
        #: Exact joules charged per model (cluster layers key by model
        #: id, the fleet engine keys by model name).
        self.per_model_joules: dict[int | str, float] = {}
        self.per_model_count: dict[int | str, int] = {}
        self._reservoir = LatencyReservoir(
            capacity=capacity, seed=seed, tail_capacity=tail_capacity
        )

    def charge(self, model_id: int | str, joules: float) -> None:
        """Account one served request's energy."""
        self.per_model_joules[model_id] = (
            self.per_model_joules.get(model_id, 0.0) + joules
        )
        self.per_model_count[model_id] = (
            self.per_model_count.get(model_id, 0) + 1
        )
        self._reservoir.add(joules)

    def charge_many(
        self,
        model_ids: list[int | str],
        codes: np.ndarray,
        joules: np.ndarray,
    ) -> None:
        """Account a block of served requests, in order.

        Request ``i`` belongs to ``model_ids[codes[i]]``.  Leaves the
        ledger exactly as per-request :meth:`charge` calls would,
        per-model insertion order included.
        """
        for code, rows in grouped_by_first_use(codes):
            model_id = model_ids[code]
            self.per_model_joules[model_id] = sequential_sum(
                self.per_model_joules.get(model_id, 0.0), joules[rows]
            )
            self.per_model_count[model_id] = (
                self.per_model_count.get(model_id, 0) + len(rows)
            )
        self._reservoir.add_many(joules)

    @property
    def count(self) -> int:
        """Exact number of requests charged."""
        return self._reservoir.count

    @property
    def total_joules(self) -> float:
        """Exact total energy charged across every request."""
        return self._reservoir.total

    @property
    def mean_joules(self) -> float:
        """Exact joules-per-inference over every charged request."""
        return self._reservoir.mean

    def percentiles(self, qs: list[float]) -> list[float]:
        """Several energy percentiles from one pass."""
        return self._reservoir.percentiles(qs)

    def merge(self, other: "EnergyLedger") -> None:
        """Fold another ledger into this one in place.

        Counts and joule totals add exactly, so merged means are exact
        and independent of merge order; reservoirs merge like latency
        reservoirs (exact tails stay exact up to the smaller side's
        guarantee).
        """
        for model_id, joules in other.per_model_joules.items():
            self.per_model_joules[model_id] = (
                self.per_model_joules.get(model_id, 0.0) + joules
            )
        for model_id, count in other.per_model_count.items():
            self.per_model_count[model_id] = (
                self.per_model_count.get(model_id, 0) + count
            )
        self._reservoir.merge(other._reservoir)

    def summary(self) -> dict[str, float | int]:
        """A dashboard-style snapshot (empty dict before any charge)."""
        if self.count == 0:
            return {}
        p50, p99, p999 = self.percentiles([50, 99, 99.9])
        return {
            "energy_count": self.count,
            "energy_j": self.total_joules,
            "mean_energy_j": self.mean_joules,
            "p50_energy_j": p50,
            "p99_energy_j": p99,
            "p999_energy_j": p999,
        }


class Outcome(IntEnum):
    """What became of an offered request — an :class:`Outcomes` row's
    ``fate``.  (A frame's :class:`~repro.net.parser.Fate` decides
    whether the frame became a request at all.)"""

    SERVED, DROPPED, FAILED, UNFINISHED, SHED, FAILED_OVER = range(6)


#: What an omitted :class:`Outcomes` column holds on every row, as a
#: read-only zero-stride view: no shard, no named core, no reason, no
#: flag, a batch of one, no prediction.
_CONSTANT_COLUMNS = dict(
    shard=np.int64(-1), core=np.int64(-1), reason=np.int8(0),
    flags=np.int8(0), batch=np.int64(1), prediction=np.int64(-1),
)


#: The counts :func:`check_accounting` takes, in :meth:`Outcomes.tally`
#: order: one per fate, the offered total, the two flag annotations.
_TALLY = (
    *(fate.name.lower() for fate in Outcome), "offered", "stolen", "failovers"
)


class OutcomeReason(IntEnum):
    """Why a request met its fate: a queue overflow or its SLO for a
    drop, retries exhausted or no usable core for a failure, the
    admission policy, its class deadline or its energy budget for a
    shed."""

    (NONE, QUEUE_OVERFLOW, SLO, RETRIES_EXHAUSTED, NO_USABLE_CORE,
     ADMISSION, DEADLINE, ENERGY_BUDGET) = range(8)


class OutcomeFlag(IntFlag):
    """Row annotations, never fates of their own: placed off the
    router's answer by a steal, moved off its primary replica by the
    failover router, re-served on a replica by a recovery pass.  A
    flag stays on its row whatever the fate; the ``stolen`` count
    takes only served rows (:meth:`Outcomes.tally`)."""

    STOLEN, REROUTED, HANDED = 1, 2, 4


class Outcomes:
    """One row per offered request: what became of it, and why.

    Columns, each a numpy array with one entry per row: ``request``
    (the object; in the fleet engine's tables, the arrival's ordinal in
    the offered stream) and its ``model``; ``shard`` (-1 outside a
    fabric or the fleet, or fated before any shard) and ``core`` (-1
    unless served by a named core; global in a fabric's table);
    ``fate``, ``reason`` and ``flags`` (:class:`Outcome`,
    :class:`OutcomeReason`, :class:`OutcomeFlag`); ``arrival``,
    ``t_q``, ``t_d``, ``t_c`` and ``finish`` in seconds, ``batch``,
    ``prediction`` and ``joules`` — NaN, 0 or -1 unless served (joules
    also when unpriced; an omitted ``batch`` is 1 on every row).

    A request has exactly one row, whatever became of it, so
    ``served + dropped + failed + unfinished + shed + failed_over ==
    offered`` holds by construction (:meth:`tally`).  A serve writes
    its table through :class:`OutcomeRows`; the §9 simulator and the
    fleet engine build theirs from the per-request arrays their loops
    fill, omitting the columns that hold one constant for them
    (:data:`_CONSTANT_COLUMNS`).
    """

    COLUMNS = (
        "request", "model", "shard", "core", "fate", "reason", "flags",
        "arrival", "t_q", "t_d", "t_c", "finish", "batch", "prediction",
        "joules",
    )

    def __init__(self, **columns: np.ndarray) -> None:
        rows = len(columns["fate"])
        for name, value in _CONSTANT_COLUMNS.items():
            if name not in columns:
                columns[name] = np.broadcast_to(value, rows)
        self.__dict__.update(columns)

    def __len__(self) -> int:
        return len(self.fate)

    @classmethod
    def concat(cls, tables: list["Outcomes"]) -> "Outcomes":
        """The rows of ``tables``, in order, as one new table."""
        return cls(**{
            name: np.concatenate([getattr(t, name) for t in tables])
            for name in cls.COLUMNS
        })

    def take(self, rows: np.ndarray) -> "Outcomes":
        """The rows a boolean mask or an index array selects."""
        return Outcomes(**{n: getattr(self, n)[rows] for n in self.COLUMNS})

    def served(self) -> "Outcomes":
        """The served rows, in row (completion) order."""
        return self.take(self.fate == Outcome.SERVED)

    @property
    def serve_s(self) -> np.ndarray:
        """Arrival to result, ``t_q + t_d + t_c``, per row."""
        return self.t_q + self.t_d + self.t_c

    def requests(self, fate: Outcome) -> list:
        """The requests that met ``fate``, in row order."""
        return self.request[self.fate == fate].tolist()

    def records(self) -> tuple["ServedRecord", ...]:
        """The served rows, in row order, as records."""
        served = self.served()
        columns = ("request", "core", "batch", "t_q", "t_d", "t_c",
                   "finish", "prediction")
        return tuple(
            map(ServedRecord, *(getattr(served, c).tolist() for c in columns))
        )

    def tally(self) -> dict[str, int]:
        """Every count :func:`check_accounting` takes: one per fate
        (``bincount(fate)``), ``offered`` (the rows), and from the
        flags ``stolen`` (served rows a steal placed — a subset of
        ``served`` by construction) and ``failovers`` (re-routes plus
        hand-offs, on any row: a row with both counts twice)."""
        served = self.flags[self.fate == Outcome.SERVED]
        stolen = np.count_nonzero(served & OutcomeFlag.STOLEN)
        rerouted, handed = (
            np.count_nonzero(self.flags & flag)
            for flag in (OutcomeFlag.REROUTED, OutcomeFlag.HANDED)
        )
        counts = np.bincount(self.fate, minlength=len(Outcome)).tolist()
        counts += [len(self), int(stolen), int(rerouted + handed)]
        return dict(zip(_TALLY, counts))


@dataclass(frozen=True)
class ServedRecord:
    """One served request with its t_q/t_d/t_c decomposition — a view
    of one served row of an :class:`Outcomes` table
    (:meth:`Outcomes.records`); the row's ``joules`` stay in the
    table."""

    request: object
    core: int
    batch_size: int
    queuing_s: float
    datapath_s: float
    compute_s: float
    finish_s: float
    prediction: int

    @property
    def serve_time_s(self) -> float:
        """Arrival to result (t_q + t_d + t_c == finish - arrival)."""
        return self.queuing_s + self.datapath_s + self.compute_s


#: An unserved row's shard, core, batch, t_d, t_c and finish.
_UNSERVED = (-1, -1, 0, np.nan, np.nan, np.nan)


class OutcomeRows:
    """An :class:`Outcomes` table being written, in event order."""

    def __init__(self) -> None:
        self._rows: list[tuple] = []

    def __len__(self) -> int:
        return len(self._rows)

    def add(
        self, request, fate: Outcome, reason: int = 0, flags: int = 0
    ) -> None:
        """One row for a request that was not served."""
        self._rows.append((request, fate, reason, flags) + _UNSERVED)

    def add_served(
        self, requests: list, core: int, finish_s: float,
        datapath_s: float, compute_s: float,
    ) -> None:
        """One finished batch's rows: its requests share the core, the
        finish and one pipeline pass's t_d / t_c; t_q is the rest."""
        served, size = Outcome.SERVED, len(requests)
        self._rows.extend(
            (r, served, 0, 0, -1, core, size, datapath_s, compute_s, finish_s)
            for r in requests
        )

    def seal(self, energy_model=None) -> Outcomes:
        """The rows so far as a table: a served row's t_q is ``finish -
        arrival - t_d - t_c`` and ``energy_model`` prices its joules,
        each in the per-request formula's operation order."""
        count = len(self._rows)
        columns = list(zip(*self._rows)) if count else [()] * 10
        request = np.fromiter(columns[0], object, count)
        table = Outcomes(
            request=request,
            model=np.fromiter((r.model_id for r in request), np.int64, count),
            arrival=np.fromiter(
                (r.arrival_s for r in request), np.float64, count
            ),
            prediction=np.full(count, -1, dtype=np.int64),
            **{
                name: np.array(column, dtype=dtype)
                for name, dtype, column in zip(
                    ("fate", "reason", "flags", "shard", "core", "batch",
                     "t_d", "t_c", "finish"),
                    (np.int8,) * 3 + (np.int64,) * 3 + (np.float64,) * 3,
                    columns[1:],
                )
            },
        )
        table.t_q = table.finish - table.arrival - table.t_d - table.t_c
        table.joules = (
            np.full(count, np.nan) if energy_model is None
            else energy_model.energy(
                datapath_s=table.t_d, queuing_s=table.t_q, compute_s=table.t_c
            )
        )
        return table


def check_accounting(
    *,
    offered: int,
    served: int,
    dropped: int = 0,
    failed: int = 0,
    unfinished: int = 0,
    shed: int = 0,
    failed_over: int = 0,
    stolen: int = 0,
    failovers: int = 0,
) -> None:
    """Enforce the serving invariant over a set of fate counts.

    Every offered request must meet exactly one fate::

        served + dropped + failed + unfinished + shed + failed_over
            == offered

    ``stolen`` and ``failovers`` annotate requests already counted
    under another fate, so they do not sum.  ``stolen`` is bounded by
    ``served``; ``failovers`` is only checked for sign — a request the
    router diverted and the recovery pass later moved again counts
    twice.  A serve result runs it once, when built (:class:`Tallied`);
    a :class:`ServerStats` that summed the counts of many tables (the
    fleet engine's, one per landing block) runs it through
    :meth:`ServerStats.accounted`.

    Raises :exc:`ValueError` with the full tally on any violation.
    """
    counters = {
        "offered": offered,
        "served": served,
        "dropped": dropped,
        "failed": failed,
        "unfinished": unfinished,
        "shed": shed,
        "failed_over": failed_over,
        "stolen": stolen,
        "failovers": failovers,
    }
    for name, value in counters.items():
        if value < 0:
            raise ValueError(f"negative {name} count: {counters}")
    if stolen > served:
        raise ValueError(f"stolen exceeds served: {counters}")
    accounted = served + dropped + failed + unfinished + shed + failed_over
    if accounted != offered:
        raise ValueError(
            f"accounting violation: {accounted} accounted != "
            f"{offered} offered ({counters})"
        )


class Tallied:
    """Fate counts of a serve result, as reductions over its
    ``outcomes`` table; the result's one :func:`check_accounting`
    call runs here, when it is built."""

    outcomes: Outcomes

    def __post_init__(self) -> None:
        check_accounting(**self.tally)

    @cached_property
    def tally(self) -> dict[str, int]:
        """Every fate count of the serve (:meth:`Outcomes.tally`)."""
        return self.outcomes.tally()

    offered = property(lambda self: self.tally["offered"])
    served = property(lambda self: self.tally["served"])
    dropped = property(lambda self: self.tally["dropped"])
    failed = property(lambda self: self.tally["failed"])
    unfinished = property(lambda self: self.tally["unfinished"])

    @cached_property
    def horizon_s(self) -> float:
        """The last completion (0.0 with none) — the serve's makespan."""
        return float(np.max(self.outcomes.served().finish, initial=0.0))

    @property
    def throughput_rps(self) -> float:
        """Sustained completions per second over the horizon."""
        if self.horizon_s <= 0:
            raise ValueError("no requests finished")
        return self.served / self.horizon_s

    def serve_times(self) -> np.ndarray:
        """Every served request's serve time, in row order."""
        return self.outcomes.served().serve_s


@dataclass
class NICCounters:
    """Frame-level accounting shared by the smartNIC and the runtime.

    One instance counts every frame decision a NIC makes: inference
    queries served, regular packets punted to the host over PCIe, and
    packets dropped by intrusion detection before crossing PCIe.
    """

    served: int = 0
    punted: int = 0
    dropped: int = 0
    frames_seen: int = 0

    def merge(self, other: "NICCounters") -> None:
        """Accumulate another NIC's frame counters into this one."""
        self.served += other.served
        self.punted += other.punted
        self.dropped += other.dropped
        self.frames_seen += other.frames_seen

    def summary(self) -> dict[str, int]:
        """A dashboard-style snapshot of the frame counters."""
        return {
            "served": self.served,
            "punted": self.punted,
            "dropped": self.dropped,
            "frames_seen": self.frames_seen,
        }


@dataclass
class ServerStats:
    """Rolling serving statistics with bounded-memory latency tracking.

    Latencies go through a :class:`LatencyReservoir` of
    ``reservoir_capacity`` samples (default
    :data:`DEFAULT_RESERVOIR_CAPACITY`), so sustained traffic cannot
    exhaust memory; counts and the mean stay exact, and percentiles are
    unbiased estimates over the full history.

    The fate counters (named like :meth:`Outcomes.tally`'s keys) and
    ``slo_dropped`` are folded in from each serve's table
    (:meth:`fold`), added from each of the fleet engine's landing
    blocks (:meth:`add_counts`), or set directly by a fabric's recovery
    hand-offs.
    """

    served: int = 0
    dropped: int = 0
    #: ``FAILED`` rows: requests abandoned after exhausting their retry
    #: budget or stranded with no usable core — shed loudly, never lost
    #: silently.
    failed: int = 0
    #: Re-enqueues of requests lost to crashed/stalled cores.
    retries: int = 0
    #: ``DROPPED`` rows whose reason is the SLO: shed before dispatch
    #: because their deadline passed (also included in ``dropped``).
    slo_dropped: int = 0
    #: Cores removed from service by the calibration watchdog.
    quarantines: int = 0
    #: Quarantined cores returned to service after a bias re-lock
    #: brought their calibration probe back under threshold.
    relocks: int = 0
    #: Requests presented to this layer: one table row each.
    offered: int = 0
    #: ``SHED`` rows: requests refused by admission control, or by the
    #: gateway pre-pass for their deadline or energy budget, before
    #: reaching a serving queue.
    shed: int = 0
    #: Served requests a steal placed on a sibling shard (a subset of
    #: ``served``, never a separate fate).
    stolen: int = 0
    #: ``FAILED_OVER`` rows: requests abandoned at routing because
    #: every replica of their model was dead.
    failed_over: int = 0
    #: Rows re-routed off their primary replica by the failover router
    #: or handed to a replica by the recovery pass (annotations; their
    #: fates are counted where they landed).
    failovers: int = 0
    #: ``UNFINISHED`` rows: requests still queued, in flight, or not yet
    #: arrived when the serve ended.
    unfinished: int = 0
    per_model_served: dict[int, int] = field(default_factory=dict)
    #: Last observed state per core ("healthy" | "stalled" |
    #: "quarantined" | "crashed"), maintained by the runtime.
    core_health: dict[int, str] = field(default_factory=dict)
    reservoir_capacity: int = DEFAULT_RESERVOIR_CAPACITY
    _latencies: LatencyReservoir = field(init=False, repr=False)
    #: Per-request joules charged by the serving layer (empty until a
    #: layer with an :class:`~repro.core.energy.EnergyModel` serves).
    energy: EnergyLedger = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._latencies = LatencyReservoir(capacity=self.reservoir_capacity)
        self.energy = EnergyLedger(capacity=self.reservoir_capacity)

    def record(self, model_id: int, latency_s: float) -> None:
        """Account one served request's latency."""
        self.served += 1
        self.per_model_served[model_id] = (
            self.per_model_served.get(model_id, 0) + 1
        )
        self._latencies.add(latency_s)

    def record_energy(self, model_id: int | str, joules: float) -> None:
        """Account one served request's energy charge (a serve folds
        its table instead; the stack benchmark's layer table names
        this method)."""
        self.energy.charge(model_id, joules)

    def add_counts(self, outcomes: Outcomes) -> None:
        """Add a table's counts (:meth:`Outcomes.tally`) to the
        counters of the same names."""
        for name, count in outcomes.tally().items():
            setattr(self, name, getattr(self, name) + count)

    def fold(self, outcomes: Outcomes) -> None:
        """Account one finished serve's table: its counts, and each
        served row's model, latency and joules in row order — exactly
        what per-request :meth:`record` / :meth:`record_energy` calls
        would leave (unpriced rows charge no energy)."""
        self.add_counts(outcomes)
        self.slo_dropped += int(
            np.count_nonzero(outcomes.reason == OutcomeReason.SLO)
        )
        served = outcomes.served()
        models, codes = np.unique(served.model, return_inverse=True)
        models = models.tolist()
        for code, rows in grouped_by_first_use(codes):
            model_id = models[code]
            self.per_model_served[model_id] = (
                self.per_model_served.get(model_id, 0) + len(rows)
            )
        self._latencies.add_many(served.serve_s)
        priced = ~np.isnan(served.joules)
        self.energy.charge_many(models, codes[priced], served.joules[priced])

    def accounted(self) -> None:
        """Check the extended invariant over this ledger's counters.

        ``retries``/``slo_dropped`` annotate subsets of the
        primary fates (an SLO drop is already inside ``dropped``), so
        only the primary fates sum.  Raises :exc:`ValueError` when a
        request went missing or was double-counted.
        """
        check_accounting(
            offered=self.offered,
            served=self.served,
            dropped=self.dropped,
            failed=self.failed,
            unfinished=self.unfinished,
            shed=self.shed,
            failed_over=self.failed_over,
            stolen=self.stolen,
            failovers=self.failovers,
        )

    def latency_percentile(self, percentile: float) -> float:
        """Serve-time percentile in seconds (raises with no samples)."""
        if len(self._latencies) == 0:
            raise ValueError("no requests served yet")
        return self._latencies.percentile(percentile)

    @property
    def mean_latency_s(self) -> float:
        """Exact mean serve time over every recorded request."""
        if self._latencies.count == 0:
            raise ValueError("no requests served yet")
        return self._latencies.mean

    def merge(self, other: "ServerStats", core_offset: int = 0) -> None:
        """Fold another server's statistics into this one in place.

        Counters and per-model tallies add exactly; latency reservoirs
        merge via :meth:`LatencyReservoir.merge`, so the combined mean
        is exact and percentiles stay representative of the union.
        ``core_offset`` shifts the other server's core indices before
        they land in :attr:`core_health` — the fabric uses it to map
        each shard's local cores into one global namespace.
        """
        self.served += other.served
        self.dropped += other.dropped
        self.failed += other.failed
        self.retries += other.retries
        self.slo_dropped += other.slo_dropped
        self.quarantines += other.quarantines
        self.relocks += other.relocks
        self.offered += other.offered
        self.shed += other.shed
        self.stolen += other.stolen
        self.failed_over += other.failed_over
        self.failovers += other.failovers
        self.unfinished += other.unfinished
        for model_id, count in other.per_model_served.items():
            self.per_model_served[model_id] = (
                self.per_model_served.get(model_id, 0) + count
            )
        for core, state in other.core_health.items():
            self.core_health[core + core_offset] = state
        self._latencies.merge(other._latencies)
        self.energy.merge(other.energy)

    def summary(self) -> dict[str, float | int]:
        """A dashboard-style snapshot."""
        out: dict[str, float | int] = {
            "served": self.served,
            "dropped": self.dropped,
            "failed": self.failed,
            "retries": self.retries,
            "slo_dropped": self.slo_dropped,
            "quarantines": self.quarantines,
            "relocks": self.relocks,
        }
        if len(self._latencies):
            p50, p95, p99, p999 = self._latencies.percentiles(
                [50, 95, 99, 99.9]
            )
            out["p50_us"] = p50 * 1e6
            out["p95_us"] = p95 * 1e6
            out["p99_us"] = p99 * 1e6
            out["p999_us"] = p999 * 1e6
            out["mean_us"] = self.mean_latency_s * 1e6
        out.update(self.energy.summary())
        return out
