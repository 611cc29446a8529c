"""Per-model SLO classes and deadline/energy-aware grading.

One latency bar for a whole zoo misgrades everyone: LeNet-class
models answer in microseconds while GPT-2-class stragglers need
milliseconds, so a single fleet-wide deadline either sheds every
large-model request as hopeless or lets small-model latency rot
unnoticed.  An :class:`SLOBook` maps each model id to an
:class:`SLOClass` with its own deadline — and, optionally, its own
**energy budget** (joules per inference, the paper's headline axis) —
which the open-loop gateway uses three ways:

* **Deadline-aware shedding** — at admission time the gateway knows
  each shard's projected queue wait; a request whose projected finish
  already blows its class deadline is shed at the NIC (charged to
  ``shed``), before it wastes a queue slot it cannot convert into
  goodput.
* **Energy-aware shedding** — with an
  :class:`~repro.core.energy.EnergyModel`, the gateway prices each
  request's projected serve (service time at accelerator power plus
  projected wait at DRAM power) and sheds requests whose class energy
  budget is already blown, so a congested fleet stops burning joules
  on requests it would rather not serve.
* **Per-class grading** — :meth:`SLOBook.grade` scores a
  :class:`~repro.fabric.fabric.FabricResult` per class, so a GPT-2
  straggler is judged on the GPT-2 curve and a LeNet request on the
  LeNet curve; given an energy model it additionally grades each
  class's completions against its energy budget, and
  :meth:`SLOBook.goodput` counts only completions that met *their
  own* deadline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.energy import EnergyModel
from ..fabric.fabric import FabricResult

__all__ = ["SLOClass", "SLOReport", "SLOBook"]


@dataclass(frozen=True)
class SLOClass:
    """One service class: a name, a serve-time deadline, and an
    optional per-inference energy budget (``None`` = unbudgeted)."""

    name: str
    deadline_s: float
    #: Joules a single inference of this class may cost before it
    #: stops counting as energy-compliant (and, at the gateway,
    #: before it is shed rather than served).
    energy_budget_j: float | None = None

    def __post_init__(self) -> None:
        if self.deadline_s <= 0:
            raise ValueError("an SLO deadline must be positive")
        if self.energy_budget_j is not None and self.energy_budget_j <= 0:
            raise ValueError("an SLO energy budget must be positive")


@dataclass(frozen=True)
class SLOReport:
    """One class's scorecard over one serve."""

    slo_class: SLOClass
    served: int
    met: int
    #: Completions inside the class's energy budget; ``None`` when the
    #: serve was not energy-graded (no energy model supplied).
    energy_met: int | None = None

    @property
    def attainment(self) -> float:
        """Fraction of this class's completions inside its deadline
        (1.0 for a class that saw no traffic — nothing was violated)."""
        if self.served == 0:
            return 1.0
        return self.met / self.served

    @property
    def energy_attainment(self) -> float | None:
        """Fraction of completions inside the class's energy budget.

        1.0 for an unbudgeted class or one that saw no traffic;
        ``None`` when the serve was not energy-graded."""
        if self.slo_class.energy_budget_j is None or self.served == 0:
            return 1.0
        if self.energy_met is None:
            return None
        return self.energy_met / self.served


class SLOBook:
    """Model-id → :class:`SLOClass` assignments for one fleet."""

    def __init__(self) -> None:
        self._classes: dict[str, SLOClass] = {}
        self._assignments: dict[int, str] = {}

    def assign(self, model_id: int, slo_class: SLOClass) -> None:
        """Put one model into one class (re-assignment allowed; the
        class is interned by name, so two classes sharing a name must
        share a deadline and energy budget)."""
        existing = self._classes.get(slo_class.name)
        if existing is not None and existing != slo_class:
            raise ValueError(
                f"SLO class {slo_class.name!r} is already defined "
                f"with deadline {existing.deadline_s} and energy "
                f"budget {existing.energy_budget_j}, not "
                f"({slo_class.deadline_s}, {slo_class.energy_budget_j})"
            )
        self._classes[slo_class.name] = slo_class
        self._assignments[model_id] = slo_class.name

    def class_of(self, model_id: int) -> SLOClass | None:
        """The model's class, or ``None`` for unclassified models."""
        name = self._assignments.get(model_id)
        return self._classes[name] if name is not None else None

    def deadline_for(self, model_id: int) -> float | None:
        """The model's serve-time deadline, or ``None`` (no SLO)."""
        slo_class = self.class_of(model_id)
        return slo_class.deadline_s if slo_class is not None else None

    def energy_budget_for(self, model_id: int) -> float | None:
        """The model's per-inference energy budget, or ``None``."""
        slo_class = self.class_of(model_id)
        return (
            slo_class.energy_budget_j if slo_class is not None else None
        )

    def grade(
        self,
        result: FabricResult,
        energy_model: EnergyModel | None = None,
    ) -> dict[str, SLOReport]:
        """Score one serve per class (unclassified rows skipped).

        A served row is graded against the class of its *public* model
        id — version aliases map back through the serving fabric before
        grading, so callers grading a versioned serve should assign
        classes by public id only.  With an ``energy_model``, each
        row's t_q/t_d/t_c is priced through the shared three-source
        formula and graded against its class's energy budget.
        """
        served = result.outcomes.served()
        serve_s = served.serve_s
        joules = None if energy_model is None else energy_model.energy(
            datapath_s=served.t_d, queuing_s=served.t_q, compute_s=served.t_c
        )
        reports = {}
        for name, slo_class in self._classes.items():
            rows = np.isin(served.model, [
                model for model, named in self._assignments.items()
                if named == name
            ])
            budget = slo_class.energy_budget_j or np.inf  # None: unbudgeted
            reports[name] = SLOReport(
                slo_class=slo_class,
                served=int(np.count_nonzero(rows)),
                met=int(np.count_nonzero(
                    serve_s[rows] <= slo_class.deadline_s
                )),
                energy_met=(
                    None if joules is None
                    else int(np.count_nonzero(joules[rows] <= budget))
                ),
            )
        return reports

    def goodput(self, result: FabricResult) -> float:
        """Deadline-respecting completions over everything offered.

        Unclassified rows count as good (no deadline to miss);
        classified rows count only inside their own deadline.
        """
        if result.offered <= 0:
            raise ValueError("nothing was offered")
        late = sum(r.served - r.met for r in self.grade(result).values())
        return (result.served - late) / result.offered
