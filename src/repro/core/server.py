"""An inference-serving runtime on top of the smartNIC.

The paper benchmarks against Nvidia Triton servers; this module is the
Lightning-side counterpart a deployment would actually run: a serving
loop wrapping :class:`~repro.core.smartnic.LightningSmartNIC` with
model management, warm-up, and the latency/throughput statistics an
operator monitors (p50/p95/p99 serve time, per-model request counts,
drop/punt accounting).
"""

from __future__ import annotations

import numpy as np

from ..net.packet import InferenceRequest, build_inference_frame
from ..net.parser import Fate
from .dag import ComputationDAG
from .smartnic import LightningSmartNIC, PuntedPacket, ServedRequest
from .stats import ServerStats

__all__ = ["ServerStats", "InferenceServer"]


class InferenceServer:
    """A serving loop over the smartNIC with operator-grade accounting."""

    def __init__(self, nic: LightningSmartNIC | None = None) -> None:
        self.nic = nic if nic is not None else LightningSmartNIC()
        self.stats = ServerStats()
        self._next_request_id = 0

    # ------------------------------------------------------------------
    # Model management
    # ------------------------------------------------------------------
    def deploy(
        self,
        dag: ComputationDAG,
        header_data: bool = False,
        warmup: int = 1,
    ) -> None:
        """Register a model and optionally warm its pipeline.

        Warm-up serves a few zero queries so the first live request does
        not pay one-time costs (sign-separation caching, kernel loads).
        """
        self.nic.register_model(dag, header_data=header_data)
        for _ in range(max(warmup, 0)):
            zeros = np.zeros(dag.tasks[0].input_size, dtype=np.uint8)
            self.nic.datapath.execute(dag.model_id, zeros.astype(float))

    @property
    def deployed_models(self) -> tuple[int, ...]:
        return self.nic.model_ids

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def submit(
        self, model_id: int, data_levels: np.ndarray, **frame_kwargs
    ) -> ServedRequest:
        """Build, serve, and account one inference query.

        Raises ``KeyError`` for unknown models — callers submitting to a
        serving API get loud failures, unlike anonymous wire traffic.
        """
        if model_id not in self.deployed_models:
            raise KeyError(f"model {model_id} is not deployed")
        request = InferenceRequest(
            model_id=model_id,
            request_id=self._next_request_id,
            data=np.asarray(data_levels).astype(np.uint8),
        )
        self._next_request_id += 1
        frame = build_inference_frame(request, **frame_kwargs)
        outcome = self.nic.handle_frame(frame)
        assert isinstance(outcome, ServedRequest)
        self.stats.record(model_id, outcome.end_to_end_seconds)
        return outcome

    def handle_wire_frame(
        self, raw: bytes, now_s: float | None = None
    ) -> ServedRequest | PuntedPacket | None:
        """Serve one raw wire frame and book its fate.

        Returns ``None`` for the frames an operator counts as errors — a
        runt, a query for an undeployed model or of the wrong length —
        mirroring how a NIC silently drops them.
        """
        outcome = self.nic.handle_frame(raw, now_s=now_s)
        if isinstance(outcome, ServedRequest):
            self.stats.record(
                outcome.response.model_id, outcome.end_to_end_seconds
            )
        elif outcome.fate.punted:
            self.stats.punted += 1
        elif outcome.fate is Fate.IDS_DROP:
            self.stats.dropped += 1
        else:
            self.stats.errors += 1
            return None
        return outcome

    def serve_batch(
        self, model_id: int, batch_levels: np.ndarray
    ) -> np.ndarray:
        """Serve a batch through the datapath's broadcast path.

        Returns per-query predictions; batch serving bypasses packet
        framing (it is the PCIe/local-host path of §6.1).
        """
        if model_id not in self.deployed_models:
            raise KeyError(f"model {model_id} is not deployed")
        result = self.nic.datapath.execute_batch(model_id, batch_levels)
        per_query = result.total_seconds / result.batch
        for _ in range(result.batch):
            self.stats.record(model_id, per_query)
        return result.predictions
