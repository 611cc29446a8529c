#!/usr/bin/env python3
"""In-network traffic analysis on the Lightning smartNIC (§6.3).

The paper's motivating networking workloads: a security model detecting
anomalous flows (UNSW-NB15-style) and an IoT device classifier, both
taking their features straight from *packet headers* — the parser, not
the payload, supplies the query data.  Both models run live on one NIC,
with the DAG configuration loader switching the count-action datapath
between them packet by packet.

Run:  python examples/traffic_classification.py
"""

from __future__ import annotations

import numpy as np

from repro.core import LightningDatapath, LightningSmartNIC
from repro.dnn import (
    quantize_mlp,
    synthetic_flows,
    synthetic_iot_traces,
    train_mlp,
)
from repro.net import InferenceRequest, build_inference_frame

SECURITY_ID, IOT_ID = 1, 2
NUM_PACKETS = 200


def feature_packet(model_id: int, request_id: int,
                   features: np.ndarray) -> bytes:
    """Encode a flow's features into the header fields the parser reads.

    The 16 header features are src/dst IP octets, port bytes, protocol,
    TTL, and length bytes; here the synthetic flow features are placed
    into those fields so the parser extracts exactly them.
    """
    f = np.round(features).astype(int)
    src_ip = ".".join(str(v) for v in f[0:4])
    dst_ip = ".".join(str(v) for v in f[4:8])
    src_port = (int(f[8]) << 8) | int(f[9])
    return build_inference_frame(
        InferenceRequest(model_id, request_id, np.zeros(0, dtype=np.uint8)),
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=max(src_port, 1),
    )


def parser_view(dataset):
    """What the NIC's parser will actually extract for these flows.

    The first ten header features carry the flow's signature (IP octets
    and source-port bytes); the rest are fixed by the encoding: the
    Lightning destination port (4055), UDP protocol 17, TTL 64, and the
    36-byte IP total length of an empty inference request.
    """
    from repro.dnn import Dataset

    informative = np.round(dataset.x[:, :10])
    informative[:, 8] = np.maximum(informative[:, 8], 0)
    constants = np.tile(
        np.array([4055 >> 8, 4055 & 0xFF, 17, 64, 0, 36], dtype=float),
        (len(dataset.x), 1),
    )
    return Dataset(
        x=np.concatenate([informative, constants], axis=1),
        y=dataset.y,
        num_classes=dataset.num_classes,
        name=dataset.name + "-parsed",
    )


def main() -> None:
    print("== Training the two traffic-analysis models ==")
    sec_train, sec_test = synthetic_flows(2400, seed=1).split()
    iot_train, iot_test = synthetic_iot_traces(2400, seed=2).split()
    # Train on the parser's view of each flow — the features the NIC
    # will really extract from the headers at serve time.
    sec_train_view = parser_view(sec_train)
    iot_train_view = parser_view(iot_train)
    security = train_mlp(
        [16, 48, 16, 2], sec_train_view, epochs=15, use_bias=False,
        name="security",
    ).model
    iot = train_mlp(
        [16, 32, 32, 5], iot_train_view, epochs=15, use_bias=False,
        name="iot",
    ).model
    print(f"  security: {security.parameter_count} parameters "
          "(paper: 1,568)")
    print(f"  iot     : {iot.parameter_count} parameters (paper: 1,696)")

    nic = LightningSmartNIC(datapath=LightningDatapath())
    nic.register_model(
        quantize_mlp(security, sec_train_view.x[:256], SECURITY_ID),
        header_data=True,
    )
    nic.register_model(
        quantize_mlp(iot, iot_train_view.x[:256], IOT_ID),
        header_data=True,
    )

    print(f"\n== Serving {NUM_PACKETS} interleaved inference packets ==")
    stats = {SECURITY_ID: [0, 0, 0.0], IOT_ID: [0, 0, 0.0]}
    for i in range(NUM_PACKETS):
        if i % 2 == 0:
            model_id, x, y = SECURITY_ID, sec_test.x[i // 2], sec_test.y[i // 2]
        else:
            model_id, x, y = IOT_ID, iot_test.x[i // 2], iot_test.y[i // 2]
        served = nic.handle_frame(feature_packet(model_id, i, x))
        stats[model_id][0] += served.response.prediction == y
        stats[model_id][1] += 1
        stats[model_id][2] += served.end_to_end_seconds

    for model_id, name in ((SECURITY_ID, "security"), (IOT_ID, "iot")):
        correct, total, seconds = stats[model_id]
        print(
            f"  {name:9s}: accuracy {correct / total:6.1%}  "
            f"mean end-to-end {seconds / total * 1e6:6.2f} us  "
            "(paper: ~1 us scale on the prototype)"
        )
    print(f"\n  datapath reconfigurations (DAG loads): "
          f"{nic.datapath.loader.loads}")
    print(f"  inference packets served: {nic.counters.served} "
          f"of {nic.counters.frames_seen} frames")


if __name__ == "__main__":
    main()
