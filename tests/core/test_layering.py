"""``repro.core`` sits below the serving stack and never reaches up.

The datapath serves any core that speaks the ``BehavioralCore``
interface; which wrapper (if any) degrades it is the fault layer's
business.  So importing ``repro.core`` and serving a request must load
nothing from the layers built on top of it.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

import repro

UPPER_LAYERS = ("faults", "runtime", "fabric", "traffic")

#: ``repro/__init__.py`` re-exports every layer, so the probe mounts the
#: package as a bare namespace and imports ``repro.core`` on its own.
PROBE = """
import sys, types
package = types.ModuleType("repro")
package.__path__ = [{path!r}]
sys.modules["repro"] = package

import numpy as np
import repro.core
from repro.core import ComputationDAG, LayerTask, LightningDatapath

weights = np.arange(-6, 6, dtype=float).reshape(3, 4) * 30.0
dag = ComputationDAG(1, "probe", [
    LayerTask(name="fc", kind="dense", input_size=4, output_size=3,
              weights_levels=weights),
])
datapath = LightningDatapath()
datapath.register_model(dag)
execution = datapath.execute(1, np.array([0.0, 64.0, 128.0, 255.0]))
assert len(execution.layers) == 1
datapath.execute_batch_timing(1, 2)
print("\\n".join(sorted(m for m in sys.modules if m.startswith("repro."))))
"""


def test_serving_a_request_loads_no_layer_above_the_core():
    path = str(pathlib.Path(repro.__file__).parent)
    result = subprocess.run(
        [sys.executable, "-c", PROBE.format(path=path)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    loaded = result.stdout.split()
    assert "repro.core.datapath" in loaded
    reached = [
        module for module in loaded
        if module.split(".")[1] in UPPER_LAYERS
    ]
    assert reached == []
