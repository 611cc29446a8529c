"""``repro.core`` sits below the serving stack and never reaches up.

The datapath serves any core that speaks the ``BehavioralCore``
interface; which wrapper (if any) degrades it is the fault layer's
business.  So importing ``repro.core`` and serving a request must load
nothing from the layers built on top of it.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import inspect
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


# ----------------------------------------------------------------------
# NIC ingress: one module decides a frame's fate and moves its counters
# ----------------------------------------------------------------------
SRC = pathlib.Path(repro.__file__).parent


@functools.cache
def parsed_modules(root: pathlib.Path = SRC):
    return tuple(
        (path.relative_to(SRC).as_posix(), ast.parse(path.read_text()))
        for path in sorted(root.rglob("*.py"))
    )


def test_no_function_level_import_under_faults():
    nested = [
        (name, node.lineno)
        for name, tree in parsed_modules(SRC / "faults")
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


def test_ingress_imports_nothing_from_the_layers_it_serves():
    tree = ast.parse((SRC / "net" / "ingress.py").read_text())
    imported = [
        node.module or ""
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    ] + [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    ]
    assert imported  # the walk found the module's imports at all
    for module in imported:
        assert not set(module.split(".")) & {*UPPER_LAYERS}, module


def counter_bumps(field: str) -> set[tuple[str, str]]:
    """``(module, target)`` of every ``<target>.<field> +=`` under
    ``src/`` outside a ``merge`` method."""

    def bumps(node, inside_merge=False):
        if isinstance(node, ast.FunctionDef):
            inside_merge = inside_merge or node.name == "merge"
        if (
            isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Attribute)
            and node.target.attr == field
            and not inside_merge
        ):
            yield ast.unparse(node.target.value)
        for child in ast.iter_child_nodes(node):
            yield from bumps(child, inside_merge)

    return {
        (name, target)
        for name, tree in parsed_modules()
        for target in bumps(tree)
    }


def test_one_module_moves_frames_seen_and_punted():
    assert counter_bumps("frames_seen") == {("net/ingress.py", "counters")}
    # InferenceServer keeps a ServerStats view, filled from the fate
    # ingress returned; no other NICCounters.punted moves anywhere.
    assert counter_bumps("punted") == {
        ("net/ingress.py", "counters"),
        ("core/server.py", "self.stats"),
    }
    server = (SRC / "core" / "server.py").read_text()
    assert "except" not in server and ".reason" not in server


def test_each_wire_format_check_is_written_once():
    sources = "".join(
        path.read_text() for path in sorted(SRC.rglob("*.py"))
    )
    for message in (
        "IPv4 header checksum mismatch",
        "malformed UDP length",
        "not a Lightning inference request",
        "truncated Ethernet frame",
    ):
        assert sources.count(message) == 1, message
    processing = (SRC / "net" / "processing.py").read_text()
    assert ".unpack(" not in processing  # it takes the parsed headers


# ----------------------------------------------------------------------
# Fabric serve: one routing step, one capacity proxy, one shard pass
# ----------------------------------------------------------------------
def matches(predicate) -> list[str]:
    """Module of every AST node under ``src/`` the predicate accepts."""
    return [
        name
        for name, tree in parsed_modules()
        for node in ast.walk(tree)
        if predicate(node)
    ]


def attribute_chain(node, *names: str) -> bool:
    """True for ``<anything>.names[0].names[1]...``."""
    for name in reversed(names):
        if not (isinstance(node, ast.Attribute) and node.attr == name):
            return False
        node = node.value
    return True


def test_shard_views_and_the_capacity_proxy_are_built_in_one_place():
    assert matches(
        lambda n: isinstance(n, ast.Call)
        and ast.unparse(n.func).split(".")[-1] == "ShardView"
    ) == ["fabric/fabric.py"]
    proxy_reads = [
        name
        for name in matches(
            lambda n: attribute_chain(n, "architecture", "macs_per_step")
        )
        if not name.startswith(("photonics/", "synthesis/"))
    ]
    assert proxy_reads == ["runtime/cluster.py"]
    sources = "".join(
        path.read_text() for path in sorted(SRC.rglob("*.py"))
    )
    assert sources.count("router returned shard") == 1


def test_the_gateway_reaches_no_datapath():
    reaches = [
        name
        for name in matches(
            lambda n: isinstance(n, ast.Subscript)
            and attribute_chain(n.value, "datapaths")
        )
        if name.startswith("traffic/")
    ]
    assert reaches == []


def test_fabric_and_gateway_functions_stay_short():
    """No function over 70 lines, its docstring not counted."""
    for name in ("fabric/fabric.py", "traffic/gateway.py"):
        tree = ast.parse((SRC / name).read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            lines = node.end_lineno - node.lineno + 1
            if ast.get_docstring(node) is not None:
                docstring = node.body[0]
                lines -= docstring.end_lineno - docstring.lineno + 1
            assert lines <= 70, (name, node.name, lines)


# ----------------------------------------------------------------------
# Serve results: one outcomes table, every count a reduction over it
# ----------------------------------------------------------------------
FATES = ("served", "dropped", "failed", "unfinished", "shed", "failed_over")


def test_no_serve_result_exposes_a_tuple_of_requests_per_fate(tiny_dag):
    import numpy as np

    from repro.core.stats import Tallied
    from repro.fabric import Fabric, FabricResult, ShardSpec
    from repro.runtime import ClusterResult, RuntimeRequest

    fabric = Fabric([ShardSpec(num_cores=1, queue_capacity=1)])
    fabric.deploy(tiny_dag)
    levels = np.zeros(tiny_dag.tasks[0].input_size)
    result = fabric.serve_trace(
        [RuntimeRequest(i, tiny_dag.model_id, 0.0, levels) for i in range(4)]
    )
    (shard,) = result.shard_results
    assert (shard.served, shard.dropped) == (2, 2)
    for each, fates in ((shard, FATES[:4]), (result, FATES)):
        for fate in fates + ("offered",):
            assert type(getattr(each, fate)) is int, fate
    assert not hasattr(shard, "shed")
    for cls in (ClusterResult, FabricResult):
        assert issubclass(cls, Tallied)
        assert "__post_init__" not in vars(cls)
        assert {f.name for f in dataclasses.fields(cls)} & {
            *FATES, "offered", "stolen", "failovers", "records",
        } == set()


def class_named(module: str, name: str) -> ast.ClassDef:
    tree = ast.parse((SRC / module).read_text())
    return next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == name
    )


def test_the_serve_loop_writes_rows_not_records_or_counters():
    run = class_named("runtime/cluster.py", "_ServeRun")
    called = [
        ast.unparse(node.func)
        for node in ast.walk(run)
        if isinstance(node, ast.Call)
    ]
    assert not [name for name in called if "RuntimeRecord" in name]
    tree = ast.parse((SRC / "runtime" / "cluster.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not imported & {"dataclasses", "replace"}
    # Fate counters move once per serve — the fold, or the raise path
    # charging requests that never got a row — never per event.
    bumped = {
        method.name
        for method in run.body
        if isinstance(method, ast.FunctionDef)
        for node in ast.walk(method)
        if isinstance(node, ast.AugAssign)
        and isinstance(node.target, ast.Attribute)
        and node.target.attr in {*FATES, "offered", "slo_dropped"}
    }
    assert bumped <= {"run", "fold"}


def test_serve_routed_takes_rows_not_counts():
    from repro.fabric import Fabric

    parameters = inspect.signature(Fabric.serve_routed).parameters
    assert "upstream" in parameters
    assert not set(parameters) & {
        "offered", "shed", "stolen", "failed_over", "failovers",
    }
    assert "_upstream_offered" not in (SRC / "fabric" / "fabric.py").read_text()


def test_check_accounting_runs_once_per_result_class():
    callers = sorted(
        (name, cls.name)
        for name, tree in parsed_modules()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in ast.walk(cls)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "check_accounting"
    )
    # The serve results' shared base, and the counter-only ledger the
    # fleet engine keeps.
    assert callers == [
        ("core/stats.py", "ServerStats"), ("core/stats.py", "Tallied"),
    ]
    uncalled = [
        name
        for name, tree in parsed_modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "check_accounting"
        and name != "core/stats.py"
    ]
    assert uncalled == []
