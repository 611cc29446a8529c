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
    assert counter_bumps("punted") == {("net/ingress.py", "counters")}


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
# Process pool: a deploy rides the worker's pipe, no segment carries it
# ----------------------------------------------------------------------
SEGMENT_MODULES = ("shared_memory", "resource_tracker")


def imported_names(node) -> list[str]:
    """Dotted names an import binds (``from a import b`` gives
    ``a.b``); empty for any other node."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [f"{node.module or ''}.{alias.name}" for alias in node.names]
    return []


def test_no_module_under_src_reaches_shared_memory():
    assert matches(
        lambda n: any(
            part in SEGMENT_MODULES
            for name in imported_names(n)
            for part in name.split(".")
        )
        or isinstance(n, ast.Attribute) and n.attr in SEGMENT_MODULES
    ) == []


def test_no_module_under_src_imports_scipy():
    """numpy is the package's only dependency: every contraction,
    the per-readout block's included, is numpy's."""
    assert matches(
        lambda n: any(
            name.split(".")[0] == "scipy" for name in imported_names(n)
        )
    ) == []


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
    assert not [name for name in called if "Record" in name]
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
    # The serve results' shared base, and the ledger that sums many
    # tables' counts (the fleet engine's, one table per landing block).
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


# ----------------------------------------------------------------------
# The §9 simulator writes the same table and shares the one record view
# ----------------------------------------------------------------------
def test_one_record_class_and_the_simulator_builds_none():
    defined = sorted(
        (name, node.name)
        for name, tree in parsed_modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and node.name in {"ServedRecord", "RuntimeRecord"}
    )
    assert defined == [("core/stats.py", "ServedRecord")]
    simulator = class_named("sim/simulator.py", "EventDrivenSimulator")
    run = next(
        node for node in simulator.body
        if isinstance(node, ast.FunctionDef) and node.name == "run"
    )
    called = {
        ast.unparse(node.func)
        for node in ast.walk(run)
        if isinstance(node, ast.Call)
    }
    assert "ServedRecord" not in called
    read = {
        node.id
        for node in ast.walk(run)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert "keep_records" not in read


def test_simulation_result_queries_have_one_path():
    """No query forks on which half of the result it got: nothing tests
    ``self.summary is None`` or the truth value of ``self.records``."""
    from repro.core.stats import Tallied
    from repro.sim import SimulationResult

    assert issubclass(SimulationResult, Tallied)
    result = class_named("sim/simulator.py", "SimulationResult")
    tested = []
    for node in ast.walk(result):
        if isinstance(node, (ast.If, ast.IfExp, ast.While, ast.Assert)):
            tested.append(node.test)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            tested.append(node.operand)
        elif isinstance(node, ast.BoolOp):
            tested.extend(node.values)
        elif isinstance(node, ast.Compare) and isinstance(
            node.comparators[0], ast.Constant
        ) and node.comparators[0].value is None:
            tested.append(node.left)
    assert "self.records" not in map(ast.unparse, tested)
    assert "self.summary" not in map(ast.unparse, tested)


# ----------------------------------------------------------------------
# The fleet engine writes the same table and keeps no fate counters
# ----------------------------------------------------------------------
def function_named(tree: ast.AST, name: str) -> ast.FunctionDef:
    return next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


def test_the_fleet_engine_counts_by_reducing_rows():
    tree = ast.parse((SRC / "traffic" / "fleet.py").read_text())
    counts = {*FATES, "offered", "stolen", "slo_served"}
    assigned = [
        ast.unparse(target)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AugAssign))
        for target in (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        if isinstance(target, ast.Attribute) and target.attr in counts
    ]
    assert assigned == []
    named = {
        name
        for node in ast.walk(tree)
        if isinstance(node, ast.Nonlocal)
        for name in node.names
    }
    # The loop handles completions inline: no closure keeps its state,
    # so none can keep a count either.
    assert named == set()
    sources = "".join(path.read_text() for path in sorted(SRC.rglob("*.py")))
    assert "base_energy" not in sources


def test_fold_and_the_fleet_add_counts_through_one_method():
    def calls(function) -> set[str]:
        return {
            ast.unparse(node.func)
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
        }

    stats = class_named("core/stats.py", "ServerStats")
    fleet = ast.parse((SRC / "traffic" / "fleet.py").read_text())
    assert "self.add_counts" in calls(function_named(stats, "fold"))
    assert "stats.add_counts" in calls(function_named(fleet, "serve_open_loop"))
    tallied = [
        method.name
        for method in stats.body
        if isinstance(method, ast.FunctionDef)
        and "outcomes.tally" in calls(method)
    ]
    assert tallied == ["add_counts"]


# ----------------------------------------------------------------------
# Keyed streams: one idiom for readout noise, one for traffic
# ----------------------------------------------------------------------
KEYED = {"MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64", "SeedSequence"}


def builds_a_keyed_stream(node) -> bool:
    """A ``SeedSequence`` or a bit generator is constructed here."""
    return (
        isinstance(node, ast.Call)
        and ast.unparse(node.func).split(".")[-1] in KEYED
    )


def test_keyed_bit_generators_are_built_in_two_places():
    """A second keyed-noise idiom would draw different numbers for the
    same key in two places, and serial and parallel serving would part
    silently; so every ``SeedSequence`` and every bit generator under
    ``src/`` is built in exactly these two functions."""
    built = sorted(
        (name, function.name, ast.unparse(node.func).split(".")[-1])
        for name, tree in parsed_modules()
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if builds_a_keyed_stream(node)
    )
    assert built == [
        # Readout noise: the tape, reseed_noise, watchdog and re-lock probes.
        ("photonics/core.py", "noise_stream", "SFC64"),
        ("photonics/core.py", "noise_stream", "SeedSequence"),
        # Traffic, admission and fault schedules: the virtual clock.
        ("traffic/arrivals.py", "substream", "Philox"),
        ("traffic/arrivals.py", "substream", "SeedSequence"),
    ]
    # And none outside a function (a module or class attribute).
    assert sorted(matches(builds_a_keyed_stream)) == [
        name for name, _, _ in built
    ]
