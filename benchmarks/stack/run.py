"""The stack benchmark: four workloads through every layer, one ledger.

Two ways in, one code path:

* **One workload** (what the benchmark driver runs)::

      python3 benchmarks/stack/run.py --workload stack_compute \\
          --seed 0 --seconds 15 --trace 0

  serves rounds until ``--seconds`` of timed serve wall have passed (at
  least the workload's ``sim_rounds``), checks the outputs, prints every
  end-to-end metric by name with its unit, and ends with one JSON line
  (``correct``, ``attempted``, ``failed``, ``metrics``).  ``--trace 1``
  instead makes the traced pass and prints every per-layer metric.
  Either exits non-zero when a check failed.

* **The whole suite**::

      python3 benchmarks/stack/run.py --seed 0 --out benchmarks/stack/out

  runs each workload in its own subprocess, one at a time — untraced,
  then traced — cross-checks ``stack_parallel``'s digest against
  ``stack_compute``'s, writes ``results.json`` and ``spans.json``
  (Chrome trace events, opens in Perfetto) and exits non-zero if any
  check failed.

Host metrics are wall/CPU seconds of the emulator; ``sim_*`` metrics are
on the virtual clock, deterministic under the seed and pooled over the
first ``sim_rounds`` rounds only, so they do not depend on host speed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import numpy as np  # noqa: E402

import host  # noqa: E402
from spans import NO_TRACE, SpanRecorder, chrome_trace, rollup  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Cold builds behind ``setup_s``: this many blocks, each at least this
#: much build time (so millisecond set-ups get a steady median too) and
#: each scaled by the host burns on either side of it.
SETUP_BLOCKS = 9
SETUP_BLOCK_SECONDS = 0.05
LEDGER_TOLERANCE = 0.05


def _serve_round(
    workload, stack, round_id, tracer=NO_TRACE, burn_before=None
):
    """One round: generate (untimed), serve (timed between two host
    burns), account (untimed).  ``burn_before`` reuses the previous
    round's closing burn (rounds run back to back)."""
    inputs = workload.inputs(stack, round_id, tracer)
    tracer.round = round_id
    if burn_before is None:
        burn_before = host.burn_ms()
    cpu = host.cpu_seconds()
    start = time.perf_counter()
    served = tracer.call("bench.serve", workload.serve, stack, inputs, tracer)
    wall = time.perf_counter() - start
    cpu = host.cpu_seconds() - cpu
    burn_after = host.burn_ms()
    return {
        "result": workload.account(stack, inputs, served),
        "wall_s": wall,
        "cpu_s": cpu,
        # (wall, cpu) ms of the burns bracketing the serve, averaged.
        "burn_ms": tuple(
            (a + b) / 2.0 for a, b in zip(burn_before, burn_after)
        ),
        "burn_after": burn_after,
    }


def _setup_seconds(workload) -> tuple[float, int]:
    """Median cold build at the reference host speed, and how many
    builds it rests on.  One pair of burns around all the builds would
    put a single burn's own noise straight into the metric, so every
    block of builds has its own pair and the median is over blocks."""
    blocks = []
    builds = 0
    burn = host.burn_ms()[0]
    for _ in range(SETUP_BLOCKS):
        samples = []
        while sum(samples) < SETUP_BLOCK_SECONDS:
            start = time.perf_counter()
            stack = workload.build()
            samples.append(time.perf_counter() - start)
            workload.close(stack)
        burn_after = host.burn_ms()[0]
        blocks.append(
            statistics.median(samples) * host.BURN_REFERENCE_MS
            / ((burn + burn_after) / 2.0)
        )
        burn = burn_after
        builds += len(samples)
    return statistics.median(blocks), builds


def run_untraced(workload, seconds: float) -> dict:
    """The end-to-end pass: tracing off, medians over timed rounds."""
    setup_s, setup_builds = _setup_seconds(workload)
    stack = workload.build()
    rounds = []
    timed = 0.0
    burn = None
    try:
        workload.warm_up(stack)
        while len(rounds) < workload.sim_rounds or timed < seconds:
            if workload.fresh_stack_per_round and rounds:
                workload.close(stack)
                stack = workload.build()
            rounds.append(_serve_round(
                workload, stack, len(rounds), burn_before=burn
            ))
            burn = rounds[-1]["burn_after"]
            timed += rounds[-1]["wall_s"]
            if len(rounds) > workload.sim_rounds:
                # Only the sim rounds feed sim_* and pred_agreement; a
                # later round keeps its counts, so peak_rss_mb does not
                # grow with the number of rounds a host fits.
                extra = rounds[-1]["result"]
                extra.latencies = extra.reservoir = None
                extra.sample = []
        agreement = workload.agreement([
            pair for entry in rounds for pair in entry["result"].sample
        ])
    finally:
        workload.close(stack)

    results = [entry["result"] for entry in rounds]
    sim = results[: workload.sim_rounds]
    if sim[0].reservoir is not None:
        pooled = type(sim[0].reservoir)()
        for result in sim:
            pooled.merge(result.reservoir)
        p50, p99 = pooled.percentiles([50, 99])
        samples = pooled.count
    else:
        latencies = np.concatenate([result.latencies for result in sim])
        p50, p99 = np.percentile(latencies, [50, 99])
        samples = len(latencies)
    offered = sum(result.offered for result in results)
    served = sum(result.served for result in results)
    wrong = sum(result.wrong for result in results)
    if served <= 0:
        wrong += offered
    reference = host.BURN_REFERENCE_MS
    metrics = {
        # Host metrics at the reference host speed: each round's wall
        # (CPU) is scaled by reference / the wall (CPU) of the burns
        # that bracket it, then the median over rounds is taken.
        "host_rps": statistics.median(
            entry["result"].offered
            / (entry["wall_s"] * reference / entry["burn_ms"][0])
            for entry in rounds
        ),
        "host_cpu_us_per_req": statistics.median(
            entry["cpu_s"] * reference / entry["burn_ms"][1] * 1e6
            / entry["result"].offered
            for entry in rounds
        ),
        "setup_s": setup_s,
        "peak_rss_mb": host.peak_rss_mb(),
        "sim_p50_us": float(p50) * 1e6,
        "sim_p99_us": float(p99) * 1e6,
        "sim_goodput": (
            sum(r.good for r in sim) / sum(r.goodput_offered for r in sim)
        ),
        "sim_energy_mj_per_inf": (
            sum(r.energy_j for r in sim) * 1e3
            / sum(r.energy_served for r in sim)
        ),
        "pred_agreement": agreement,
    }
    digests = [result.digest for result in sim]
    burns = [entry["burn_ms"][0] for entry in rounds]
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "correct": wrong == 0,
        "attempted": offered,
        "failed": wrong,
        "metrics": metrics,
        "offered": offered,
        "served": served,
        "missed": offered - served,
        "rounds": len(rounds),
        "sim_rounds": workload.sim_rounds,
        "sim_samples": samples,
        "requests_per_round": results[0].offered,
        "timed_wall_s": timed,
        "raw_rps": statistics.median(
            entry["result"].offered / entry["wall_s"] for entry in rounds
        ),
        "setup_builds": setup_builds,
        "round_digests": digests,
        "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "fates": {
            key: sum(r.counters.get(key, 0) for r in sim)
            for key in (
                "offered", "served", "dropped", "failed", "unfinished",
                "shed", "failed_over", "stolen", "failovers", "punted",
            )
            if any(key in r.counters for r in sim)
        },
        "burn_ms": [min(burns), statistics.median(burns), max(burns)],
        "disturbed": host.disturbed(burns[0], burns[-1]),
    }


def _stats_replay_us(requests: int) -> float:
    """Host cost of the fleet engine's per-request accounting, measured
    by replaying it standalone: ``StreamedSummary.observe`` and
    ``EnergyLedger.charge`` cost ~1 us each, far below what a span
    wrapper can resolve inside a 100k-request serve."""
    from repro.core.stats import EnergyLedger
    from repro.sim.simulator import StreamedSummary

    summary, ledger = StreamedSummary(), EnergyLedger()
    start = time.perf_counter()
    for index in range(requests):
        summary.observe("model", 1e-6, 2e-6, 3e-6, index * 1e-6)
        ledger.charge("model", 1e-3)
    return (time.perf_counter() - start) * 1e6 / requests


def run_traced(workload, out_dir: pathlib.Path | None) -> dict:
    """The per-layer pass: one untraced and one traced round 0, each on
    a fresh stack, so the two walls differ by the tracing overhead."""
    import layers
    from workloads import make

    stack = workload.build()
    try:
        workload.warm_up(stack)
        plain = _serve_round(workload, stack, 0)
    finally:
        workload.close(stack)

    builder = SpanRecorder(workload.name)
    with builder:
        layers.wrap_setup(builder)
        stack = workload.build(builder)
    recorder = SpanRecorder(workload.name)
    try:
        workload.warm_up(stack)
        before = workload.hardware_counters(stack)
        worker_cpu = host.children_cpu_seconds()
        with recorder:
            fabric = stack.get("fabric")
            layers.wrap_serving(
                recorder, fabric.router if fabric is not None else None
            )
            traced_round = _serve_round(workload, stack, 0, recorder)
        worker_cpu = host.children_cpu_seconds() - worker_cpu
        after = workload.hardware_counters(stack)
    finally:
        workload.close(stack)

    plain_burn = plain["burn_ms"][0]
    plain_wall, plain = plain["wall_s"], plain["result"]
    traced_wall, traced = traced_round["wall_s"], traced_round["result"]
    burn = traced_round["burn_ms"][0]
    wrong = plain.wrong + traced.wrong
    ledger = rollup(recorder.spans, root="bench.serve")
    # The root span belongs to the benchmark, not to a layer: its self
    # time is serve wall that no layer span covers.  Leaving it out is
    # what makes the sum a check rather than an identity.
    del ledger["bench.serve"]
    ledger_share = sum(row["self_s"] for row in ledger.values()) / traced_wall
    if abs(ledger_share - 1.0) > LEDGER_TOLERANCE:
        wrong += 1
    if not workload.has_datapath and any(
        name.split(".")[0] in ("core", "photonics", "runtime")
        for name in ledger
    ):
        wrong += 1

    extra = {
        "serve_wall_s": traced_wall,
        "host.burn_ms": burn,
        "host.parallel_capacity": host.parallel_capacity(),
        # Both walls at the reference host speed: the two rounds run
        # seconds apart, and the host drifts more than tracing costs.
        "trace.overhead_share": (
            (traced_wall / burn) / (plain_wall / plain_burn) - 1.0
        ),
        "trace.ledger_share": ledger_share,
        "runtime.parallel.worker_cpu_us_per_req": (
            worker_cpu * 1e6 / traced.offered
        ),
    }
    if workload.serial_twin is not None:
        # The serial twin serves the same round from the same state:
        # its wall gives the ratio, its digest the bit-identity check.
        twin = make(workload.serial_twin, workload.seed, workload.scale)
        twin_stack = twin.build()
        try:
            twin.warm_up(twin_stack)
            serial = _serve_round(twin, twin_stack, 0)
        finally:
            twin.close(twin_stack)
        extra["runtime.parallel.wall_ratio_vs_serial"] = (
            serial["wall_s"] / plain_wall
        )
        if serial["result"].digest != plain.digest:
            wrong += traced.offered
    if not workload.has_datapath:
        extra["core.stats.record_us_per_req"] = _stats_replay_us(
            min(traced.counters["fleet_offered"], 100_000)
        )
    counters = dict(traced.counters)
    counters.update({
        key: after[key] - before[key] for key in after
    })
    everything = rollup(recorder.spans)
    metrics = layers.per_layer_metrics(
        everything, rollup(builder.spans), counters, extra
    )
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        events = chrome_trace(builder) + chrome_trace(recorder)
        (out_dir / f"spans.{workload.name}.json").write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
        )
    shares = {
        name: row["self_s"] / traced_wall
        for name, row in sorted(ledger.items())
    }
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "correct": wrong == 0,
        "attempted": plain.offered + traced.offered,
        "failed": wrong,
        "metrics": metrics,
        "spans": len(recorder.spans),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": plain_wall,
        "ledger_wall_share": shares,
        "burn_ms": burn,
        "disturbed": host.disturbed(plain_burn, burn),
    }


def _print_report(report: dict, units: dict[str, str]) -> None:
    name = report["workload"]
    note = "  ** disturbed: host burn moved >10% **" if report[
        "disturbed"] else ""
    print(f"== {name} seed={report['seed']}{note}")
    for metric, value in report["metrics"].items():
        print(f"{name}.{metric} = {value:.6g} {units[metric]}")
    for key in (
        "offered", "served", "missed", "rounds", "sim_rounds",
        "sim_samples", "requests_per_round", "raw_rps", "fates", "digest",
        "spans", "ledger_wall_share", "burn_ms",
    ):
        if key in report:
            print(f"{name}.{key} = {report[key]}")
    if not report["correct"]:
        print(f"{name}: CHECK FAILED ({report['failed']} wrong)")
    if "sim_samples" in report:
        print(
            f"{name}: open loop on the virtual clock (arrivals fixed "
            "before the serve, generator lateness 0 by construction); "
            f"sim percentiles over n={report['sim_samples']}"
        )


def contract_line(report: dict, units: dict[str, str]) -> str:
    """The driver's last line: exactly four keys."""
    return json.dumps({
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in report["metrics"].items()
        },
    })


def run_one(args) -> int:
    from workloads import make

    workload = make(args.workload, args.seed, args.scale)
    out_dir = pathlib.Path(args.out) if args.out else None
    if args.trace:
        report = run_traced(workload, out_dir)
        units = PER_LAYER_UNITS
    else:
        report = run_untraced(workload, args.seconds)
        units = END_TO_END_UNITS
    missing = set(units) - set(report["metrics"])
    if missing:
        raise SystemExit(f"metrics not measured: {sorted(missing)}")
    _print_report(report, units)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{workload.name}.trace{args.trace}.json"
        path.write_text(json.dumps(report, indent=1))
    print(contract_line(report, units))
    return 0 if report["correct"] else 1


def run_suite(args) -> int:
    """Every workload, untraced then traced, one subprocess at a time."""
    from workloads import WORKLOADS

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results: dict[str, dict] = {}
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--scale", str(args.scale), "--out", str(out_dir),
            ]
            done = subprocess.run(command, timeout=900)
            if done.returncode != 0:
                # A failed check or a crash; the run said which above.
                print(f"{name} --trace {trace} exited {done.returncode}")
                ok = False
                continue
            results.setdefault(name, {})[
                "per_layer" if trace else "end_to_end"
            ] = json.loads(
                (out_dir / f"{name}.trace{trace}.json").read_text()
            )
    for name, workload_class in WORKLOADS.items():
        twin = workload_class.serial_twin
        ours = results.get(name, {}).get("end_to_end")
        theirs = results.get(twin, {}).get("end_to_end")
        if twin and ours and theirs:
            same = ours["round_digests"] == theirs["round_digests"]
            print(f"{name}.digest == {twin}.digest: {same}")
            ok = ok and same
    events = []
    for pid, name in enumerate(WORKLOAD_NAMES, start=1):
        path = out_dir / f"spans.{name}.json"
        if path.exists():
            for event in json.loads(path.read_text())["traceEvents"]:
                event["pid"] = pid
                events.append(event)
    (out_dir / "spans.json").write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
    )
    (out_dir / "results.json").write_text(json.dumps({
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "workloads": results,
    }, indent=1))
    print(f"results: {out_dir / 'results.json'}  "
          f"spans: {out_dir / 'spans.json'}  ok={ok}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(SPEC["run_seconds"]),
        help="timed serve wall per workload (0: just the sim rounds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiplies every per-round request count",
    )
    parser.add_argument("--out", help="directory for result/span files")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args)
    if not args.out:
        args.out = str(HERE / "out")
    return run_suite(args)


if __name__ == "__main__":
    # Every path out of the command — result, failed check, exception
    # or SIGTERM — ends with no process of ours alive.
    host.exit_on_sigterm()
    try:
        code = main()
    finally:
        host.reap_children()
    sys.exit(code)
