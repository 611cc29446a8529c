"""Collect result sets of the stack benchmark and compare two of them.

A *result set* is a JSON-lines file: one line per run, the benchmark's
contract line plus ``workload``, ``seed`` and ``digest``.

Collect one (every workload of ``BENCHMARK.json``, its ``run_seconds``,
end-to-end metrics)::

    python3 benchmarks/stack/compare.py collect --out parent.jsonl \\
        --seeds 0-9 [--checkout /path/to/other/checkout]

Compare two (``base`` is the parent commit, ``new`` the change)::

    python3 benchmarks/stack/compare.py diff parent.jsonl change.jsonl

``diff`` pairs the runs of the two sets **by (workload, seed)** — the
k-th run of a seed on one side with the k-th on the other — and prints
one row per (workload, end-to-end metric): both medians, their ratio
(new over base), the median and the spread (distance between the
quartiles) of the per-pair change, the bound and a verdict:

``ok``          the median pair is not worse than the bound;
``worse``       it is;
``unresolved``  the pairs' own spread exceeds the bound, so their
                median cannot settle it — unless every pair reads
                better (then ``ok``).

At an equal seed the inputs are identical, so the ``sim_*`` metrics and
``pred_agreement`` of unchanged code pair to a change of exactly 0 and
only the host's noise is left in the host metrics; the bounds here
(:data:`PAIRED_BOUND`) are therefore tighter than ``BENCHMARK.json``'s,
which have to cover a median over *different* seeds.

``diff`` exits non-zero when a row is not ``ok``, when a run of the new
set is incorrect, or when the new set failed more operations than the
base.  It also says whether every digest and every ``sim_*`` value is
bit-identical at equal (workload, seed), which a host-speed change must
keep.  For a parent-versus-change claim collect at least ten seeds per
side, alternating which side runs first (``collect`` appends, and
``--checkout`` runs another checkout's benchmark).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: How much worse a metric may read than its parent *at an equal seed*.
PAIRED_BOUND = {
    "host_rps": 0.10,
    "host_cpu_us_per_req": 0.08,
    "setup_s": 0.15,
    "peak_rss_mb": 0.05,
    "sim_p50_us": 0.005,
    "sim_p99_us": 0.005,
    "sim_goodput": 0.005,
    "sim_energy_mj_per_inf": 0.005,
    "pred_agreement": 0.01,
}


def load_spec(root: pathlib.Path = ROOT) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    """``"0-9"`` or ``"1,5,7"`` or a mix."""
    seeds: list[int] = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def collect(args) -> int:
    checkout = pathlib.Path(args.checkout).resolve()
    spec = load_spec(checkout)
    incorrect = 0
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for name in (w["name"] for w in spec["workloads"]):
                command = spec["command"] + [
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0",
                ]
                done = subprocess.run(
                    command, cwd=checkout, capture_output=True, text=True,
                    timeout=900,
                )
                printed = done.stdout.strip().splitlines()
                if not printed or not printed[-1].startswith('{"correct"'):
                    sys.stderr.write(done.stderr)
                    print(f"{name} seed {seed}: exit {done.returncode}, "
                          "no result line")
                    return 1
                line = json.loads(printed[-1])
                prefix = f"{name}.digest = "
                line.update(workload=name, seed=seed, digest=next(
                    row[len(prefix):] for row in printed
                    if row.startswith(prefix)
                ))
                out.write(json.dumps(line) + "\n")
                out.flush()
                incorrect += not line["correct"]
                print(f"{name} seed {seed}: correct={line['correct']} "
                      f"failed={line['failed']}")
    return 1 if incorrect else 0


def read_set(path: str) -> dict[tuple[str, int], list[dict]]:
    """``(workload, seed) -> its runs, in file order``."""
    table: dict[tuple[str, int], list[dict]] = {}
    for raw in pathlib.Path(path).read_text().splitlines():
        if raw.strip():
            line = json.loads(raw)
            table.setdefault((line["workload"], line["seed"]), []).append(line)
    return table


def verdict(changes: list[float], bound: float) -> tuple[str, float, float]:
    """``(ok | worse | unresolved, median, quartile distance)`` of the
    per-pair changes (shares of the base value, positive = worse)."""
    median = statistics.median(changes)
    spread = 0.0
    if len(changes) >= 2:
        quartiles = statistics.quantiles(changes, n=4)
        spread = quartiles[2] - quartiles[0]
    if spread > bound and not all(change < 0 for change in changes):
        return "unresolved", median, spread
    return ("worse" if median > bound else "ok"), median, spread


def diff(args) -> int:
    spec = load_spec()
    base_set, new_set = read_set(args.base), read_set(args.new)
    pairs = {
        key: list(zip(base_set[key], new_set[key]))
        for key in base_set if key in new_set
    }
    if not pairs:
        print("the two sets share no (workload, seed)")
        return 1
    print(
        f"{'workload':<15}{'metric':<23}{'base median':>13}"
        f"{'new median':>13}{'new/base':>10}{'pairs':>6}"
        f"{'change':>9}{'spread':>8}{'bound':>7}  verdict"
    )
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [
            pair for key, both in pairs.items() if key[0] == workload
            for pair in both
        ]
        if not runs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sign = -1.0 if metric["better"] == "higher" else 1.0
            base = [b["metrics"][name]["value"] for b, _ in runs]
            new = [n["metrics"][name]["value"] for _, n in runs]
            outcome, change, spread = verdict(
                [sign * (n - b) / abs(b) for b, n in zip(base, new)],
                PAIRED_BOUND[name],
            )
            bad += outcome != "ok"
            base_median = statistics.median(base)
            new_median = statistics.median(new)
            print(
                f"{workload:<15}{name:<23}{base_median:>13.6g}"
                f"{new_median:>13.6g}{new_median / base_median:>10.4f}"
                f"{len(runs):>6}{change:>+9.4f}{spread:>8.4f}"
                f"{PAIRED_BOUND[name]:>7.3f}  {outcome}"
            )
    everything = [pair for both in pairs.values() for pair in both]
    moved = sorted({
        (b["workload"], b["seed"]) for b, n in everything
        if b["digest"] != n["digest"] or any(
            b["metrics"][name] != n["metrics"][name]
            for name in b["metrics"] if name.startswith("sim_")
        )
    })
    if moved:
        print(f"digest or sim_* differ at {len(moved)} (workload, seed): "
              f"{moved[:6]} ...")
    else:
        print("every digest and sim_* value is bit-identical at every "
              "shared (workload, seed)")
    incorrect = sum(not n["correct"] for _, n in everything)
    failed_base = sum(b["failed"] for b, _ in everything)
    failed_new = sum(n["failed"] for _, n in everything)
    print(f"incorrect runs in new: {incorrect}; failed operations: "
          f"base {failed_base}, new {failed_new}")
    return 1 if bad or incorrect or failed_new > failed_base else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    gather = commands.add_parser("collect", help="run and append a result set")
    gather.add_argument("--out", required=True)
    gather.add_argument("--seeds", default="0-9")
    gather.add_argument("--checkout", default=str(ROOT))
    gather.set_defaults(run=collect)
    compare = commands.add_parser("diff", help="compare two result sets")
    compare.add_argument("base")
    compare.add_argument("new")
    compare.set_defaults(run=diff)
    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
