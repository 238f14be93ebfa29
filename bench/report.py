"""Every metric of every workload in one table, optionally against a baseline.

    python3 bench/report.py [--seed 1] [--seconds 35] [--out FILE]
                            [--baseline bench/baseline_seed.json]

Runs each workload untraced (end-to-end metrics) and traced (per-layer
metrics) through ``run.measure`` and prints each metric by name and unit:
its value (the median over iterations), quartiles, lowest value and
iteration count.  From the traced run alone, it also prints the share
of its untraced iterations' ``wall_s`` that the staged layer times add
up to, and the isolation ratios each workload is meant to show.

``--out`` writes the numbers as JSON; ``--baseline`` compares values
with such a file against the bounds in ``BENCHMARK.json`` and refuses to
compare (exit 2) when the two ran on different scalar backends.  The exit
code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import PER_LAYER, ROOT, measure  # noqa: E402
from workloads import WORKLOADS, command_lines  # noqa: E402

LAYER_TIMES = [name for name, unit in PER_LAYER.items()
               if unit == "s" and name != "trace.overhead_s"]
# (label, numerator metrics, denominator metric); each workload's claim is
# in bench/README.md.
ISOLATION = (
    ("models.build_s / wall_s", ("models.build_s",), "wall_s"),
    ("(engine.diff_s + linalg.rank_s) / solve_s",
     ("engine.diff_s", "linalg.rank_s"), "solve_s"),
    ("analysis.isotypic_s / solve_s", ("analysis.isotypic_s",), "solve_s"),
)


def median(stats: dict, name: str) -> float:
    return stats[name]["median"]


def workload_record(untraced: dict, traced: dict) -> dict:
    layers = {**traced["stats"], **traced["extra"]}
    staged = sum(median(layers, name) for name in LAYER_TIMES)
    return {
        "commands": command_lines(untraced["workload"], untraced["seed"]),
        "units": {**{k: v["unit"] for k, v in untraced["metrics"].items()},
                  **{k: v["unit"] for k, v in traced["metrics"].items()}},
        "end_to_end": untraced["stats"], "per_layer": traced["stats"],
        "slices": untraced["slices"],
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "messages": untraced["messages"] + traced["messages"],
        "staged_over_wall": staged / median(layers, "wall_s"),
        "isolation": {
            label: sum(median(layers, n) for n in num) / median(layers, den)
            for label, num, den in ISOLATION},
    }


def print_record(name: str, rec: dict) -> None:
    print(f"== {name}")
    for line in rec["commands"]:
        print(f"   {line}")
    for group in ("end_to_end", "per_layer"):
        for metric, s in rec[group].items():
            print(f"   {metric:28s} {s['median']:12.6g} "
                  f"{rec['units'][metric]:6s} q1 {s['q1']:.6g}"
                  f"  q3 {s['q3']:.6g}  min {s['min']:.6g}  n={s['n']}")
    print(f"   {'wrong_frac':28s} {rec['failed'] / rec['attempted']:12.6g} "
          f"({rec['failed']} of {rec['attempted']} outputs)")
    print(f"   slices solved per iteration: {rec['slices']}")
    print(f"   staged layer times / untraced wall_s: "
          f"{rec['staged_over_wall']:.3f}")
    for label, value in rec["isolation"].items():
        print(f"   {label}: {value:.3f}")
    for message in rec["messages"]:
        print(f"   FAILED: {message}")


def compare(report: dict, baseline: dict) -> int:
    if report["env"]["backend"] != baseline["env"]["backend"]:
        print(f"refusing to compare: backend {report['env']['backend']} "
              f"against baseline backend {baseline['env']['backend']}")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"== against baseline (env {baseline['env']})")
    for name, rec in report["workloads"].items():
        old = baseline["workloads"].get(name)
        if old is None:
            continue
        for metric, bound in bounds.items():
            new_m = median(rec["end_to_end"], metric)
            old_m = median(old["end_to_end"], metric)
            change = new_m / old_m - 1
            verdict = "WORSE" if change > bound else "ok"
            print(f"   {name:12s} {metric:12s} {old_m:10.5g} -> {new_m:10.5g}"
                  f"  {change:+.1%} (bound {bound:.0%}) {verdict}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)
    report = {"seed": args.seed, "seconds": args.seconds, "env": None,
              "workloads": {}}
    for name in WORKLOADS:
        untraced = measure(name, args.seed, args.seconds, trace=False)
        traced = measure(name, args.seed, args.seconds, trace=True)
        if not (untraced["stats"] and traced["stats"]):
            print(f"== {name}: no iteration finished")
            for message in untraced["messages"] + traced["messages"]:
                print(f"   FAILED: {message}")
            return 1
        report["env"] = untraced["env"]
        rec = workload_record(untraced, traced)
        report["workloads"][name] = rec
        print_record(name, rec)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    status = 0
    if args.baseline:
        status = compare(report, json.loads(args.baseline.read_text()))
    if any(rec["failed"] for rec in report["workloads"].values()):
        status = status or 1
    return status


if __name__ == "__main__":
    sys.exit(main())
