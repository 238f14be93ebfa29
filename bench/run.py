"""Benchmark of cdgacalc: exact bigraded cohomology, end to end and by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload table1 --seed 1 --seconds 35 --trace 0

Workloads are ``table1``, ``many-points`` and ``symmetric``; their job
lists are in ``workloads.py`` and the reasons for them in ``README.md``.

Each iteration runs in a fresh child process (``child.py``) on one
thread with ``CDGACALC_THREADS`` cleared.  Iterations repeat until
``--seconds`` have passed (at least two).  Each metric's value is its
median over the iterations; the summary lines also give the lowest
value, the quartiles and the iteration count.

``--trace 0`` reports the end-to-end metrics ``setup_s``, ``solve_s``,
``wall_s`` and ``peak_rss_mb``.  A shared machine runs the same code up
to 2x slower while other tenants are busy, so each timed step is divided
by the speed factor of reference chunks timed just before and after it
(``reference.py``): the times are seconds at the reference speed.  The
summary lines give the undivided (``raw.``) medians too.

``--trace 1`` alternates an untraced iteration with a traced one and
reports per-layer self times (divided in the same way) and counts, plus
``trace.overhead_s``: the median over iterations of the traced staged
total minus the ``wall_s`` of the untraced iteration before it.  Spans
are written to ``bench/out/``.

Every output is checked outside the timed region; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
(checked outputs and failed ones, so ``failed / attempted`` is the
wrong fraction) and ``metrics``.  The exit code is 0 when every check
passed, 1 when one failed and 2 when the checkout holds no cdgacalc.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, command_lines  # noqa: E402

END_TO_END = {"setup_s": "s", "solve_s": "s", "wall_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "models.build_s": "s", "models.base_dim": "count",
    "algebra.monomials_s": "s", "algebra.monomials": "count",
    "engine.ideal_s": "s", "engine.ideal_rows": "count",
    "engine.quotient_s": "s", "engine.quotient_dim": "count",
    "engine.diff_s": "s", "engine.diff_nnz": "count",
    "linalg.rank_s": "s", "linalg.rank_matrices": "count",
    "linalg.full_rank_frac": "ratio",
    "engine.verify_s": "s", "engine.verify_slices": "count",
    "engine.cohomology_s": "s",
    "analysis.isotypic_s": "s", "analysis.projector_slices": "count",
    "trace.overhead_s": "s",
}
MIN_ITERATIONS = 2
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, tiny: bool, keys=None,
              harvest: bool = False) -> dict:
    """One iteration in a fresh process; its stdout is one JSON object."""
    env = dict(os.environ)
    env.pop("CDGACALC_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    spec = {"workload": workload, "seed": seed, "tiny": tiny,
            "harvest": harvest, "keys": keys}
    proc = subprocess.run([sys.executable, str(HERE / "child.py")],
                          input=json.dumps(spec), capture_output=True,
                          text=True, env=env, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def summarize(values: list[float]) -> dict:
    """Median, lowest value, quartiles and count of one metric."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"min": min(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "n": len(values)}


def per_layer_values(staged: dict, plain: dict) -> dict:
    counts = staged["counts"]
    values = {f"{layer}_s": t for layer, t in staged["layers"].items()}
    values.update((name, counts[name]) for name in PER_LAYER
                  if name in counts)
    ranked = counts["linalg.rank_matrices"]
    values["linalg.full_rank_frac"] = (counts["linalg.full_rank"] / ranked
                                       if ranked else 0.0)
    values["staged_s"] = sum(staged["layers"].values())
    values["wall_s"], values["solve_s"] = plain["wall_s"], plain["solve_s"]
    values["trace.overhead_s"] = values["staged_s"] - values["wall_s"]
    return values


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    """Run iterations for ``seconds``; return metrics and their spread."""
    samples: dict[str, list[float]] = {}
    attempted = failed = 0
    messages: list[str] = []
    envs = set()
    slices = 0
    spans: list[dict] = []
    keys = None
    start = time.perf_counter()
    iteration = 0
    while iteration < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        try:
            plain = run_child(workload, seed, tiny,
                              harvest=trace and keys is None)
            done = [plain]
            if trace:
                keys = keys or plain["keys"]
                staged = run_child(workload, seed, tiny, keys)
                done.append(staged)
        except (ChildFailed, subprocess.TimeoutExpired, ValueError) as err:
            attempted += 1
            failed += 1
            messages.append(f"iteration {iteration}: {err}")
            break
        for result in done:
            attempted += result["attempted"]
            failed += result["failed"]
            messages.extend(result["messages"])
            envs.add(json.dumps(result["env"], sort_keys=True))
        slices = plain["slices"]
        if trace:
            values = per_layer_values(staged, plain)
            spans.extend(dict(span, iteration=iteration)
                         for span in staged["spans"])
        else:
            values = {name: plain[name] for name in END_TO_END}
            values.update((f"raw.{name}", t)
                          for name, t in plain["raw"].items())
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
        iteration += 1
    if len(envs) > 1:
        attempted += 1
        failed += 1
        messages.append(f"iterations ran on different backends: {envs}")
    units = PER_LAYER if trace else END_TO_END
    stats = {name: summarize(samples[name]) for name in units
             if name in samples}
    extra = {name: summarize(samples[name]) for name in samples
             if name not in units}
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": failed == 0 and bool(samples),
        "attempted": max(attempted, 1), "failed": failed,
        "metrics": {name: {"value": stats[name]["median"],
                           "unit": units[name]} for name in stats},
        "stats": stats, "extra": extra, "slices": slices,
        "messages": messages,
        "env": json.loads(envs.pop()) if len(envs) == 1 else None,
        "spans": spans,
    }


def write_spans(result: dict) -> Path:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{result['workload']}-seed{result['seed']}.json"
    path.write_text(json.dumps(result["spans"]))
    return path


def summary_lines(result: dict) -> list[str]:
    lines = [f"# workload {result['workload']} seed {result['seed']} "
             f"trace {int(result['trace'])} env {result['env']}"]
    lines += [f"#   {line}" for line in
              command_lines(result["workload"], result["seed"])]
    rows = [(name, s, result["metrics"][name]["unit"])
            for name, s in result["stats"].items()]
    rows += [(name, s, "") for name, s in result["extra"].items()]
    for name, s, unit in rows:
        lines.append(f"# {name:28s} median {s['median']:.6g} {unit} "
                     f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, "
                     f"min {s['min']:.6g}, n={s['n']})")
    lines.append(f"# slices solved per iteration: {result['slices']}")
    lines.append(f"# wrong_frac {result['failed'] / result['attempted']:.6g} "
                 f"({result['failed']} of {result['attempted']} outputs)")
    lines += [f"# FAILED: {m}" for m in result["messages"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cdgacalc" / "__init__.py").is_file():
        print(f"bench: no cdgacalc sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    if result["spans"]:
        print(f"# spans written to {write_spans(result)}")
    print("\n".join(summary_lines(result)))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
