"""One iteration of the cdgacalc benchmark, run in a fresh process.

Reads a JSON spec on stdin and prints one JSON object on stdout.  A fresh
process per iteration means the slice caches and the peak resident set
belong to this iteration alone.

Spec keys: ``workload``, ``seed``, ``tiny``, ``harvest`` and ``keys``.

* ``keys`` null: the untraced path.  Per job, build the model (summed
  into ``setup_s``), then auto-verify and compute the answers (summed into
  ``solve_s``), exactly as ``cdgacalc`` does.  Reference chunks timed
  between these steps give ``ref_s``, the machine's speed during the
  iteration (``reference.py``).  With ``harvest`` the result also
  carries the slice keys each model's caches ended up holding, which a
  traced iteration replays.
* ``keys`` given: the traced path.  Build every model, then call each
  layer's public function bottom-up over those keys.  Each stage finds
  the layers below it already cached, so a stage's wall time is that
  layer's self time; it is divided by the reference speed as above.
  Spans (layer, workload, job, start, end) are kept in memory and
  returned with the result.

Outputs are checked after the timed region in both paths.
"""

from __future__ import annotations

import inspect
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import cdgacalc  # noqa: E402
from cdgacalc import analysis  # noqa: E402
from cdgacalc.analysis import (all_permutations, character_euler,  # noqa: E402
                               invariant_cohomology, isotypic_cohomology,
                               sign_character, trivial_character,
                               weightwise_euler)
from cdgacalc.engine import (cohomology, differential_matrix,  # noqa: E402
                             differential_rank, ideal_slice, quotient_slice,
                             verify_d_squared)
from cdgacalc.models import (build_base, parse_ample_class,  # noqa: E402
                             parse_space, section_model)
from cdgacalc.rat import Rational  # noqa: E402

from reference import ReferenceClock  # noqa: E402
from workloads import Job, jobs as make_jobs  # noqa: E402

LAYERS = ("models.build", "algebra.monomials", "engine.ideal",
          "engine.quotient", "engine.diff", "linalg.rank", "engine.verify",
          "engine.cohomology", "analysis.isotypic")
MAX_MESSAGES = 10
# Single-threaded either way: ``threads`` is passed only while
# ``cohomology`` still takes it.
THREADS = ({"threads": 1}
           if "threads" in inspect.signature(cohomology).parameters else {})


class Tally:
    """Checked outputs and failures; a job that raised counts as one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(message)

    def attempt(self, job: Job, fn, *args):
        """Run one step of a job; record a raised exception as a failure."""
        try:
            return fn(*args)
        except Exception:
            self.expect(False, f"{job.label}: {traceback.format_exc(limit=4)}")
            return None


def build(job: Job):
    base = build_base(parse_space(job.space))
    return section_model(base, parse_ample_class(base, job.c), job.r)


def answers(job: Job, p, counter=None) -> dict:
    """The tables ``cdgacalc cohomology`` or ``cdgacalc invariants`` print."""
    if job.kind == "cohomology":
        return {"cohomology": cohomology(p, job.max_degree, by_weight=True,
                                         **THREADS)}
    group = all_permutations(job.r)
    tables = {}
    for name, character in (("trivial", None),
                            ("sign", sign_character(job.r))):
        if counter is not None:
            counter.begin()
        if character is None:
            tables[name] = invariant_cohomology(p, group, job.max_degree)
        else:
            tables[name] = isotypic_cohomology(p, group, character,
                                               job.max_degree)
        if counter is not None:
            counter.end()
    return tables


def solve(job: Job, p):
    report = verify_d_squared(p, max(0, job.max_degree - 1))
    return report, answers(job, p)


def reference_euler(job: Job, p, answer: str):
    if answer == "cohomology":
        return weightwise_euler(p, job.max_degree)
    character = (trivial_character(job.r) if answer == "trivial"
                 else sign_character(job.r))
    return character_euler(p, character, job.max_degree)


def check(tally: Tally, job: Job, p, report, tables: dict) -> None:
    """Golden dims, auto-verify and weightwise Euler characteristics."""
    tally.expect(report.ok, f"{job.label}: {report.message()}")
    for answer, table in tables.items():
        golden = job.golden(answer)
        for i in range(job.max_degree + 1):
            tally.expect(table.dim(i) == golden[i],
                         f"{job.label} {answer}: H^{i} = {table.dim(i)}, "
                         f"expected {golden[i]}")
        euler = reference_euler(job, p, answer)
        for k in range(job.max_degree + 1):
            got = sum((-1) ** i * table.dim(i, k) for i in range(k + 1))
            tally.expect(got == euler.coefficient(k),
                         f"{job.label} {answer}: Euler characteristic at "
                         f"weight {k} is {got}, reference "
                         f"{euler.coefficient(k)}")


def slice_count(job: Job, p) -> int:
    """(degree, weight) slices in one answer table, times the answers."""
    ctx = p.context
    per_table = sum(
        len({ctx.monomial_weight(m) for m in ctx.monomials_of(d)})
        for d in range(job.max_degree + 1))
    return per_table * len(job.answers)


def harvest_keys(p) -> dict:
    """Slice keys the untraced path left in the model's two caches.

    The caches are private; a cache that is gone or keyed differently
    yields no keys, and its layer's time then shows in the stage above.
    """
    monomials = getattr(p.context, "_mono_cache", {})
    engine = getattr(p, "_cache", {})
    return {"monomials": [list(k) for k in monomials
                          if isinstance(k, tuple) and len(k) == 2],
            "engine": [list(k) for k in engine
                       if isinstance(k, tuple) and len(k) == 3]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    return {"backend": f"{Rational.__module__}.{Rational.__qualname__}",
            "python": platform.python_version(),
            "nproc": os.cpu_count()}


def run_plain(job_list: list[Job], harvest: bool) -> dict:
    """Per job: build, then auto-verify and answer, as ``cdgacalc`` does.

    Reference chunks run between the steps, outside the timed regions,
    and each step's time is divided by the machine's speed around it
    (``reference.py``); ``raw`` keeps the undivided times.
    """
    tally = Tally()
    raw = dict.fromkeys(("setup_s", "solve_s"), 0.0)
    scaled = dict(raw)
    clock = ReferenceClock()

    def step(metric: str, job: Job, fn, *args):
        start = time.perf_counter()
        value = tally.attempt(job, fn, *args)
        seconds = time.perf_counter() - start
        raw[metric] += seconds
        scaled[metric] += clock.scale(seconds)
        return value

    models, results = [], []
    for job in job_list:
        p = step("setup_s", job, build, job)
        models.append(p)
        results.append(step("solve_s", job, solve, job, p)
                       if p is not None else None)
    rss = peak_rss_mb()
    slices = 0
    for job, p, res in zip(job_list, models, results):
        if res is not None:
            tally.attempt(job, check, tally, job, p, *res)
            slices += slice_count(job, p)
    keys = ([harvest_keys(p) if p is not None else None for p in models]
            if harvest else None)
    raw["wall_s"] = raw["setup_s"] + raw["solve_s"]
    scaled["wall_s"] = scaled["setup_s"] + scaled["solve_s"]
    return {**scaled, "raw": raw,
            "peak_rss_mb": rss, "slices": slices, "keys": keys,
            "attempted": tally.attempted, "failed": tally.failed,
            "messages": tally.messages}


class ProjectorCounter:
    """Counts the slices whose group-averaging projector analysis builds.

    Installed in place of ``analysis.map_matrix`` while the traced stages
    run; it forwards every call unchanged and counts only between
    ``begin`` and ``end``, which bracket one isotypic computation.
    """

    def __init__(self, inner):
        self.inner = inner
        self.total = 0
        self._seen = None

    def begin(self) -> None:
        self._seen = set()

    def end(self) -> None:
        self.total += len(self._seen)
        self._seen = None

    def __call__(self, p, phi, degree, weight=None):
        if self._seen is not None:
            self._seen.add((degree, weight))
        return self.inner(p, phi, degree, weight)


class Stager:
    """Times each layer stage of a traced iteration as one span.

    As in the untraced path, a stage's time in ``seconds`` is divided by
    the machine's speed around it.  Spans keep the undivided start and
    end.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.clock = ReferenceClock()
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.seconds = dict.fromkeys(LAYERS, 0.0)

    def stage(self, layer: str, job: Job, fn, *args):
        start = time.perf_counter()
        value = fn(*args)
        end = time.perf_counter()
        self.seconds[layer] += self.clock.scale(end - start)
        self.spans.append({"layer": layer, "workload": self.workload,
                           "job": job.label, "start": start - self.origin,
                           "end": end - self.origin})
        return value


def _by_layer(engine_keys) -> dict:
    out: dict[str, list] = {}
    for name, degree, weight in engine_keys:
        out.setdefault(name, []).append((degree, weight))
    return out


def replay(st: Stager, counts: dict, counter: ProjectorCounter, job: Job,
           p, keys: dict):
    """Call every layer of one job bottom-up over the harvested keys."""
    ctx = p.context
    engine = _by_layer(keys["engine"])
    mons = st.stage("algebra.monomials", job, lambda: [
        ctx.monomials_of(d, w) for d, w in keys["monomials"]])
    ideals = st.stage("engine.ideal", job, lambda: [
        ideal_slice(p, d, w) for d, w in engine.get("ideal", ())])
    slices = st.stage("engine.quotient", job, lambda: [
        quotient_slice(p, d, w) for d, w in engine.get("slice", ())])
    diffs = st.stage("engine.diff", job, lambda: [
        differential_matrix(p, d, w) for d, w in engine.get("diff", ())])
    ranks = st.stage("linalg.rank", job, lambda: [
        differential_rank(p, d, w) for d, w in engine.get("rank", ())])
    report = st.stage("engine.verify", job, verify_d_squared, p,
                      max(0, job.max_degree - 1))
    if job.kind == "cohomology":
        tables = st.stage("engine.cohomology", job, answers, job, p)
    else:
        tables = st.stage("analysis.isotypic", job, answers, job, p, counter)

    counts["models.base_dim"] += ctx.base.dim
    counts["algebra.monomials"] += sum(len(m) for m in mons)
    counts["engine.ideal_rows"] += sum(m.nrows for m in ideals)
    counts["engine.quotient_dim"] += sum(s.dim for s in slices)
    counts["engine.diff_nnz"] += sum(m.nnz() for m in diffs)
    for (d, w), rk in zip(engine.get("rank", ()), ranks):
        src = quotient_slice(p, d, w).dim
        tgt = quotient_slice(p, d + 1, w).dim
        if src and tgt:
            counts["linalg.rank_matrices"] += 1
            counts["linalg.full_rank"] += rk == min(src, tgt)
    counts["engine.verify_slices"] += report.slices_checked
    return report, tables


def run_staged(workload: str, job_list: list[Job], keys: list) -> dict:
    tally = Tally()
    st = Stager(workload)
    counts = dict.fromkeys(
        ("models.base_dim", "algebra.monomials", "engine.ideal_rows",
         "engine.quotient_dim", "engine.diff_nnz", "linalg.rank_matrices",
         "linalg.full_rank", "engine.verify_slices"), 0)
    models = [tally.attempt(job, st.stage, "models.build", job, build, job)
              for job in job_list]
    counter = ProjectorCounter(getattr(analysis, "map_matrix", None))
    if counter.inner is not None:
        analysis.map_matrix = counter
    try:
        results = [tally.attempt(job, replay, st, counts, counter, job, p, k)
                   if p is not None and k is not None else None
                   for job, p, k in zip(job_list, models, keys)]
    finally:
        if counter.inner is not None:
            analysis.map_matrix = counter.inner
    for job, p, res in zip(job_list, models, results):
        if res is not None:
            tally.attempt(job, check, tally, job, p, *res)
    counts["analysis.projector_slices"] = counter.total
    return {"layers": st.seconds, "counts": counts, "spans": st.spans,
            "attempted": tally.attempted, "failed": tally.failed,
            "messages": tally.messages}


def main() -> int:
    package = Path(cdgacalc.__file__).resolve().parent
    if package != ROOT / "src" / "cdgacalc":
        print(f"cdgacalc imported from {package}, not from this checkout",
              file=sys.stderr)
        return 2
    spec = json.load(sys.stdin)
    job_list = make_jobs(spec["workload"], spec["seed"], spec["tiny"])
    if spec["keys"] is None:
        result = run_plain(job_list, spec["harvest"])
    else:
        result = run_staged(spec["workload"], job_list, spec["keys"])
    result["env"] = environment()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
