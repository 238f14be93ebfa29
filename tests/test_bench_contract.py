"""The library surface the benchmark calls, run on its tiny job lists.

``bench/child.py`` calls ``cohomology(..., by_weight=True)``,
``invariant_cohomology``, ``isotypic_cohomology``, ``character_euler``,
``weightwise_euler``, ``verify_d_squared`` and ``ctx.monomials_of``,
and checks every answer against golden dimensions and Euler
characteristics.  Running its untraced path on every workload here means
an API change that breaks the benchmark fails the suite.  Its traced
path (``--trace 1``) replays each layer over the slice keys the untraced
path left in the model's caches and reads the slice objects' ``dim`` and
the matrices' ``nnz``; it runs here too.
"""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def child():
    # bench/child.py imports its neighbours as top-level modules
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        return importlib.import_module("child")


@pytest.mark.parametrize("workload", ["table1", "many-points", "symmetric"])
def test_benchmark_workload_runs_and_checks(child, workload):
    # child.make_jobs is workloads.jobs
    result = child.run_plain(child.make_jobs(workload, 3, tiny=True),
                             harvest=False)
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["messages"]


@pytest.mark.parametrize("workload", ["table1", "many-points", "symmetric"])
def test_benchmark_traced_path_runs_and_checks(child, workload):
    jobs = child.make_jobs(workload, 3, tiny=True)
    plain = child.run_plain(jobs, harvest=True)
    assert plain["failed"] == 0, plain["messages"]
    staged = child.run_staged(workload, jobs, plain["keys"])
    assert staged["attempted"] > 0
    assert staged["failed"] == 0, staged["messages"]
