"""Workloads of the cdgacalc benchmark: job lists, seeded inputs, goldens.

A job is one model and the answers asked of it, in the order the
``cdgacalc`` command line computes them: build the model, auto-verify
d^2 = 0 up to ``max_degree - 1``, then either ``cohomology`` or the
trivial and sign isotypic pieces of the full symmetric group.

Only the ``table1`` job list imports ``cdgacalc`` (its 44 expected entries
are ``cdgacalc.cli.TABLE1_JOBS``), so the parent process of the benchmark
can use the rest without loading the library.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("table1", "many-points", "symmetric")

# Total dims of H^i, i = 0.., recorded at the seed commit with c = 1.  Every
# space here has H^2 of rank one, and the dims (also weight by weight) were
# the same for c = 1, 7/3, -5/2 and 2/7, so they hold for any nonzero class.
# Keys are (space, r, answer) with answer "cohomology", "trivial" or "sign".
GOLDEN = {
    ("P2", 4, "cohomology"): (1, 1, 4, 5, 1, 19, 25),
    ("P3", 3, "cohomology"): (1, 1, 3, 4, 7, 10, 8),
    ("S2", 2, "cohomology"): (1, 9, 39, 95, 206, 375, 634),
    ("P2", 2, "cohomology"): (1, 1, 2, 3, 1, 4, 5, 3, 4, 4, 6),
    ("S1", 2, "trivial"): (1, 3, 8, 17, 29, 41, 53, 68, 86, 104, 122),
    ("S1", 2, "sign"): (0, 2, 7, 12, 18, 28, 41, 54, 67, 83, 102),
    ("P2", 3, "trivial"): (1, 1, 1, 2, 1, 3, 3, 2, 4, 3, 5),
    ("P2", 3, "sign"): (0, 0, 0, 0, 0, 0, 1, 1, 1, 4, 3),
}


@dataclass(frozen=True)
class Job:
    space: str
    r: int
    c: str
    max_degree: int
    kind: str  # "cohomology" or "invariants"
    expected: tuple[int, ...] = ()  # table1 columns carry their own

    @property
    def label(self) -> str:
        return f"{self.space} r={self.r} c={self.c} deg<={self.max_degree}"

    @property
    def answers(self) -> tuple[str, ...]:
        if self.kind == "cohomology":
            return ("cohomology",)
        return ("trivial", "sign")

    def golden(self, answer: str) -> tuple[int, ...]:
        dims = self.expected or GOLDEN[(self.space, self.r, answer)]
        return dims[:self.max_degree + 1]

    def command_lines(self) -> list[str]:
        """Equivalent ``cdgacalc`` invocations (each rebuilds the model)."""
        common = (f"--space {self.space} --r {self.r} --c={self.c} "
                  f"--max-degree {self.max_degree}")
        if self.kind == "cohomology":
            return [f"cdgacalc cohomology {common} --by-weight --threads 1"]
        return [f"cdgacalc invariants {common} --subgroup full "
                f"--character {ch}" for ch in self.answers]


def seeded_class(rng: random.Random) -> str:
    """A nonzero, non-integer rational p/q with |p| <= 9 and 2 <= q <= 7."""
    while True:
        value = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                         rng.randint(2, 7))
        if value.denominator != 1:
            return str(value)


def jobs(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    """The job list of one workload; ``tiny`` shrinks it for the self-test.

    The same (workload, seed, tiny) always gives the same jobs.
    """
    if workload == "table1":
        from cdgacalc.cli import TABLE1_JOBS
        degree = 3 if tiny else 10
        return [Job(space, r, c, degree, "cohomology", expected)
                for space, r, c, expected in TABLE1_JOBS]
    rng = random.Random(seed)
    if workload == "many-points":
        plan = ([("S2", 2, 3), ("P2", 2, 3)] if tiny
                else [("P2", 4, 6), ("P3", 3, 6)])
        return [Job(space, r, seeded_class(rng), degree, "cohomology")
                for space, r, degree in plan]
    if workload == "symmetric":
        plan = ([("S1", 2, 3), ("P2", 3, 3)] if tiny
                else [("S1", 2, 7), ("P2", 3, 9)])
        return [Job(space, r, seeded_class(rng), degree, "invariants")
                for space, r, degree in plan]
    raise ValueError(f"unknown workload {workload!r}")


def command_lines(workload: str, seed: int) -> list[str]:
    if workload == "table1":
        return ["cdgacalc table1 --threads 1"]
    return [line for job in jobs(workload, seed)
            for line in job.command_lines()]
