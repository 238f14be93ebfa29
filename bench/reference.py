"""A fixed reference computation that measures the machine's current speed.

On a shared VM the same code runs up to 2x slower while other tenants are
busy, and the speed changes within seconds.  Each benchmark iteration
therefore times a reference chunk before and after every timed step and
divides the step's time by how much slower than nominal the two chunks
around it ran (``ReferenceClock``).  The reported times are then seconds
on a machine on which one reference chunk takes ``REFERENCE_CHUNK_S``.

The chunk uses only the standard library, so a change to cdgacalc cannot
change it.  It does what cdgacalc's algebra layer spends its time on:
multiplying sparse polynomials whose monomials are exponent tuples,
with ``Fraction`` coefficients gathered in a dictionary.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# Typical reference_s() on a 2-vCPU Intel Xeon VM (2.0 GHz), Python 3.11.
# Only ratios of reported times matter; this constant just keeps them
# near seconds on that machine.
REFERENCE_CHUNK_S = 0.035
_TERMS = 70
_VARIABLES = 6


def _polynomial(rng: random.Random) -> dict[tuple[int, ...], Fraction]:
    return {tuple(rng.randint(0, 4) for _ in range(_VARIABLES)):
            Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            for _ in range(_TERMS)}


_RNG = random.Random(20231206)
_LEFT, _RIGHT = _polynomial(_RNG), _polynomial(_RNG)


def _chunk() -> dict[tuple[int, ...], Fraction]:
    product: dict[tuple[int, ...], Fraction] = {}
    for a, ca in _LEFT.items():
        for b, cb in _RIGHT.items():
            key = tuple(x + y for x, y in zip(a, b))
            product[key] = product.get(key, 0) + ca * cb
    return product


def reference_s() -> float:
    """Seconds one reference chunk takes now."""
    start = time.perf_counter()
    _chunk()
    return time.perf_counter() - start


class ReferenceClock:
    """Divides consecutive timed steps by the machine's speed around each.

    Call ``scale`` right after each step; it times the chunk that follows
    the step, which is also the chunk before the next one.
    """

    def __init__(self):
        reference_s()  # warm-up: the first chunk in a process runs cold
        self._before = reference_s()

    def scale(self, seconds: float) -> float:
        """``seconds`` at the reference speed."""
        after = reference_s()
        factor = (self._before + after) / (2 * REFERENCE_CHUNK_S)
        self._before = after
        return seconds / factor
