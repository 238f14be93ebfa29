"""Exact rational scalars.

Everything in this package is computed over Q, with no rounding anywhere.
A scalar is a Python ``int`` when it is integral and a ``Rational`` only
when it is not, because the built-in models have integer coefficients and
``int`` arithmetic is far cheaper.  :func:`exact` puts a value into that
form at the model boundary and where a matrix is built; elimination
clears denominators and runs in ``int`` arithmetic (see ``linalg``), and
mixed arithmetic elsewhere stays exact.  ``Rational`` is
``fractions.Fraction``, which hashes like ``int``.
"""

from __future__ import annotations

from fractions import Fraction as Rational

ONE = 1


def exact(value):
    """``value`` as an ``int`` when it is integral, else as a ``Rational``."""
    if type(value) is int:
        return value
    q = Rational(value)
    return int(q) if q.denominator == 1 else q


def rat(numerator, denominator=1):
    """Build an exact scalar from integers (or another rational)."""
    return exact(Rational(numerator, denominator))


def rat_from_str(text: str):
    """Parse ``"p"`` or ``"p/q"`` into an exact scalar.

    Raises ``ValueError`` on malformed input or zero denominator.
    """
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator in rational {text!r}")
        return exact(Rational(int(num), d))
    return int(s)

