"""Exact-rational JSON encoding helpers.

Rationals travel as "p/q" strings (plain integers for denominator 1) so
reports round-trip without any float loss. frac_to_str is the package's one
rational formatter; the graph text format writes weights with it too.
"""

from __future__ import annotations

from fractions import Fraction


def frac_to_str(w: Fraction) -> str:
    w = Fraction(w)
    return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"


def opt_frac_to_str(w) -> "str | None":
    return None if w is None else frac_to_str(w)
