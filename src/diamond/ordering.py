"""Monomial orders on words of the free algebra.

Both orders are key-based: ``sort_key`` maps a word to a tuple that is
strictly increasing along the order, so comparison, max-of-support and
heap scheduling all reduce to tuple comparison.  The keys are well-founded
(length resp. weighted length dominates), which is what makes every
reduction chain terminate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .freealg import Alphabet, Word

LESS, EQUAL, GREATER = -1, 0, 1


@dataclass(frozen=True)
class GrlexPlus:
    """Weighted graded lex order on a two-letter alphabet.

    Words compare by length, then by the number of occurrences of the
    designated weight letter, then lexicographically with ``lex_top`` as
    the larger letter.  This is a total semigroup order with the
    descending chain condition.
    """

    alphabet: Alphabet
    weight_letter: int
    lex_top: int

    def sort_key(self, word: Word):
        wt = sum(1 for c in word if c == self.weight_letter)
        lex = tuple(1 if c == self.lex_top else 0 for c in word)
        return (len(word), wt, lex)

    def describe(self) -> str:
        names = self.alphabet.names
        return f"grlex+(wt={names[self.weight_letter]}, top={names[self.lex_top]})"


@dataclass(frozen=True)
class ProductGrlex:
    """Graded order for the four-letter tensor alphabet (a, x, b, y).

    Comparison tuple: weighted length (weights from the alphabet), then the
    y-count, b-count and x-count tallies, then lex with precedence
    b > y > a > x.  Within either two-letter factor this restricts to the
    grlex+ behaviour; across factors it orients all commutators with
    first-factor letters leftmost, puts b^m above a^n, and puts y^m above
    every word of the defining polynomials.
    """

    alphabet: Alphabet
    a: int = 0
    x: int = 1
    b: int = 2
    y: int = 3

    def __post_init__(self):
        if not self.alphabet.weights:
            raise ValueError("ProductGrlex needs per-generator weights")

    def _precedence(self, letter: int) -> int:
        if letter == self.b:
            return 3
        if letter == self.y:
            return 2
        if letter == self.a:
            return 1
        return 0

    def sort_key(self, word: Word):
        weights = self.alphabet.weights
        wlen = sum(weights[c] for c in word)
        ycount = sum(1 for c in word if c == self.y)
        bcount = sum(1 for c in word if c == self.b)
        xcount = sum(1 for c in word if c == self.x)
        lex = tuple(self._precedence(c) for c in word)
        return (wlen, ycount, bcount, xcount, lex)

    def describe(self) -> str:
        names = self.alphabet.names
        wts = ",".join(f"{n}:{w}" for n, w in zip(names, self.alphabet.weights))
        return f"product-grlex({wts}; {names[self.b]}>{names[self.y]}>{names[self.a]}>{names[self.x]})"


def compare(u: Word, v: Word, order) -> int:
    """Trichotomous comparison: -1, 0 or 1 as u <, =, > v under the order."""
    ku, kv = order.sort_key(tuple(u)), order.sort_key(tuple(v))
    if ku < kv:
        return LESS
    if ku > kv:
        return GREATER
    return EQUAL


@dataclass
class CompatibilityReport:
    """check_compatibility outcome: one entry per rule whose right side is
    not strictly below its left side."""

    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def check_compatibility(order, rules) -> CompatibilityReport:
    """Every monomial of every right side must sit strictly below the rule's
    left side; the report lists all violators."""
    violations = []
    for rule in rules:
        lhs_key = order.sort_key(rule.lhs)
        for word in rule.rhs.support():
            if order.sort_key(word) >= lhs_key:
                violations.append((rule.label, word))
    return CompatibilityReport(violations)
