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


#: lex precedence of the tensor letters a, x, b, y: b > y > a > x
_TENSOR_PRECEDENCE = (1, 0, 3, 2)


@dataclass(frozen=True)
class ProductGrlex:
    """Graded order for the four-letter tensor alphabet a, x, b, y (letters
    0 to 3).

    Comparison tuple: weighted length (weights from the alphabet), then the
    y-count, b-count and x-count tallies, then lex with precedence
    b > y > a > x.  Within either two-letter factor this restricts to the
    grlex+ behaviour; across factors it orients all commutators with
    first-factor letters leftmost, puts b^m above a^n, and puts y^m above
    every word of the defining polynomials.
    """

    alphabet: Alphabet

    def __post_init__(self):
        if not self.alphabet.weights:
            raise ValueError("ProductGrlex needs per-generator weights")

    def sort_key(self, word: Word):
        weights = self.alphabet.weights
        wlen = sum(weights[c] for c in word)
        lex = tuple(_TENSOR_PRECEDENCE[c] for c in word)
        return (wlen, word.count(3), word.count(2), word.count(1), lex)

    def describe(self) -> str:
        names = self.alphabet.names
        wts = ",".join(f"{n}:{w}" for n, w in zip(names, self.alphabet.weights))
        return f"product-grlex({wts}; {names[2]}>{names[3]}>{names[0]}>{names[1]})"


def check_compatibility(order, shape) -> list:
    """Every word of every right side must sit strictly below the rule's
    left side.  ``shape`` lists (lhs, right-side words) per rule, since
    nothing else matters; returns (rule index, word) for each violator."""
    violations = []
    for index, (lhs, words) in enumerate(shape):
        lhs_key = order.sort_key(lhs)
        violations.extend((index, w) for w in words if order.sort_key(w) >= lhs_key)
    return violations
