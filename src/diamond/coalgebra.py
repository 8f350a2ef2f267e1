"""Coproduct and counit on the free algebra, and the bialgebra-level checks.

The coalgebra structure follows from the letter order.  An even letter 2k
is grouplike (Delta c = c (x) c, eps c = 1); an odd letter 2k+1 is
skew-primitive against letter 2k (Delta c = 1 (x) c + c (x) (c - 1),
eps c = 0); both maps extend to algebra maps.  Every alphabet of the
package lists its letters in these pairs, (a, x) for A(x, a, g), (b, y)
for A(y, b, f) and (a, x, b, y) for A(g, f), so the one rule gives all
three algebras: a and b are grouplike, x is skew-primitive against a and
y against b.  Multiplied out, Delta(w) for a word w is the sum over the
subsets T of the positions of its odd letters of l (x) r, each with the
coefficient of w: l keeps the even letters of w and those at T, and r is w
with each letter at T lowered by one.  r fixes T, so the 2^k terms of a
word with k odd letters are distinct; ``coproduct`` enumerates them.

Membership of a tensor element in I (x) F + F (x) I is decided by
reducing each tensor leg to normal form.  That computes in the quotient
tensor square, so correctness of a zero verdict as a *certificate of
membership* needs the underlying system to be confluent, and the report
refuses to certify otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product, repeat

from .freealg import NcPoly, TensorPoly, _bidegree_words, bidegree_sum
from .presentations import AX, Presentation
from .rewrite import ReductionSystem, check_confluence, normal_form

#: most letters j + t in ``check_coproduct_bidegree``; its left side has C(j + t, j) 2^t terms
COPRODUCT_MAX_LETTERS = 12


def coproduct(poly: NcPoly) -> TensorPoly:
    """Algebra-map extension of the letter coproducts, in closed form: the
    leg pairs of each word are doubled at each odd letter, with no product."""
    terms = []
    for word, coeff in poly.items():
        legs = [((), ())]
        for c in word:
            # an odd c stays right, or goes left and leaves c - 1 right
            moves = (((), (c,)), ((c,), (c - 1,))) if c % 2 else (((c,), (c,)),)
            legs = [(l + dl, r + dr) for dl, dr in moves for l, r in legs]
        terms.extend((key, coeff) for key in legs)
    return TensorPoly(poly.alphabet, terms)


def counit(poly: NcPoly):
    """Multiplicative-linear extension: a word counts 1 unless it contains a
    skew-primitive (odd) letter."""
    total = 0
    for word, coeff in poly.items():
        if all(c % 2 == 0 for c in word):
            total = total + coeff
    return total


def check_coproduct_bidegree(j: int, t: int) -> bool:
    """Closed form for the coproduct of a bidegree sum over (a, x):

        Delta(P(j, t)) = sum_l  P(j, l) (x) P(j + l, t - l).

    At j = 0 this is the closed form for the powers of the skew-primitive
    letter, since P(0, t) = x^t.  j + t is at most ``COPRODUCT_MAX_LETTERS``.
    """
    if j + t > COPRODUCT_MAX_LETTERS:
        raise ValueError(f"j + t = {j + t} exceeds the {COPRODUCT_MAX_LETTERS} letters of a check")
    lhs = coproduct(bidegree_sum(AX, j, t))
    # every word of a bidegree sum has coefficient 1, so each pair has 1
    pairs = chain.from_iterable(
        product(_bidegree_words(j, ell, (0, 1)), _bidegree_words(j + ell, t - ell, (0, 1)))
        for ell in range(t + 1)
    )
    return lhs == TensorPoly(AX, zip(pairs, repeat(1)))


def tensor_normal_form(tensor: TensorPoly, system: ReductionSystem) -> TensorPoly:
    """Reduce every leg word under ``system`` and recombine.

    This computes the image in (F/I) (x) (F/I); its kernel is exactly
    I (x) F + F (x) I.  Representative-independence needs confluence.
    """
    terms, nf = [], {}  # each distinct leg word is reduced once
    for (left, right), coeff in tensor.items():
        for word in (left, right):
            if word not in nf:
                nf[word] = normal_form(NcPoly.monomial(system.alphabet, word), system)
        terms.extend(
            ((wl, wr), coeff * (cl * cr))
            for wl, cl in nf[left].items()
            for wr, cr in nf[right].items()
        )
    return TensorPoly(tensor.alphabet, terms)


def coassociativity_holds(poly: NcPoly) -> bool:
    """(Delta (x) id) Delta = (id (x) Delta) Delta, exactly; both sides are
    term maps on word triples."""
    alphabet = poly.alphabet

    def leg(word):
        return coproduct(NcPoly.monomial(alphabet, word)).items()

    delta = coproduct(poly)
    left = NcPoly(
        alphabet,
        [((u1, u2, v), coeff * c) for (u, v), coeff in delta.items() for (u1, u2), c in leg(u)],
    )
    right = NcPoly(
        alphabet,
        [((u, v1, v2), coeff * c) for (u, v), coeff in delta.items() for (v1, v2), c in leg(v)],
    )
    return left == right


def counit_laws_hold(poly: NcPoly) -> bool:
    """(eps (x) id) Delta(p) = p = (id (x) eps) Delta(p)."""
    alphabet = poly.alphabet

    def eps(word):
        return counit(NcPoly.monomial(alphabet, word))

    delta = coproduct(poly)
    left = NcPoly(alphabet, ((v, coeff * eps(u)) for (u, v), coeff in delta.items()))
    right = NcPoly(alphabet, ((u, coeff * eps(v)) for (u, v), coeff in delta.items()))
    return left == poly and right == poly


@dataclass
class HopfIdealReport:
    """Per-relation bialgebra-ideal verdicts for one presentation."""

    presentation: Presentation
    confluent: bool
    entries: list  # [(label, counit_zero, coproduct_in_ideal)]

    @property
    def ok(self) -> bool:
        return self.confluent and all(e and c for _, e, c in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "system": self.presentation.system.describe(),
            "confluent": self.confluent,
            # the zero verdicts are certificates only for a confluent system
            "certified": self.confluent,
            "relations": [
                {
                    "label": label,
                    "counit_zero": eps,
                    "coproduct_in_ideal": cop,
                }
                for label, eps, cop in self.entries
            ],
            "ok": self.ok,
        }


def hopf_ideal_check(pres: Presentation) -> HopfIdealReport:
    """Check that every relation sigma of ``pres`` generates a bialgebra
    ideal: eps(sigma) = 0 and Delta(sigma) lies in I (x) F + F (x) I.  The
    presentation may be ``build_system(g)`` over (a, x) or
    ``build_tensor_presentation(g, f)`` over (a, x, b, y).

    Gated on a confluence check of the oriented system; without confluence
    the per-leg reduction is representative-dependent and the zero verdicts
    are not certificates, so the report is marked uncertified.
    """
    confluent = check_confluence(pres.system).overall
    entries = []
    for label, sigma in pres.relations:
        eps_zero = not counit(sigma)
        cop_zero = tensor_normal_form(coproduct(sigma), pres.system).is_zero()
        entries.append((label, eps_zero, cop_zero))
    return HopfIdealReport(pres, confluent, entries)
