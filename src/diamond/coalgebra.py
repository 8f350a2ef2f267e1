"""Coproduct and counit on the free algebra, and the bialgebra-level checks.

Generators are either grouplike (Delta g = g (x) g, eps g = 1) or
skew-primitive against a designated grouplike companion
(Delta x = 1 (x) x + x (x) a, eps x = 0); both maps extend to algebra
maps.  Membership of a tensor element in I (x) F + F (x) I is decided by
reducing each tensor leg to normal form.  That computes in the quotient
tensor square, so correctness of a zero verdict as a *certificate of
membership* needs the underlying system to be confluent, and the report
refuses to certify otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .freealg import Alphabet, NcPoly, TensorPoly, bidegree_sum
from .presentations import DefiningPolynomial, Presentation, build_system
from .rewrite import ReductionSystem, check_confluence, normal_form

GROUPLIKE = "grouplike"
SKEW = "skew"


@dataclass(frozen=True)
class CoalgebraContext:
    """Per-generator coproduct shapes over one alphabet."""

    alphabet: Alphabet
    shapes: tuple  # per generator: (GROUPLIKE,) or (SKEW, companion_index)

    def __post_init__(self):
        for shape in self.shapes:
            if shape[0] == SKEW:
                companion = self.shapes[shape[1]]
                if companion[0] != GROUPLIKE:
                    raise ValueError("skew companion must be a grouplike generator")

    @classmethod
    def standard(cls, alphabet: Alphabet, skew_pairs) -> "CoalgebraContext":
        """Build from (skew, companion) name pairs; all other generators are
        grouplike."""
        shapes = [(GROUPLIKE,)] * len(alphabet)
        for skew_name, companion_name in skew_pairs:
            shapes[alphabet.index(skew_name)] = (SKEW, alphabet.index(companion_name))
        return cls(alphabet, tuple(shapes))

    def is_grouplike(self, letter: int) -> bool:
        return self.shapes[letter][0] == GROUPLIKE


#: the (a, x) context: a grouplike, x skew against a
AX_CONTEXT = CoalgebraContext.standard(Alphabet(("a", "x")), [("x", "a")])


def _letter_coproduct(ctx: CoalgebraContext, letter: int) -> TensorPoly:
    shape = ctx.shapes[letter]
    if shape[0] == GROUPLIKE:
        return TensorPoly.simple(ctx.alphabet, (letter,), (letter,))
    companion = shape[1]
    return TensorPoly.simple(ctx.alphabet, (), (letter,)) + TensorPoly.simple(
        ctx.alphabet, (letter,), (companion,)
    )


def coproduct(poly: NcPoly, ctx: CoalgebraContext) -> TensorPoly:
    """Algebra-map extension of the generator coproducts."""
    if poly.alphabet != ctx.alphabet:
        raise ValueError("alphabet mismatch")
    terms = []
    for word, coeff in poly.items():
        value = TensorPoly.one(ctx.alphabet)
        for letter in word:
            value = value * _letter_coproduct(ctx, letter)
        terms.extend((key, coeff * c) for key, c in value.items())
    return TensorPoly(ctx.alphabet, terms)


def counit(poly: NcPoly, ctx: CoalgebraContext):
    """Multiplicative-linear extension: a word counts 1 unless it contains a
    skew-primitive letter."""
    total = 0
    for word, coeff in poly.items():
        if all(ctx.is_grouplike(c) for c in word):
            total = total + coeff
    return total


def check_coproduct_bidegree(j: int, t: int) -> bool:
    """Closed form for the coproduct of a bidegree sum in the (a, x) context:

        Delta(P(j, t)) = sum_l  P(j, l) (x) P(j + l, t - l).

    At j = 0 this is the closed form for the powers of the skew-primitive
    letter, since P(0, t) = x^t.
    """
    alphabet = AX_CONTEXT.alphabet
    lhs = coproduct(bidegree_sum(alphabet, j, t), AX_CONTEXT)
    terms = []
    for ell in range(t + 1):
        left = bidegree_sum(alphabet, j, ell)
        right = bidegree_sum(alphabet, j + ell, t - ell)
        terms.extend(
            ((wl, wr), cl * cr) for wl, cl in left.items() for wr, cr in right.items()
        )
    return lhs == TensorPoly(alphabet, terms)


def tensor_normal_form(tensor: TensorPoly, system: ReductionSystem) -> TensorPoly:
    """Reduce every leg word under ``system`` and recombine.

    This computes the image in (F/I) (x) (F/I); its kernel is exactly
    I (x) F + F (x) I.  Representative-independence needs confluence.
    """
    terms = []
    for (left, right), coeff in tensor.items():
        nf_left = normal_form(NcPoly.monomial(system.alphabet, left), system)
        nf_right = normal_form(NcPoly.monomial(system.alphabet, right), system)
        terms.extend(
            ((wl, wr), coeff * (cl * cr))
            for wl, cl in nf_left.items()
            for wr, cr in nf_right.items()
        )
    return TensorPoly(tensor.alphabet, terms)


def coassociativity_holds(poly: NcPoly, ctx: CoalgebraContext) -> bool:
    """(Delta (x) id) Delta = (id (x) Delta) Delta, exactly; both sides are
    term maps on word triples."""

    def leg(word):
        return coproduct(NcPoly.monomial(ctx.alphabet, word), ctx).items()

    delta = coproduct(poly, ctx)
    left = NcPoly(
        ctx.alphabet,
        [((u1, u2, v), coeff * c) for (u, v), coeff in delta.items() for (u1, u2), c in leg(u)],
    )
    right = NcPoly(
        ctx.alphabet,
        [((u, v1, v2), coeff * c) for (u, v), coeff in delta.items() for (v1, v2), c in leg(v)],
    )
    return left == right


def counit_laws_hold(poly: NcPoly, ctx: CoalgebraContext) -> bool:
    """(eps (x) id) Delta(p) = p = (id (x) eps) Delta(p)."""

    def eps(word):
        return counit(NcPoly.monomial(ctx.alphabet, word), ctx)

    delta = coproduct(poly, ctx)
    left = NcPoly(ctx.alphabet, ((v, coeff * eps(u)) for (u, v), coeff in delta.items()))
    right = NcPoly(ctx.alphabet, ((u, coeff * eps(v)) for (u, v), coeff in delta.items()))
    return left == poly and right == poly


@dataclass
class HopfIdealReport:
    """Per-relation bialgebra-ideal verdicts for one defining polynomial."""

    presentation: Presentation
    confluent: bool
    entries: list  # [(label, counit_zero, coproduct_in_ideal)]

    @property
    def certified(self) -> bool:
        return self.confluent

    @property
    def ok(self) -> bool:
        return self.confluent and all(e and c for _, e, c in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "system": self.presentation.system.describe(),
            "confluent": self.confluent,
            "certified": self.certified,
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


def hopf_ideal_check(g: DefiningPolynomial, ctx: CoalgebraContext = AX_CONTEXT) -> HopfIdealReport:
    """Check that every defining relation generates a bialgebra ideal:
    eps(sigma_j) = 0 and Delta(sigma_j) lies in I (x) F + F (x) I.

    Gated on a confluence check of the oriented system; without confluence
    the per-leg reduction is representative-dependent and the zero verdicts
    are not certificates, so the report is marked uncertified.
    """
    pres = build_system(g, ctx.alphabet)
    confluent = check_confluence(pres.system).overall
    entries = []
    for label, sigma in pres.relations:
        eps_zero = not counit(sigma, ctx)
        cop_zero = tensor_normal_form(coproduct(sigma, ctx), pres.system).is_zero()
        entries.append((label, eps_zero, cop_zero))
    return HopfIdealReport(pres, confluent, entries)
