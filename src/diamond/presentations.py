"""Presentation builders.

Everything here turns defining polynomial data into oriented reduction
systems: the skew-primitive systems generated by a single polynomial g, the
one-rule root-of-unity plane, down-up relation sets, and the combined
two-polynomial tensor system over four generators.  The builders state
rules only: a rule lhs -> rhs presents the relation lhs - rhs, which
``Presentation.relations`` reads off when it is first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable

from .freealg import MEMO_SIZE, Alphabet, NcPoly, _bidegree_words, check_pair
from .ordering import GrlexPlus, ProductGrlex
from .rewrite import ReductionSystem, Rule, RuleWords
from .scalars import CyclotomicField

AX = Alphabet(("a", "x"))


@dataclass(frozen=True)
class DefiningPolynomial:
    """A polynomial sum r_i t^i, i = 1..n, with r_n != 0 and no constant term.

    The coefficients keep the caller's scalars, so a monic integral g builds
    its rules, and so its relations, in ``int``; ``monic`` is where they are
    divided, exactly."""

    coefficients: tuple  # (r_1, ..., r_n)

    def __post_init__(self):
        if not self.coefficients or not self.coefficients[-1]:
            raise ValueError("defining polynomial needs a nonzero top coefficient")

    @classmethod
    def from_coefficients(cls, coeffs) -> "DefiningPolynomial":
        """Coefficients listed from r_1 upward; trailing zeros are dropped."""
        out = tuple(coeffs)
        while out and not out[-1]:
            out = out[:-1]
        return cls(out)

    @classmethod
    def from_ncpoly(cls, poly: NcPoly) -> "DefiningPolynomial":
        """Extract coefficients from a one-variable polynomial in generator
        0 with zero constant term."""
        coeffs: dict[int, object] = {}
        for word, coeff in poly.items():
            if any(word):
                raise ValueError("polynomial involves more than one generator")
            if not word:
                raise ValueError("defining polynomial must have zero constant term")
            coeffs[len(word)] = coeff
        degree = max(coeffs, default=0)
        if degree == 0:
            raise ValueError("defining polynomial must be nonzero")
        return cls(tuple(coeffs.get(i, 0) for i in range(1, degree + 1)))

    @property
    def degree(self) -> int:
        return len(self.coefficients)

    def coefficient(self, i: int):
        """r_i, with r_i = 0 outside 1..n."""
        if 1 <= i <= self.degree:
            return self.coefficients[i - 1]
        return 0

    def monic(self) -> "DefiningPolynomial":
        """Divide through by the top coefficient; the relation ideal is
        unchanged because every relation is linear in the coefficients.
        An ``int`` top coefficient divides as a ``Fraction``."""
        top = self.coefficients[-1]
        if top == 1:
            return self
        if isinstance(top, int):
            top = Fraction(top)
        return DefiningPolynomial(tuple(c / top for c in self.coefficients))

    def as_ncpoly(self, alphabet: Alphabet, gen: int) -> NcPoly:
        terms = {}
        for i, c in enumerate(self.coefficients, start=1):
            if c:
                terms[(gen,) * i] = c
        return NcPoly(alphabet, terms)

    def rescaled(self, lam) -> "DefiningPolynomial":
        """The polynomial t -> g(lam * t): coefficients r_i lam^i."""
        if not lam:
            raise ValueError("rescaling factor must be nonzero")
        return DefiningPolynomial(
            tuple(c * lam ** i for i, c in enumerate(self.coefficients, start=1))
        )

    def render(self, name: str = "x") -> str:
        return self.as_ncpoly(Alphabet((name,)), 0).render()


def _relation_terms(coefficients, j: int, pair) -> dict:
    """The clean term dict of sigma_j = ``defining_relation(g, j)`` of the g
    with ``coefficients`` (r_1, ..., r_n), written in the letters ``pair`` =
    (a-like, x-like), summed from whole word groups: P(j, i - j) with r_i for
    each r_i != 0, then a^n with -r_j.  The builders do not call it: they
    fill the runs of ``_family`` instead, whose rules are these terms,
    negated and without the left side, in this order; it stays as the
    construction of ``defining_relation`` that the tests hold them to."""
    n = len(coefficients)
    if not 1 <= j <= n - 1:
        raise ValueError(f"relation index {j} outside 1..{n - 1}")
    # the groups for distinct i have distinct lengths and none holds a^n, so
    # no word repeats
    sigma = {}
    for i, c in enumerate(coefficients[j - 1 :], j):
        if c:
            sigma.update(dict.fromkeys(_bidegree_words(j, i - j, pair), c))
    rj = coefficients[j - 1]
    if rj:
        sigma[(pair[0],) * n] = -rj
    return sigma


def defining_relation(g: DefiningPolynomial, j: int) -> NcPoly:
    """The j-th relation of the skew-primitive presentation of g over
    ``AX``:

        sum_{i=j}^{n} r_i * bidegree_sum(j, i - j)  -  r_j * a^n,

    for 1 <= j <= n - 1.
    """
    return NcPoly.zero(AX)._make(_relation_terms(g.coefficients, j, (0, 1)))


@dataclass
class Presentation:
    """A compatibility-checked system and the presentation it states: each
    rule lhs -> rhs gives the relation lhs - rhs.  ``relations`` and
    ``metadata`` are made on first read."""

    system: ReductionSystem
    render_metadata: Callable[[], dict] = dict

    @property
    def alphabet(self) -> Alphabet:
        return self.system.alphabet

    @cached_property
    def relations(self) -> list:
        """[(label, lhs - rhs)] per rule, in rule order.  The lhs takes the
        unit of its right side's scalars, so a relation keeps its rule's
        coefficient types."""
        out = []
        for rule in self.system.rules:
            one = next((c for _, c in rule.rhs.items()), 1) ** 0
            out.append((rule.label, NcPoly.monomial(self.alphabet, rule.lhs, one) - rule.rhs))
        return out

    @cached_property
    def metadata(self) -> dict:
        return self.render_metadata()

    def relation(self, label: str) -> NcPoly:
        for name, poly in self.relations:
            if name == label:
                return poly
        raise KeyError(label)

    def to_json_dict(self) -> dict:
        return {
            "alphabet": list(self.alphabet.names),
            "order": self.system.order.describe(),
            "relations": [
                {"label": label, "poly": poly.render(self.system.order)}
                for label, poly in self.relations
            ],
            "rules": self.system.rules_json(),
            "metadata": {
                k: str(v) for k, v in sorted(self.metadata.items())
            },
        }


@lru_cache(maxsize=MEMO_SIZE)
def _family(n: int, pair, support: tuple, name: str) -> tuple:
    """The words of the skew-primitive family of degree n in the letters
    ``pair`` = (a-like, x-like), for the g whose r_i, i < n, are nonzero
    exactly at i in ``support``: (``RuleWords``, label ``name_j``) per rule
    j = 1..n-1.  The right side of rule j lists, in the term order of
    ``_relation_terms``, one run P(j, i - j) per nonzero r_i (P(j, n - j)
    without its first word, the left side a^j x^(n-j)), each taking -r_i,
    then the run a^n for r_j, taking r_j, the negation of the run
    P(j, 0)'s -r_j."""
    first, second = pair
    out = []
    for j in range(1, n):
        runs = [(_bidegree_words(j, i - j, pair), i - 1, 1) for i in support if i >= j]
        runs.append((_bidegree_words(j, n - j, pair)[1:], n - 1, 1))
        if j in support:
            runs.append((((first,) * n,), j - 1, -1))
        lhs = (first,) * j + (second,) * (n - j)
        out.append((RuleWords(lhs, tuple(runs)), f"{name}_{j}"))
    return tuple(out)


def _filled(words: RuleWords, coefficients: tuple, negated: tuple) -> dict:
    """The right side of one rule of a family: each run's words with
    sign * negated[index], that is negated[index] or coefficients[index]."""
    rhs = {}
    for run, index, sign in words.runs:
        c = negated[index] if sign > 0 else coefficients[index]
        # set word by word: one dict.fromkeys per run filled degrees 4 and 9
        # 2.4 and 1.4 times slower (Python 3.11)
        for word in run:
            rhs[word] = c
    return rhs


def _skew_primitive_rules(gm: DefiningPolynomial, name: str, alphabet: Alphabet, pair) -> list:
    """The family of monic ``gm`` in the letters ``pair``: for j = 1..n-1 the
    rule a^j x^(n-j) -> a^j x^(n-j) - sigma_j, labelled ``name_j``, filled
    from the words of ``_family`` with the coefficients -r_i of -gm."""
    check_pair(alphabet, pair)
    coefficients = gm.coefficients
    # sigma_j is linear in g and holds its lhs once, from r_n P(j, n - j)
    # with r_n = 1, so the right side is sigma_j(-gm) without its lhs term
    negated = tuple(-c for c in coefficients)
    support = tuple(i for i, c in enumerate(coefficients[:-1], 1) if c)
    zero = NcPoly.zero(alphabet)
    return [
        Rule(words.lhs, zero._make(_filled(words, coefficients, negated)), label, (words, negated))
        for words, label in _family(gm.degree, pair, support, name)
    ]


def build_system(g: DefiningPolynomial, alphabet: Alphabet = AX) -> Presentation:
    """Orient the relations of g into rules a^j x^(n-j) -> lower terms, in
    the letters a = 0 and x = 1 of a two-letter ``alphabet``.

    g is normalized monic first (the ideal does not change); for monic g the
    j-th rule reads

        a^j x^(n-j) -> -(bidegree_sum(j, n-j) - a^j x^(n-j))
                       - sum_{i=j}^{n-1} r_i * bidegree_sum(j, i-j)
                       + r_j * a^n.
    """
    n = g.degree
    if n < 2:
        raise ValueError("defining polynomial must have degree >= 2")
    scale = g.coefficients[-1]
    gm = g.monic()
    order = GrlexPlus(alphabet, weight_letter=1, lex_top=0)
    rules = _skew_primitive_rules(gm, "sigma", alphabet, (0, 1))
    # e(w) = #x makes every reduct integral; verify reads no name or metadata
    x = alphabet.names[1]
    system = ReductionSystem(
        alphabet, order, rules, name=lambda: f"Sigma[{gm.render(x)}]", exponents=(0, 1)
    )
    return Presentation(
        system,
        lambda: {
            "construction": "skew-primitive",
            "degree": n,
            "defining_polynomial": gm.render(x),
            "scale": scale,
        },
    )


def rescale_letter(poly: NcPoly, lam, letter: int) -> NcPoly:
    """The algebra endomorphism fixing every generator except ``letter``,
    which is sent to lam * letter."""
    if not lam:
        raise ValueError("rescaling factor must be nonzero")
    return NcPoly(poly.alphabet, {w: c * lam ** w.count(letter) for w, c in poly.items()})


def build_quantum_plane(n: int) -> ReductionSystem:
    """The one-rule system  x*a -> q * a*x  over Q[q]/Phi_n.

    q is a primitive n-th root of unity, so the n-th bidegree sums all
    reduce to zero; that vanishing is what drives the root-of-unity quotient.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    field_ = CyclotomicField(n)
    # orientation x*a -> a*x needs x on top of the lex tie-break
    order = GrlexPlus(AX, weight_letter=0, lex_top=1)
    rule = Rule((1, 0), NcPoly.monomial(AX, (0, 1), field_.q), "q_commute")
    return ReductionSystem(AX, order, [rule], name=f"quantum-plane({n})")


DU = Alphabet(("d", "u"))


def downup_relations(alpha, beta, gamma) -> list:
    """The two down-up relations, as polynomials set to zero:

        d^2 u - alpha*d u d - beta*u d^2 - gamma*d,
        d u^2 - alpha*u d u - beta*u^2 d - gamma*u.
    """
    d, u = 0, 1

    def mono(*letters):
        return NcPoly.monomial(DU, letters)

    first = mono(d, d, u) - alpha * mono(d, u, d) - beta * mono(u, d, d) - gamma * mono(d)
    second = mono(d, u, u) - alpha * mono(u, d, u) - beta * mono(u, u, d) - gamma * mono(u)
    return [first, second]


def leading_filtered_part(poly: NcPoly, weights) -> NcPoly:
    """Sum of the terms of maximal total weight; weights map letter -> int."""
    if poly.is_zero():
        return poly
    def wt(word):
        return sum(weights[c] for c in word)
    top = max(wt(w) for w in poly.support())
    return NcPoly(
        poly.alphabet, {w: c for w, c in poly.items() if wt(w) == top}
    )


def tensor_alphabet(n: int, m: int) -> Alphabet:
    """Four generators a, x, b, y with weights m, m, n, n."""
    return Alphabet(("a", "x", "b", "y"), (m, m, n, n))


def build_tensor_presentation(g: DefiningPolynomial, f: DefiningPolynomial) -> Presentation:
    """The combined system for the pair (g, f) on generators a, x, b, y.

    Rules: the four cross commutators (oriented with first-factor letters
    leftmost), both skew-primitive families, the group rule b^m -> a^n and
    the curve rule y^m -> g(x)/s_m - (f(y)/s_m - y^m), whose relation
    f(y)/s_m - g(x)/s_m is -1/s_m times g(x) - f(y).  All rules are
    oriented under the product order and compatibility is checked at
    construction.
    """
    n, m = g.degree, f.degree
    if n < 2 or m < 2:
        raise ValueError("both defining polynomials must have degree >= 2")
    alphabet = tensor_alphabet(n, m)
    a, x, b, y = 0, 1, 2, 3
    order = ProductGrlex(alphabet)
    gm, fm = g.monic(), f.monic()

    def mono(*letters):
        return NcPoly.monomial(alphabet, letters)

    rules = [
        Rule((y, a), mono(a, y), "comm_ya"),
        Rule((y, x), mono(x, y), "comm_yx"),
        Rule((b, a), mono(a, b), "comm_ba"),
        Rule((b, x), mono(x, b), "comm_bx"),
    ]
    rules += _skew_primitive_rules(gm, "sigma", alphabet, (a, x))
    rules += _skew_primitive_rules(fm, "tau", alphabet, (b, y))
    rules.append(Rule((b,) * m, mono(*((a,) * n)), "group"))

    # curve relation g(x) = f(y), oriented to eliminate y^m; dividing by the
    # top coefficient s_m of f leaves the ideal unchanged
    sm = f.coefficients[-1]
    g_x = g.as_ncpoly(alphabet, x)
    curve_lhs = (y,) * m
    curve_rhs = (
        (g_x if sm == 1 else g_x.scale(Fraction(1) / sm))
        - fm.as_ncpoly(alphabet, y)
        + NcPoly.monomial(alphabet, curve_lhs)
    )
    rules.append(Rule(curve_lhs, curve_rhs, "curve"))

    # e(w) = #x + n #y puts each term whose coefficient is not +-1 at least one
    # step below its left side (the curve's x^i at mn - i): reducts are integral
    system = ReductionSystem(
        alphabet,
        order,
        rules,
        name=lambda: f"A[{g.render('x')} | {f.render('y')}]",
        exponents=(0, 1, 0, n),
    )
    return Presentation(
        system,
        lambda: {
            "construction": "tensor-pair",
            "degrees": (n, m),
            "g": g.render("x"),
            "f": f.render("y"),
        },
    )
