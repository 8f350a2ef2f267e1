"""PBW enumeration, growth census, the independent linear-algebra dimension
oracle, centrality checks, tensor-quotient counts, and the claim suites.

The dimension oracle deliberately avoids the rewriting engine: it spans the
ideal by explicit rows u * relation * v inside the word-indexed vector
space, row-reduces exactly over the integers, and reads filtration
dimensions off the pivot profile.  Agreement with the irreducible census is
then a machine proof, at these sizes, that the irreducible words really are
a basis of the quotient.

The echelon is built once per g, level by level in t = |u| + |v|: the rows
of level t are a and x times the rows of level t - 1, plus sigma_j * v with
|v| = t.  Columns are ordered by length, then x-count, then
lexicographically, and prepending a letter keeps that order, so the
prefixed rows of an echelon basis of level t - 1 still have distinct
leading words and need no reduction; only the rows sigma_j * v are reduced.
The pivot profile after level t is the profile at bound t + n, so one build
serves every bound, extended only when a larger bound is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import islice
from weakref import WeakKeyDictionary
from math import gcd, log

from .coalgebra import tensor_normal_form
from .freealg import (
    Alphabet,
    NcPoly,
    TensorPoly,
    Word,
    bidegree_sum,
    check_splitting_identity,
)
from .presentations import (
    AX,
    CurvePresentation,
    DefiningPolynomial,
    build_system,
    defining_relation,
)
from .rewrite import check_confluence, normal_form
from .scalars import CyclotomicField

# ---------------------------------------------------------------------------
# PBW words and the irreducible census
# ---------------------------------------------------------------------------


def pbw_block_letters(n: int, pair=(0, 1)) -> list:
    """The block alphabet { a^i x^j : i, j > 0, i + j < n }; it has
    (n-1)(n-2)/2 members and freely generates the middle of every
    irreducible word."""
    if n < 2:
        raise ValueError("need n >= 2")
    a, x = pair
    out = []
    for total in range(2, n):
        for i in range(1, total):
            out.append((a,) * i + (x,) * (total - i))
    return out


def pbw_words(n: int, max_len: int, pair=(0, 1)) -> list:
    """All words x^i * (block product) * a^k of length <= max_len.

    The block products range over the free monoid on the block alphabet,
    so the enumeration is independent of the rewriting engine.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    a, x = pair
    blocks = pbw_block_letters(n, pair)
    products = [()]
    frontier = [()]
    while frontier:
        new = []
        for word in frontier:
            for block in blocks:
                grown = word + block
                if len(grown) <= max_len:
                    new.append(grown)
        products.extend(new)
        frontier = new
    out = []
    for middle in products:
        room = max_len - len(middle)
        for i in range(room + 1):
            for k in range(room - i + 1):
                out.append((x,) * i + middle + (a,) * k)
    out = sorted(set(out), key=lambda w: (len(w), w))
    return out


@dataclass
class GrowthReport:
    """Number of irreducible words at each length 0..L."""

    counts: list

    def cumulative(self) -> list:
        out, total = [], 0
        for c in self.counts:
            total += c
            out.append(total)
        return out


def irreducible_census(system, max_len: int) -> GrowthReport:
    """Count irreducible words of every length <= max_len by transfer matrix.

    A word is irreducible when its walk through the system's obstruction
    automaton never enters a dead state, so the number of irreducible words
    of length L ending in each live state follows from length L - 1 by one
    step along every letter.  Exact integers; O(max_len * states * letters)
    additions.
    """
    automaton = system.automaton
    live = [
        [t for t in row if not automaton.dead[t]] for row in automaton.delta
    ]
    frontier = {0: 1}
    counts = []
    for _ in range(max_len + 1):
        counts.append(sum(frontier.values()))
        step: dict = {}
        for state, count in frontier.items():
            for target in live[state]:
                step[target] = step.get(target, 0) + count
        frontier = step
    return GrowthReport(counts)


@dataclass
class Classification:
    kind: str  # "polynomial" | "exponential" | "inconclusive"
    exponent: int | None = None
    tail_ratio: float | None = None
    residual: float | None = None


def growth_classify(
    report: GrowthReport, fit_from: int = 6, tail: int = 4, theta: float = 1.2
) -> Classification:
    """Classify a census as polynomial or exponential growth.

    Exponential is certified by every one of the last ``tail`` per-length
    ratios being >= theta.  Otherwise the per-length counts are fitted by
    least squares on a log-log scale; the growth exponent of the cumulative
    dimensions is the rounded slope plus one, accepted when the RMS residual
    is below 0.1.  A zero count means every longer word is reducible too, so
    the quotient is finite-dimensional: polynomial of exponent 0.
    """
    counts = report.counts
    top = len(counts) - 1
    if top < 10:
        raise ValueError("need counts up to length >= 10")
    if 0 in counts:
        return Classification("polynomial", exponent=0)
    ratios = [counts[i + 1] / counts[i] for i in range(top - tail, top)]
    if all(r >= theta for r in ratios):
        return Classification("exponential", tail_ratio=min(ratios))
    xs = [log(ell) for ell in range(fit_from, top + 1)]
    ys = [log(counts[ell]) for ell in range(fit_from, top + 1)]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    var = sum((x - mean_x) ** 2 for x in xs)
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = cov / var
    intercept = mean_y - slope * mean_x
    rss = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    residual = (rss / len(xs)) ** 0.5
    if residual < 0.1:
        return Classification("polynomial", exponent=round(slope) + 1, residual=residual)
    return Classification("inconclusive", residual=residual)


# ---------------------------------------------------------------------------
# Sparse exact row echelon and the dimension oracle
# ---------------------------------------------------------------------------


def _strip_content(row: dict) -> dict:
    content = 0
    for v in row.values():
        content = gcd(content, v)
        if content == 1:
            break
    if content > 1:
        row = {k: v // content for k, v in row.items()}
    lead = min(row)
    if row[lead] < 0:
        row = {k: -v for k, v in row.items()}
    return row


def _reduce_row(row: dict, pivots: dict) -> dict:
    """Eliminate a row against the pivot table; fraction-free combinations
    with content stripping keep the integers small.

    Works on a copy, updated in place.  A pivot touches only columns at or
    after its lead, so an eliminated column never returns, and a heap of
    the row's columns yields each next lead without a scan of the row.
    """
    row = dict(row)
    heap = list(row)
    heapify(heap)
    while heap:
        lead = heappop(heap)
        if lead not in row:
            continue
        pivot = pivots.get(lead)
        if pivot is None:
            return _strip_content(row)
        a, b = row[lead], pivot[lead]
        g = gcd(a, b)
        fa, fb = b // g, a // g
        if fa != 1:
            for k in row:
                row[k] *= fa
        for k, v in pivot.items():
            value = row.get(k, 0) - fb * v
            if not value:
                del row[k]
            else:
                if k not in row:
                    heappush(heap, k)
                row[k] = value
    return row


def _row_echelon(rows) -> dict:
    """Sparse row echelon form; returns {leading column: pivot row}."""
    pivots: dict = {}
    for row in sorted(rows, key=min):
        reduced = _reduce_row(row, pivots)
        if reduced:
            pivots[min(reduced)] = reduced
    return pivots


def _integer_row(terms, column) -> dict:
    """Clear the denominators of {key: rational} and rename each key by
    ``column``; the result is a row {column: int}."""
    for coeff in terms.values():
        if not isinstance(coeff, (int, Fraction)):
            raise TypeError("the exact-rank oracle works over rational scalars only")
    denominators = [c.denominator for c in terms.values() if isinstance(c, Fraction)]
    scale = reduce(lambda acc, d: acc * d // gcd(acc, d), denominators, 1)
    row = {}
    for key, coeff in terms.items():
        value = coeff * scale
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise ArithmeticError("denominator clearing failed")
            value = value.numerator
        row[column(key)] = value
    return row


_MEMBERSHIP_BOUND = 10


def _column(length: int, xcount: int, bits: int) -> int:
    """Column of the word over {a, x} with this length, this number of x and
    its letters read as binary digits (a = 0, x = 1, first letter highest).

    Columns fall as words rise in the order (length, x-count,
    lexicographic), so a row's leading word is its smallest column, and no
    column depends on a bound.  Within length L the codes
    (L + xcount - 1) * 2^L + bits fill a block that ends where length L + 1
    begins.
    """
    return -(((length + xcount - 1) << length) + bits + 1)


def _word_bits(word: Word) -> int:
    bits = 0
    for letter in word:
        bits = 2 * bits + letter
    return bits


def _word_column(word: Word) -> int:
    return _column(len(word), sum(word), _word_bits(word))


def _column_word(column: int) -> tuple:
    """(length, xcount, bits) of a column; inverse of ``_column``."""
    code = -column - 1
    length = 0
    while code >= length << (length + 1):
        length += 1
    return length, (code >> length) - length + 1, code & ((1 << length) - 1)


class _IdealEchelon:
    """Row echelon of the ideal of one monic g, built level by level.

    Level t holds W_t, the span of the rows u * sigma_j * v with
    |u| + |v| = t.  Splitting off the first letter of u gives

        W_t = a * W_{t-1} + x * W_{t-1} + span{ sigma_j * v : |v| = t }.

    Prepending a letter keeps the column order, so the rows a * E and x * E
    of an echelon basis E of W_{t-1} keep distinct leads and enter the
    echelon of W_t with no arithmetic; only the (n - 1) * 2^t rows
    sigma_j * v are reduced.  Each level is then merged into the cumulative
    pivot table of W_0 + ... + W_t, the row space at bound t + n.  The merge
    is free when every row keeps its top length, as for g = x^n; lower terms
    of g can cancel it, and such rows are reduced against the table.
    """

    def __init__(self, gm: DefiningPolynomial):
        self.n = gm.degree
        self.sigmas = []  # each sigma_j as [(length, xcount, bits, coeff)]
        for j in range(1, self.n):
            row = _integer_row(dict(defining_relation(gm, j).items()), lambda w: w)
            self.sigmas.append(
                [(len(w), sum(w), _word_bits(w), c) for w, c in row.items()]
            )
        self.basis: dict = {}  # echelon basis of the last level's W_t
        self.pivots: dict = {}  # echelon of W_0 + ... + W_t, level by level
        self.sizes: list = []  # len(self.pivots) after each level
        self.profiles: list = []  # pivot counts per lead length after each level

    def profile(self, level: int) -> list:
        self._extend(level)
        return list(self.profiles[level])

    def pivots_at(self, level: int) -> dict:
        """The pivot table of W_0 + ... + W_level.  Pivots are added level
        by level and never changed, so it is a prefix of the current table;
        later levels are left out, as lower terms of g may reduce their rows
        to shorter lengths."""
        self._extend(level)
        size = self.sizes[level]
        if size == len(self.pivots):
            return self.pivots
        return dict(islice(self.pivots.items(), size))

    def _extend(self, level: int) -> None:
        while len(self.sizes) <= level:
            self._add_level(len(self.sizes))

    def _add_level(self, t: int) -> None:
        shift = {}
        for row in self.basis.values():
            for column in row:
                if column not in shift:
                    length, xcount, bits = _column_word(column)
                    shift[column] = (
                        _column(length + 1, xcount, bits),
                        _column(length + 1, xcount + 1, bits | (1 << length)),
                    )
        basis = {}
        for letter in (0, 1):
            for lead, row in self.basis.items():
                basis[shift[lead][letter]] = {shift[k][letter]: v for k, v in row.items()}
        rows = []
        for v in range(1 << t):
            vx = v.bit_count()
            for sigma in self.sigmas:
                rows.append(
                    {
                        _column(length + t, xcount + vx, (bits << t) | v): coeff
                        for length, xcount, bits, coeff in sigma
                    }
                )
        # in the order generated, v ascending: largest lead first, as in
        # _row_echelon, took 2 to 6 times more elimination steps on x^2,
        # x^3 and x + 2x^2 + x^3 at bounds 10 to 12
        for row in rows:
            reduced = _reduce_row(row, basis)
            if reduced:
                basis[min(reduced)] = reduced
        self.basis = basis
        profile = list(self.profiles[-1]) if self.profiles else []
        profile.extend([0] * (t + self.n + 1 - len(profile)))
        for lead, row in basis.items():
            if lead in self.pivots:
                row = _reduce_row(row, self.pivots)
                if not row:
                    continue
                lead = min(row)
            self.pivots[lead] = row
            profile[_column_word(lead)[0]] += 1
        self.sizes.append(len(self.pivots))
        self.profiles.append(tuple(profile))


# One build per g serves every bound.  A build lives only as long as the
# caller's g: a finished suite frees it (about 2.5 MiB at bound 12) before
# the next suite allocates, which keeps the peak of ``verify all`` down.
_ECHELONS: WeakKeyDictionary = WeakKeyDictionary()


def _echelon(g: DefiningPolynomial) -> _IdealEchelon:
    build = _ECHELONS.get(g)
    if build is None:
        build = _ECHELONS[g] = _IdealEchelon(g.monic())
    return build


def ideal_filtration_profile(g: DefiningPolynomial, bound: int) -> list:
    """Pivot counts per word length for the row space spanned by
    u * sigma_j * v with |u| + |v| + n <= bound.

    The columns are all words, ordered by length, then x-count, then
    lexicographically, so the pivot profile yields dim(span cap F_ell) for
    every ell <= bound at once.  The rows come from one level-by-level
    echelon per g (see ``_IdealEchelon``): the profile at bound b is the
    one after level b - n, and a larger bound only adds levels.
    """
    if bound < g.degree:
        return [0] * (bound + 1)
    return _echelon(g).profile(bound - g.degree)


def _dimension_at(profile: list, ell: int) -> int:
    words = 2 ** (ell + 1) - 1
    pivots = sum(profile[: ell + 1])
    return words - pivots


MAX_ORACLE_BOUND = 12


@dataclass
class DimOracleResult:
    ell: int
    slack: int
    dimension: int
    stable: bool
    values: tuple  # dimensions at slack, slack+1, slack+2


def dimension_oracle(g: DefiningPolynomial, ell: int, slack: int = 2) -> DimOracleResult:
    """Filtration dimension of the quotient at degree <= ell, via exact rank.

    Reads the row space at bounds ell+slack, ell+slack+1, ell+slack+2; the
    value is certified (``stable``) only when all three agree, since the
    free algebra gives no a-priori degree bound on ideal elements.  The
    three bounds are three levels of one level-by-level build of g, shared
    with every other call for the same g.  Every bound is capped at 12
    words of length, as a resource guard.
    """
    if ell < 0 or slack < 0:
        raise ValueError("ell and slack must be nonnegative")
    if ell + slack + 2 > MAX_ORACLE_BOUND:
        raise ValueError(
            f"resource guard: ell + slack + 2 must be <= {MAX_ORACLE_BOUND}"
        )
    values = tuple(
        _dimension_at(ideal_filtration_profile(g, ell + slack + k), ell)
        for k in range(3)
    )
    return DimOracleResult(ell, slack, values[-1], len(set(values)) == 1, values)


def ideal_span_contains(g: DefiningPolynomial, poly: NcPoly, bound: int | None = None) -> bool:
    """Linear-algebra membership: does poly lie in the span of
    u * sigma_j * v with total length <= bound?

    Every elementary reduction step stays within the starting length, so
    bound = poly.degree() suffices to witness normal_form(w) - w.
    """
    if poly.is_zero():
        return True
    if bound is None:
        bound = poly.degree()
    if bound > _MEMBERSHIP_BOUND:
        raise ValueError(f"resource guard: membership bound must be <= {_MEMBERSHIP_BOUND}")
    if len(poly.alphabet) != 2:
        raise ValueError("membership is defined for the two-letter alphabet {a, x}")
    vector = _integer_row(dict(poly.items()), _word_column)
    if bound < g.degree:
        return False
    return not _reduce_row(vector, _echelon(g).pivots_at(bound - g.degree))


# ---------------------------------------------------------------------------
# Centrality
# ---------------------------------------------------------------------------


def is_central(poly: NcPoly, system) -> bool:
    """poly commutes with every generator, modulo the system."""
    for letter in range(len(system.alphabet)):
        gen = NcPoly.generator(system.alphabet, letter)
        if not normal_form(poly * gen - gen * poly, system).is_zero():
            return False
    return True


def cubic_centre_elements():
    """The five listed central elements of the cubic system over the field
    with a primitive cube root of unity lam = q."""
    field_ = CyclotomicField(3)
    lam = field_.q
    a, x = 0, 1

    def mono(*letters):
        return NcPoly.monomial(AX, letters)

    xa, ax = mono(x, a), mono(a, x)
    cubic_mix_1 = (
        xa ** 3 - 3 * lam ** 2 * (xa ** 2 * ax) + 3 * lam * (xa * ax ** 2) - ax ** 3
    )
    cubic_mix_2 = (
        xa ** 3 - 3 * lam * (xa ** 2 * ax) + 3 * lam ** 2 * (xa * ax ** 2) - ax ** 3
    )
    return [
        ("a^3", mono(a, a, a)),
        ("x^3", mono(x, x, x)),
        ("mixed_cubic_1", cubic_mix_1),
        ("mixed_cubic_2", cubic_mix_2),
        ("(ax)^2 - x^2*a^2", ax ** 2 - mono(x, x, a, a)),
    ]


def cubic_centre_suite() -> dict:
    """Check centrality of every listed generator of the cubic centre."""
    pres = build_system(DefiningPolynomial.from_coefficients((0, 0, 1)))
    entries = []
    for label, element in cubic_centre_elements():
        entries.append((label, is_central(element, pres.system)))
    return {
        "system": pres.system.describe(),
        "entries": entries,
        "ok": all(v for _, v in entries),
    }


def degree_three_centre_element(g: DefiningPolynomial) -> NcPoly:
    """axax - x^2 a^2 - r_2 x a^2 - r_1 a^2, central for every monic cubic g."""
    if g.degree != 3:
        raise ValueError("need a degree-3 defining polynomial")
    a, x = 0, 1

    def mono(word, coeff=Fraction(1)):
        return NcPoly.monomial(AX, word, coeff)

    return (
        mono((a, x, a, x))
        - mono((x, x, a, a))
        - mono((x, a, a), g.coefficient(2))
        - mono((a, a), g.coefficient(1))
    )


# ---------------------------------------------------------------------------
# The tensor algebra of two factor quotients
# ---------------------------------------------------------------------------

BY = Alphabet(("b", "y"))


class TensorAlgebra:
    """Tensor product of the two factor quotients.  Its elements are
    ``TensorPoly`` maps (factor-1 word, factor-2 word) -> scalar; the map's
    alphabet is the first factor's, ``render`` names the second leg in
    ``BY``, and ``reduce`` brings both legs to factor normal form."""

    def __init__(self, g: DefiningPolynomial, f: DefiningPolynomial):
        self.g, self.f = g, f
        self.left = build_system(g, AX)
        self.right = build_system(f, BY)

    def one(self) -> TensorPoly:
        return TensorPoly.one(AX)

    def embed_left(self, poly: NcPoly) -> TensorPoly:
        nf = normal_form(poly, self.left.system)
        return TensorPoly(AX, {(w, ()): c for w, c in nf.items()})

    def embed_right(self, poly: NcPoly) -> TensorPoly:
        nf = normal_form(poly, self.right.system)
        return TensorPoly(AX, {((), w): c for w, c in nf.items()})

    def monomial(self, left_word: Word, right_word: Word, coeff=Fraction(1)) -> TensorPoly:
        return TensorPoly.simple(AX, left_word, right_word, coeff)

    def reduce(self, element: TensorPoly) -> TensorPoly:
        return tensor_normal_form(element, self.left.system, self.right.system)

    def render(self, element: TensorPoly) -> str:
        return element.render(BY)


@dataclass
class TensorQuotientReport:
    """Rank-computed filtration dimensions of the tensor quotient against the
    closed-form standard-monomial census, per weighted degree."""

    degrees: list
    rank_dimensions: list
    census_dimensions: list
    first_mismatch: int | None

    @property
    def ok(self) -> bool:
        return self.first_mismatch is None

    def to_json_dict(self) -> dict:
        return {
            "degrees": self.degrees,
            "rank_dimensions": self.rank_dimensions,
            "census_dimensions": self.census_dimensions,
            "first_mismatch": self.first_mismatch,
            "ok": self.ok,
        }


def _census_counts(g: DefiningPolynomial, f: DefiningPolynomial, max_degree: int) -> list:
    """Cumulative counts of the product basis
    { x^al y^be * <blocks(a,x)> <blocks(b,y)> * a^i b^j : be < m, j < m }
    by weighted degree (letters of the first factor weigh m, of the second n)."""
    n, m = g.degree, f.degree
    wx, wy = m, n

    def block_length_counts(k: int, weight: int) -> list:
        counts = [0] * (max_degree + 1)
        counts[0] = 1
        lengths = [len(b) for b in pbw_block_letters(k)]
        for degree in range(1, max_degree + 1):
            total = 0
            for blen in lengths:
                w = blen * weight
                if w <= degree:
                    total += counts[degree - w]
            counts[degree] += total
        return counts

    blocks1 = block_length_counts(n, wx)
    blocks2 = block_length_counts(m, wy)
    curve = CurvePresentation(g, f).basis_counts(max_degree, (wx, wy))
    tails = [0] * (max_degree + 1)
    for i in range(max_degree // wx + 1):
        for j in range(m):
            w = wx * i + wy * j
            if w <= max_degree:
                tails[w] += 1

    def convolve(u: list, v: list) -> list:
        out = [0] * (max_degree + 1)
        for i, a in enumerate(u):
            if a:
                for j_, b in enumerate(v):
                    if b and i + j_ <= max_degree:
                        out[i + j_] += a * b
        return out

    per_degree = convolve(convolve(convolve(curve, blocks1), blocks2), tails)
    out, total = [], 0
    for c in per_degree:
        total += c
        out.append(total)
    return out


def quotient_dimension_tensor(
    g: DefiningPolynomial, f: DefiningPolynomial, max_degree: int
) -> TensorQuotientReport:
    """Exact filtration dimensions of T / (g - f, a^n - b^m) at every
    weighted degree <= max_degree, versus the standard-monomial census.

    Both relations are central, so the two-sided ideal piece is spanned by
    left multiples u * z over the pair basis; the dimensions are read off a
    sparse exact row echelon of those rows.  A mismatch is reported with the
    first disagreeing degree, never raised.
    """
    n, m = g.degree, f.degree
    algebra = TensorAlgebra(g, f)
    if not check_confluence(algebra.left.system).overall:
        raise ValueError("first factor system is not confluent")
    if not check_confluence(algebra.right.system).overall:
        raise ValueError("second factor system is not confluent")
    wx, wy = m, n

    left_words = [w for w in pbw_words(n, max_degree // wx) if wx * len(w) <= max_degree]
    right_words = [w for w in pbw_words(m, max_degree // wy) if wy * len(w) <= max_degree]
    pairs = []
    for u in left_words:
        for w in right_words:
            wdeg = wx * len(u) + wy * len(w)
            if wdeg <= max_degree:
                pairs.append((wdeg, u, w))
    pairs.sort(key=lambda t: (t[0], t[1], t[2]))
    ordered = sorted(pairs, key=lambda t: (-t[0], t[1], t[2]))
    rank_of = {(u, w): i for i, (_, u, w) in enumerate(ordered)}
    wdeg_of_rank = [t[0] for t in ordered]

    a, x = 0, 1
    z_curve = algebra.embed_left(g.as_ncpoly(AX, x)) - algebra.embed_right(
        f.as_ncpoly(BY, 1)
    )
    z_group = algebra.monomial((a,) * n, ()) - algebra.monomial((), (0,) * m)
    top = n * m

    rows = []
    for wdeg, u, w in pairs:
        if wdeg + top > max_degree:
            continue
        basis_el = algebra.monomial(u, w)
        for z in (z_curve, z_group):
            element = algebra.reduce(basis_el * z)
            if not element.is_zero():
                rows.append(_integer_row(dict(element.items()), rank_of.__getitem__))
    pivots = _row_echelon(rows)
    pivot_by_degree = [0] * (max_degree + 1)
    for lead in pivots:
        pivot_by_degree[wdeg_of_rank[lead]] += 1
    pair_by_degree = [0] * (max_degree + 1)
    for wdeg, _, _ in pairs:
        pair_by_degree[wdeg] += 1

    rank_dims, census = [], _census_counts(g, f, max_degree)
    total_pairs = total_pivots = 0
    first_mismatch = None
    degrees = list(range(max_degree + 1))
    for d in degrees:
        total_pairs += pair_by_degree[d]
        total_pivots += pivot_by_degree[d]
        rank_dims.append(total_pairs - total_pivots)
        if first_mismatch is None and rank_dims[d] != census[d]:
            first_mismatch = d
    return TensorQuotientReport(degrees, rank_dims, census, first_mismatch)


# ---------------------------------------------------------------------------
# Power-of-the-variable chains and the degree-2 identity
# ---------------------------------------------------------------------------


def power_chain_report(m: int, n: int) -> dict:
    """Reduce each generator of the degree-m power ideal under the confluent
    degree-n power system and report the normal forms; verdicts only, the
    containment itself is a known discrepancy candidate."""
    if not 2 <= n < m or n > 5:
        raise ValueError("need 2 <= n < m with n <= 5")
    pres = build_system(DefiningPolynomial.from_coefficients((0,) * (n - 1) + (1,)))
    confluent = check_confluence(pres.system).overall
    entries = []
    for j in range(1, m):
        generator = bidegree_sum(AX, j, m - j)
        nf = normal_form(generator, pres.system)
        entries.append(
            {
                "generator": f"sum_bidegree({j},{m - j})",
                "normal_form": nf.render(pres.system.order),
                "zero": nf.is_zero(),
            }
        )
    recursion = all(
        check_splitting_identity("tail1", j, m - j) for j in range(1, m)
    )
    return {
        "m": m,
        "n": n,
        "confluent": confluent,
        "entries": entries,
        "all_zero": all(e["zero"] for e in entries),
        "recursion_identity": recursion,
    }


def degree_two_suite(r, s) -> dict:
    """The degree-2 change of variable and the tensor-square identity.

    With x' = x + (r/2)(1 - a):  a x' + x' a  reduces to zero, and in the
    tensor algebra of the two quadratic factors

        x'^2 - y'^2 = (g - f) + (r^2 - s^2)/4 - (r^2 a^2 - s^2 b^2)/4.

    The juxtaposed variant with f - g in place of g - f is also evaluated:
    it differs by 2(g - f) and is reported as a discrepancy witness, not
    asserted.
    """
    r, s = Fraction(r), Fraction(s)
    g = DefiningPolynomial.from_coefficients((r, 1))
    f = DefiningPolynomial.from_coefficients((s, 1))
    pres = build_system(g)
    a, x = 0, 1
    x_prime = (
        NcPoly.generator(AX, x)
        + NcPoly.one(AX).scale(r / 2)
        - NcPoly.monomial(AX, (a,), r / 2)
    )
    anticommute = normal_form(
        NcPoly.generator(AX, a) * x_prime + x_prime * NcPoly.generator(AX, a),
        pres.system,
    ).is_zero()

    algebra = TensorAlgebra(g, f)
    b, y = 0, 1
    y_prime_poly = (
        NcPoly.generator(BY, y)
        + NcPoly.one(BY).scale(s / 2)
        - NcPoly.monomial(BY, (b,), s / 2)
    )
    x1 = algebra.embed_left(x_prime)
    y1 = algebra.embed_right(y_prime_poly)
    lhs = algebra.reduce(x1 * x1 - y1 * y1)
    g_minus_f = algebra.embed_left(g.as_ncpoly(AX, 1)) - algebra.embed_right(
        f.as_ncpoly(BY, 1)
    )
    correction = (
        algebra.one().scale((r * r - s * s) / 4)
        - algebra.monomial((a, a), ()).scale(r * r / 4)
        + algebra.monomial((), (b, b)).scale(s * s / 4)
    )
    identity_ok = (lhs - (g_minus_f + correction)).is_zero()
    displayed_variant = lhs - ((-g_minus_f) + correction)
    return {
        "r": str(r),
        "s": str(s),
        "anticommute_ok": anticommute,
        "identity_ok": identity_ok,
        "displayed_variant_zero": displayed_variant.is_zero(),
    }


# ---------------------------------------------------------------------------
# Randomized inputs
# ---------------------------------------------------------------------------


def random_defining_polynomial(rng, degree: int, bound: int = 9) -> DefiningPolynomial:
    """Random monic defining polynomial with numerators and denominators
    bounded by ``bound``."""
    coeffs = [
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        for _ in range(degree - 1)
    ]
    coeffs.append(Fraction(1))
    return DefiningPolynomial(tuple(coeffs))


def random_ncpoly(rng, alphabet: Alphabet, max_len: int, terms: int, bound: int = 5) -> NcPoly:
    out = {}
    for _ in range(terms):
        length = rng.randint(0, max_len)
        word = tuple(rng.randrange(len(alphabet)) for _ in range(length))
        out[word] = out.get(word, 0) + Fraction(
            rng.randint(-bound, bound), rng.randint(1, bound)
        )
    return NcPoly(alphabet, out)
