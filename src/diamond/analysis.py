"""PBW enumeration, the growth census and its exact classification, the
independent linear-algebra dimension oracle, centrality checks,
tensor-quotient counts, and the degree-2 identities.

The census counts the walks of the obstruction automaton's live states, and
the classification reads polynomial or exponential growth, with its
exponent, off the strongly connected components of the same graph.

The dimension oracle deliberately avoids the rewriting engine: it spans the
ideal by explicit rows u * relation * v inside the word-indexed vector
space, row-reduces exactly over the integers, and reads filtration
dimensions off the pivot profile.  Agreement with the irreducible census is
then a machine proof, at these sizes, that the irreducible words really are
a basis of the quotient.

The echelon is built once per g, level by level in t = |u| + |v|: the rows
of level t are a and x times the rows of level t - 1, plus the rows new at
level t - 1 times a and times x, which span every sigma_j * v with |v| = t.
A column is minus a code of three fixed fields, most significant first: the
word's length, its x-count and its letters as binary digits.  Columns are
thus ordered by length, then x-count, then lexicographically, the length is
one shift of the code, and a letter added on either side is a few additions
on it that keep the order, so the prefixed rows of an echelon basis of
level t - 1 keep distinct leading words and need no reduction; only the new
rows times a letter are reduced.  Only the rows that reduction kept are
stored, and every other row is built from one of them when it is read.  The
pivot profile after level t is the profile at bound t + n, so one build
serves every bound, extended only when a larger bound is asked for.

In the tensor product of the factor algebras of g and f, the ideal of the
central z = g(x) - f(y) and z = a^n - b^m is spanned by the rows
(u (x) w) * z over pairs of normal words.  For z = p (x) 1 - 1 (x) q each
row is nf(u p) (x) w - u (x) nf(w q), so each leg word takes one normal
form per relation, and the rows are reduced by the same ``_reduce_row``
into one pivot table.  The census it is checked against is a product of
series, one per factor of the product basis: the curve monomials x^i y^j
(j < m), the block products in a and x and in b and y, and the tails
a^i b^j (j < m).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain, islice
from weakref import WeakKeyDictionary
from math import gcd

from .freealg import (
    Alphabet,
    NcPoly,
    TensorPoly,
    Word,
)
from .presentations import (
    AX,
    DefiningPolynomial,
    build_system,
    defining_relation,
    tensor_alphabet,
)
from .rewrite import check_confluence, normal_form
from .scalars import CyclotomicField, common_denominator, rescale

# ---------------------------------------------------------------------------
# PBW words and the irreducible census
# ---------------------------------------------------------------------------


def pbw_block_letters(n: int) -> list:
    """The block alphabet { a^i x^j : i, j > 0, i + j < n } over a = 0 and
    x = 1; it has (n-1)(n-2)/2 members and freely generates the middle of
    every irreducible word."""
    if n < 2:
        raise ValueError("need n >= 2")
    a, x = 0, 1
    out = []
    for total in range(2, n):
        for i in range(1, total):
            out.append((a,) * i + (x,) * (total - i))
    return out


def pbw_words(n: int, max_len: int) -> list:
    """All words x^i * (block product) * a^k of length <= max_len.

    The block products range over the free monoid on the block alphabet,
    so the enumeration is independent of the rewriting engine.  Each word
    is built once: a block product starts with a and ends with x, and it
    splits into maximal runs a^i x^j in one way only.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    a, x = 0, 1
    blocks = pbw_block_letters(n)
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
    # one bucket per length, each sorted as tuples: a key of (length, word) took 60 % longer
    by_length: list = [[] for _ in range(max_len + 1)]
    for middle in products:
        room = max_len - len(middle)
        for i in range(room + 1):
            for k in range(room - i + 1):
                by_length[i + len(middle) + k].append((x,) * i + middle + (a,) * k)
    return [word for bucket in by_length for word in sorted(bucket)]


@dataclass
class GrowthReport:
    """Number of irreducible words at each length 0..L, and the live part of
    the obstruction automaton whose walks they are: ``live[s]`` lists, one
    entry per letter, the targets of state ``s`` on which no left side ends.
    """

    counts: list
    live: list

    def cumulative(self) -> list:
        return list(accumulate(self.counts))


def irreducible_census(system, max_len: int) -> GrowthReport:
    """Count irreducible words of every length <= max_len by transfer matrix.

    A word is irreducible when its walk through the system's obstruction
    automaton only visits live states, where no left side ends, so the
    number of irreducible words of length L ending in each live state
    follows from length L - 1 by one step along every letter.  Exact
    integers; O(max_len * states * letters) additions.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    automaton = system.automaton
    rank, none = automaton.rank, len(automaton.left_sides)
    live = [[t for t in row if rank[t] == none] for row in automaton.delta]
    frontier = {0: 1}
    counts = []
    for _ in range(max_len + 1):
        counts.append(sum(frontier.values()))
        # counts never cancel; summed through NcPoly's constructor the census took 2x (Python 3.11)
        step: dict = {}
        for state, count in frontier.items():
            for target in live[state]:
                step[target] = step.get(target, 0) + count
        frontier = step
    return GrowthReport(counts, live)


@dataclass
class Classification:
    kind: str  # "polynomial" | "exponential"
    exponent: int | None = None


def growth_classify(report: GrowthReport) -> Classification:
    """Decide the growth of the irreducible words exactly, from the strongly
    connected components of the live automaton (Ufnarovski 1982).

    The irreducible words are the walks from state 0, so only the states
    reachable from it count.  A component with more internal edges than
    states carries two distinct cycles through a common state, and the
    counts grow exponentially.  Otherwise each component is one cycle or
    none, and the words of length <= L number Theta(L^d), where d is the
    largest number of cyclic components on one walk: polynomial growth of
    exponent d, which is 0 for a finite-dimensional quotient.  The length
    of the census plays no part.

    Components come from an iterative Tarjan pass, which finishes each
    component after every component it reaches, so its chain depth is known
    when it is popped.  O(states * letters).
    """
    live = report.live
    number = [0] * len(live)  # discovery number from 1; 0 while unvisited
    low = [0] * len(live)
    component = [-1] * len(live)
    depth: list = []  # per finished component: most cyclic components on a walk from it
    number[0] = low[0] = visited = 1
    path = [0]
    work = [(0, iter(live[0]))]
    while work:
        state, targets = work[-1]
        for target in targets:
            if not number[target]:
                visited += 1
                number[target] = low[target] = visited
                path.append(target)
                work.append((target, iter(live[target])))
                break
            if component[target] < 0:
                low[state] = min(low[state], number[target])
        else:
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[state])
            if low[state] < number[state]:
                continue
            done = len(depth)
            members = []
            while not members or members[-1] != state:
                members.append(path.pop())
                component[members[-1]] = done
            edges = below = 0
            for member in members:
                for target in live[member]:
                    if component[target] == done:
                        edges += 1
                    else:
                        below = max(below, depth[component[target]])
            if edges > len(members):
                return Classification("exponential")
            depth.append(below + 1 if edges == len(members) else below)
    return Classification("polynomial", exponent=depth[-1])


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
        # updated in place: a new NcPoly per pivot made the pbw suite 55 % slower (Python 3.11)
        for k, v in pivot.items():
            value = row.get(k, 0) - fb * v
            if not value:
                del row[k]
            else:
                if k not in row:
                    heappush(heap, k)
                row[k] = value
    return row


def _integer_row(terms, column) -> dict:
    """Clear the denominators of {key: rational}, each c times their lcm
    (``rescale`` with no letters), and rename each key by ``column``; the
    result is a row {column: int}."""
    if common_denominator(terms.values()) is None:
        raise TypeError("the exact-rank oracle works over rational scalars only")
    row, _ = rescale(terms.items(), 1, ())
    return {column(key): value for key, value in row.items()}


_MEMBERSHIP_BOUND = 10
MAX_ORACLE_BOUND = 12
_FIELD = MAX_ORACLE_BOUND + 1  # bits of the x-count and of the letters


def _word_column(word: Word) -> int:
    """Column of a word over {a, x} of at most ``MAX_ORACLE_BOUND`` letters:
    minus its code of three fields, most significant first: the length, the
    number of x, and the letters as binary digits (a = 0, x = 1, first
    letter highest).  The lower two are ``_FIELD`` bits wide, so none
    carries into the next and every code stays below 2^30.

    Columns fall as words rise in the order (length, x-count,
    lexicographic), so a row's leading word is its smallest column, and no
    column depends on a bound.  The length is ``-column >> 2 * _FIELD``.
    """
    bits = 0
    for letter in word:
        bits = 2 * bits + letter
    return -((len(word) << 2 * _FIELD) + (sum(word) << _FIELD) + bits)


def _grow(column: int) -> tuple:
    """The columns of a * w, x * w, w * a and w * x for the word w of a
    column, by additions on its code: each adds one to the length field,
    w * a and w * x add the letters field to itself, and an x adds one to
    the x-count and its digit, 2^|w| on the left or 1 on the right.  A
    letter added on either side keeps the column order."""
    code = -column
    length, bits = code >> 2 * _FIELD, code & ((1 << _FIELD) - 1)
    a_w = code + (1 << 2 * _FIELD)
    w_a = a_w + bits
    x = 1 << _FIELD
    return -a_w, -(a_w + x + (1 << length)), -w_a, -(w_a + x + 1)


class _Rows:
    """A pivot table that holds its rows as references and builds each row
    when it is read; ``_reduce_row`` only calls ``get``.  ``refs[lead]`` is
    a row, or the pair (t, k) naming the echelon row of level t that is
    u * r for the r with |u| = t - k that reduction kept at level k (see
    ``_IdealEchelon``); lead = u * lead(r) gives both u and lead(r)."""

    __slots__ = ("refs", "kept")

    def __init__(self, refs: dict, kept: list):
        self.refs, self.kept = refs, kept

    def get(self, lead: int):
        ref = self.refs.get(lead)
        if type(ref) is not tuple:
            return ref
        t, k = ref
        if t == k:
            return self.kept[k][lead]
        # the prefix u adds to each column's code t - k to the length, its
        # x-count to the x-count and its digits, shifted past the word, to
        # the letters
        code, high = -lead, 2 * _FIELD
        tail = (code >> high) - t + k
        u = (code & ((1 << _FIELD) - 1)) >> tail
        shift = ((t - k) << high) + (u.bit_count() << _FIELD)
        row = {}
        # a loop, not a comprehension: its frame cost a fifth of each build (Python 3.11)
        for column, v in self.kept[k][shift + (u << tail) - code].items():
            row[column - shift - (u << (-column >> high))] = v
        return row


class _IdealEchelon:
    """Row echelon of the ideal of one monic g, built level by level.

    Level t holds W_t, the span of the rows u * sigma_j * v with
    |u| + |v| = t.  Splitting off the first letter of u gives

        W_t = a * W_{t-1} + x * W_{t-1} + span{ sigma_j * v : |v| = t }.

    Let N_{t-1} be the rows that reduction added at level t - 1, so that
    W_{t-1} = a * W_{t-2} + x * W_{t-2} + span N_{t-1}.  Each sigma_j * v
    with |v| = t lies in W_{t-1} * a + W_{t-1} * x, and W_{t-2} * c lies in
    W_{t-1} for each letter c, so

        W_t = a * W_{t-1} + x * W_{t-1} + N_{t-1} * a + N_{t-1} * x.

    Prepending a letter keeps the column order, so the rows a * E and x * E
    of an echelon basis E of W_{t-1} keep distinct leads and enter the
    echelon of W_t with no arithmetic; only the 2 * |N_{t-1}| rows
    N_{t-1} * c are reduced, and at level 0 the n - 1 rows sigma_j.  None of
    this needs g homogeneous.  Each level is then merged into the cumulative
    pivot table of W_0 + ... + W_t, the row space at bound t + n.  The merge
    is free when every row keeps its top length, as for g = r_n x^n, whose
    ideal is graded, so that no level past the bound read can change the
    profile up to it; lower terms of g can cancel that length, and such
    rows are reduced against the table.

    So every echelon row of W_t is u * r for one r in some N_k, with
    |u| = t - k, and only the rows N_k are stored.  A level is held as its
    leads, each mapped to the reference (t, k); the next level grows the
    leads alone, by ``_grow``.  A row is built from its reference only when
    reduction reads it (``_Rows``): the reductions of x^2, x^3 and x^4 to
    bound 12 read about 6,000 of the 22,000 rows a * E and x * E of their
    levels.  The cumulative table holds the same references, and a row only
    where the merge reduced it.
    """

    def __init__(self, gm: DefiningPolynomial):
        self.n = gm.degree
        self.kept: list = []  # per level k, N_k as {lead: row}
        self.basis = _Rows({}, self.kept)  # echelon basis of the last level's W_t
        # the last level's N_t; before level 0, the sigma_j
        self.new = [
            _integer_row(dict(defining_relation(gm, j).items()), _word_column)
            for j in range(1, self.n)
        ]
        self.pivots: dict = {}  # echelon of W_0 + ... + W_t, level by level
        self.sizes: list = []  # len(self.pivots) after each level
        self.profiles: list = []  # pivot counts per lead length after each level

    def profile(self, level: int) -> list:
        self._extend(level)
        return list(self.profiles[level])

    def pivots_at(self, level: int) -> _Rows:
        """The pivot table of W_0 + ... + W_level, as a view that builds a
        row when it is read.  Pivots are added level by level and never
        changed, so it is a prefix of the current table; later levels are
        left out, as lower terms of g may reduce their rows to shorter
        lengths."""
        self._extend(level)
        return _Rows(dict(islice(self.pivots.items(), self.sizes[level])), self.kept)

    def _extend(self, level: int) -> None:
        while len(self.sizes) <= level:
            self._add_level(len(self.sizes))

    def _add_level(self, t: int) -> None:
        refs = [(t, k) for k in range(t + 1)]  # one pair per k, shared by its leads
        grown = [(_grow(lead), refs[k]) for lead, (_, k) in self.basis.refs.items()]
        leads = {columns[letter]: ref for letter in (0, 1) for columns, ref in grown}
        rows = self.new
        # each row times a, then times x; all of N * a before N * x took 21 %
        # more elimination steps over the pbw suite
        if t:
            rows = [
                {columns[side]: v for columns, v in zip(map(_grow, row), row.values())}
                for row in rows
                for side in (2, 3)
            ]
        kept: dict = {}
        self.kept.append(kept)
        self.basis = basis = _Rows(leads, self.kept)
        for row in rows:
            reduced = _reduce_row(row, basis)
            if reduced:
                lead = min(reduced)
                kept[lead] = reduced
                leads[lead] = refs[t]
        self.new = kept.values()
        profile = list(self.profiles[-1]) if self.profiles else []
        profile.extend([0] * (t + self.n + 1 - len(profile)))
        table = _Rows(self.pivots, self.kept)
        for lead, ref in leads.items():
            if lead in self.pivots:
                ref = _reduce_row(basis.get(lead), table)
                if not ref:
                    continue
                lead = min(ref)
            self.pivots[lead] = ref
            profile[-lead >> 2 * _FIELD] += 1
        self.sizes.append(len(self.pivots))
        self.profiles.append(tuple(profile))


# One build per g serves every bound.  A build lives only as long as the
# caller's g: a finished suite frees it (under 1 MiB at bound 12) before
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
    one after level b - n, and a larger bound only adds levels.  The bound
    is at most ``MAX_ORACLE_BOUND``, as a resource guard and the longest
    word a column holds.
    """
    if bound > MAX_ORACLE_BOUND:
        raise ValueError(f"resource guard: bound must be <= {MAX_ORACLE_BOUND}")
    if bound < g.degree:
        return [0] * (bound + 1)
    return _echelon(g).profile(bound - g.degree)


def _dimension_at(profile: list, ell: int) -> int:
    words = 2 ** (ell + 1) - 1
    pivots = sum(profile[: ell + 1])
    return words - pivots


ORACLE_SLACK = 2


@dataclass
class DimOracleResult:
    dimension: int
    stable: bool
    # dimensions at bounds ell+s, ell+s+1, ell+s+2; for a homogeneous g all
    # three at bound ell, where the graded ideal makes the value exact
    values: tuple


def dimension_oracle(g: DefiningPolynomial, ell: int) -> DimOracleResult:
    """Filtration dimension of the quotient at degree <= ell, via exact rank.

    Reads the row space at bounds ell+s, ell+s+1, ell+s+2, with s =
    ``ORACLE_SLACK``; ``stable`` says that all three agree.  That is a
    heuristic, not a certificate: the free algebra gives no a-priori degree
    bound on ideal elements, so rows of a longer bound could still lower
    the value.  A homogeneous g = r_n x^n is the exception: every sigma_j
    is homogeneous of length n, so the ideal is graded and I cap F_ell is
    spanned by the rows u * sigma_j * v of length <= ell (Bergman 1978).
    All three bounds are then ell, and the value and ``stable`` are
    certified.  The bounds are levels of one level-by-level build of g,
    shared with every other call for the same g.  Every bound is capped at
    12 words of length, as a resource guard.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    if ell + ORACLE_SLACK + 2 > MAX_ORACLE_BOUND:
        raise ValueError(
            f"resource guard: ell must be <= {MAX_ORACLE_BOUND - ORACLE_SLACK - 2}"
        )
    low = ell + ORACLE_SLACK
    bounds = range(low, low + 3) if any(g.coefficients[:-1]) else (ell, ell, ell)
    values = tuple(_dimension_at(ideal_filtration_profile(g, b), ell) for b in bounds)
    return DimOracleResult(values[-1], len(set(values)) == 1, values)


def ideal_span_contains(g: DefiningPolynomial, poly: NcPoly, bound: int | None = None) -> bool:
    """Linear-algebra membership: does poly lie in the span of
    u * sigma_j * v with total length <= bound?

    Every elementary reduction step stays within the starting length, so
    bound = poly.degree() suffices to witness normal_form(w) - w.  The span
    holds no word longer than the bound, and only zero below degree n.
    """
    if poly.is_zero():
        return True
    if bound is None:
        bound = poly.degree()
    if bound > _MEMBERSHIP_BOUND:
        raise ValueError(f"resource guard: membership bound must be <= {_MEMBERSHIP_BOUND}")
    if len(poly.alphabet) != 2:
        raise ValueError("membership is defined for the two-letter alphabet {a, x}")
    if poly.degree() > bound or bound < g.degree:
        return False
    vector = _integer_row(dict(poly.items()), _word_column)
    return not _reduce_row(vector, _echelon(g).pivots_at(bound - g.degree))


# ---------------------------------------------------------------------------
# Centrality
# ---------------------------------------------------------------------------


def commutator(poly: NcPoly, letter: int) -> NcPoly:
    """poly * c - c * poly for the generator c = ``letter``: one sum of the
    two shifted term streams, with no product or negation built on the way."""
    c = (letter,)
    terms = poly.items()
    return NcPoly(
        poly.alphabet, chain(((w + c, k) for w, k in terms), ((c + w, -k) for w, k in terms))
    )


def commutes_with_letter(poly: NcPoly, letter: int, system) -> bool:
    """poly commutes with the generator ``letter``: their ``commutator``
    reduces to zero."""
    return normal_form(commutator(poly, letter), system).is_zero()


def is_central(poly: NcPoly, system) -> bool:
    """poly commutes with every generator, modulo the system."""
    return all(
        commutes_with_letter(poly, letter, system) for letter in range(len(system.alphabet))
    )


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


def degree_three_centre_element(g: DefiningPolynomial) -> NcPoly:
    """axax - x^2 a^2 - r_2 x a^2 - r_1 a^2, central for every monic cubic g."""
    if g.degree != 3:
        raise ValueError("need a degree-3 defining polynomial")
    a, x = 0, 1

    def mono(word, coeff=1):
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
    by weighted degree, each letter weighing as in ``tensor_alphabet``.

    The count per degree is the product of four series: the curve monomials
    x^i y^j (j < m), the block series 1 / (1 - sum_b t^(w |b|)) of each
    factor, and the tails a^i b^j (j < m), which weigh as the curve
    monomials do."""
    n, m = g.degree, f.degree
    _, wx, _, wy = tensor_alphabet(n, m).weights
    degrees = range(max_degree + 1)
    curve = [0] * (max_degree + 1)
    for j in range(m):
        for d in range(wy * j, max_degree + 1, wx):
            curve[d] += 1
    factors = [curve, curve]
    for k, weight in ((n, wx), (m, wy)):
        steps = [weight * len(block) for block in pbw_block_letters(k)]
        series = [1]
        for d in degrees[1:]:
            series.append(sum(series[d - step] for step in steps if step <= d))
        factors.append(series)
    product = [1] + [0] * max_degree
    for factor in factors:
        product = [sum(product[i] * factor[d - i] for i in range(d + 1)) for d in degrees]
    return list(accumulate(product))


def quotient_dimension_tensor(
    g: DefiningPolynomial, f: DefiningPolynomial, max_degree: int
) -> TensorQuotientReport:
    """Exact filtration dimensions of T / (g - f, a^n - b^m) at every
    weighted degree <= max_degree, versus the standard-monomial census.

    Both relations are central, so the two-sided ideal piece is spanned by
    left multiples (u (x) w) * z over the pair basis, with one normal form
    per leg word and relation (see the module docstring); the dimensions
    are read off a sparse exact row echelon of those rows.  A mismatch is
    reported with the first disagreeing degree, never raised.
    """
    n, m = g.degree, f.degree
    left, right = build_system(g, AX).system, build_system(f, BY).system
    if not check_confluence(left).overall:
        raise ValueError("first factor system is not confluent")
    if not check_confluence(right).overall:
        raise ValueError("second factor system is not confluent")
    _, wx, _, wy = tensor_alphabet(n, m).weights

    left_words = pbw_words(n, max_degree // wx)
    right_words = pbw_words(m, max_degree // wy)
    pairs = []
    for u in left_words:
        for w in right_words:
            wdeg = wx * len(u) + wy * len(w)
            if wdeg <= max_degree:
                pairs.append((wdeg, u, w))
    pairs.sort()
    # ranks run by descending weighted degree, then by (u, w)
    ordered = sorted(pairs, key=lambda t: -t[0])
    rank_of = {(u, w): i for i, (_, u, w) in enumerate(ordered)}

    top = n * m

    def leg_forms(words, weight, system, tails):
        # word -> nf(word * tail) for each tail, for every word that heads a row
        return {
            word: [
                normal_form(NcPoly.monomial(system.alphabet, word) * tail, system)
                for tail in tails
            ]
            for word in words
            if weight * len(word) + top <= max_degree
        }

    # the legs (p, q) of z = g(x) (x) 1 - 1 (x) f(y) and z = a^n (x) 1 - 1 (x) b^m
    left_forms = leg_forms(
        left_words, wx, left, (g.as_ncpoly(AX, 1), NcPoly.monomial(AX, (0,) * n))
    )
    right_forms = leg_forms(
        right_words, wy, right, (f.as_ncpoly(BY, 1), NcPoly.monomial(BY, (0,) * m))
    )
    pivots: dict = {}
    for wdeg, u, w in pairs:
        if wdeg + top > max_degree:
            continue
        for p, q in zip(left_forms[u], right_forms[w]):
            row = TensorPoly(
                AX, [((wl, w), c) for wl, c in p.items()] + [((u, wr), -c) for wr, c in q.items()]
            )
            reduced = _reduce_row(_integer_row(dict(row.items()), rank_of.__getitem__), pivots)
            if reduced:
                pivots[min(reduced)] = reduced
    # pairs minus pivot leads, per weighted degree
    free = [0] * (max_degree + 1)
    for wdeg, _, _ in pairs:
        free[wdeg] += 1
    for lead in pivots:
        free[ordered[lead][0]] -= 1
    rank_dims, census = list(accumulate(free)), _census_counts(g, f, max_degree)
    first_mismatch = next(
        (d for d, (rank, count) in enumerate(zip(rank_dims, census)) if rank != count), None
    )
    return TensorQuotientReport(list(range(max_degree + 1)), rank_dims, census, first_mismatch)


# ---------------------------------------------------------------------------
# The degree-2 identities
# ---------------------------------------------------------------------------


def _shifted_generator(alphabet: Alphabet, r: Fraction) -> NcPoly:
    """x' = x + (r/2)(1 - a), with a and x the letters 0 and 1 of
    ``alphabet``."""
    return (
        NcPoly.generator(alphabet, 1)
        + NcPoly.one(alphabet).scale(r / 2)
        - NcPoly.monomial(alphabet, (0,), r / 2)
    )


def degree_two_anticommutes(r, system=None) -> bool:
    """a x' + x' a reduces to zero, with x' = x + (r/2)(1 - a), in the system
    of g = t^2 + r t: ``system``, or that of ``build_system`` when none is
    given."""
    r = Fraction(r)
    if system is None:
        system = build_system(DefiningPolynomial.from_coefficients((r, 1))).system
    a, x_prime = NcPoly.generator(AX, 0), _shifted_generator(AX, r)
    return normal_form(a * x_prime + x_prime * a, system).is_zero()


def degree_two_identities(r, s) -> tuple:
    """The degree-2 change of variable and the tensor-square identity.

    With x' = x + (r/2)(1 - a):  a x' + x' a  reduces to zero
    (``degree_two_anticommutes``), and in the tensor algebra of the two
    quadratic factors

        x'^2 - y'^2 = (g - f) + (r^2 - s^2)/4 - (r^2 a^2 - s^2 b^2)/4.

    The juxtaposed variant with f - g in place of g - f is also evaluated:
    it differs by 2(g - f) and is reported as a discrepancy witness, not
    asserted.  Returns (a x' + x' a is zero, the identity holds, the
    variant is zero).
    """
    r, s = Fraction(r), Fraction(s)
    g = DefiningPolynomial.from_coefficients((r, 1))
    f = DefiningPolynomial.from_coefficients((s, 1))
    left = build_system(g).system
    right = build_system(f, BY).system
    anticommute = degree_two_anticommutes(r, left)
    x_prime, y_prime = _shifted_generator(AX, r), _shifted_generator(BY, s)
    a, x = 0, 1
    b, y = 0, 1

    def legs(p: NcPoly, q: NcPoly) -> TensorPoly:
        """p (x) 1 + 1 (x) q, for p over AX and q over BY."""
        return TensorPoly(
            AX, [((w, ()), c) for w, c in p.items()] + [(((), w), c) for w, c in q.items()]
        )

    lhs = legs(normal_form(x_prime * x_prime, left), -normal_form(y_prime * y_prime, right))
    g_minus_f = legs(g.as_ncpoly(AX, x), -f.as_ncpoly(BY, y))
    correction = legs(
        NcPoly.one(AX).scale((r * r - s * s) / 4) - NcPoly.monomial(AX, (a, a), r * r / 4),
        NcPoly.monomial(BY, (b, b), s * s / 4),
    )
    identity_ok = (lhs - (g_minus_f + correction)).is_zero()
    displayed_variant = lhs - ((-g_minus_f) + correction)
    return anticommute, identity_ok, displayed_variant.is_zero()


# ---------------------------------------------------------------------------
# Randomized inputs
# ---------------------------------------------------------------------------


def random_defining_polynomial(rng, degree: int) -> DefiningPolynomial:
    """Random monic defining polynomial with numerators and denominators
    bounded by 9."""
    coeffs = [
        Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for _ in range(degree - 1)
    ]
    coeffs.append(Fraction(1))
    return DefiningPolynomial(tuple(coeffs))


def random_ncpoly(rng, alphabet: Alphabet, max_len: int, terms: int) -> NcPoly:
    def term():
        word = tuple(rng.randrange(len(alphabet)) for _ in range(rng.randint(0, max_len)))
        return word, Fraction(rng.randint(-5, 5), rng.randint(1, 5))

    return NcPoly(alphabet, (term() for _ in range(terms)))
