"""Reduction systems, normal forms, ambiguities and confluence checking.

The reduction strategy is deterministic: always rewrite the order-largest
reducible monomial, using the leftmost occurrence of the order-largest
applicable left side.  An ambiguity is resolvable exactly when its
S-polynomial, the difference of its two one-step rewrites, reduces to zero;
the strategy makes ``normal_form`` linear, so a nonzero result is the
difference of two distinct normal forms of the same word and certifies
non-confluence of the system itself, not merely of the strategy.

Not every S-polynomial needs a reduction.  The diamond lemma (Bergman 1978,
Theorem 1.2) asks only that each ambiguity on a word w be resolvable
relative to the order: its S-polynomial lies in I_w, the span of the
u (W - f) v with u W v < w.  Let w = A B C be an overlap, sigma at
[0, |AB|) and tau at [|A|, |w|), and let another occurrence of a left side
W_k in w meet each of the two either not at all (the spans are disjoint or
only touch) or in a union of spans strictly shorter than w.  Then
S(sigma, tau) = (f_sigma - f_k) + (f_k - f_tau), where f_i is the one-step
rewrite of w at the occurrence of W_i.  Each bracket is either the
difference of two disjoint rewrites, which lies in I_w, or u S' v for the
S-polynomial S' of an ambiguity on a strictly shorter subword w' of w,
and u I_w' v lies in I_w.  By induction on |w|, every such implied
ambiguity is resolvable relative to the order once every other one
reduces to zero, and the system is then confluent.  This is the
noncommutative form of Buchberger's chain criterion (Buchberger 1979;
Gebauer and Moeller 1988).  An inclusion is never implied, since sigma
spans all of w.  The argument assumes what the diamond lemma assumes: the
order is a semigroup order (u < v gives s u t < s v t) with the descending
chain condition, and every rule is compatible with it.  ``check_confluence``
reduces the implied ambiguities only when some other one does not reduce
to zero, so its verdicts and differences are those of reducing all of them.

One mechanism finds left sides in a word: ``ObstructionAutomaton.walk``,
a walk of the system's obstruction automaton, answers ``match`` (None for
an irreducible word), and the same automaton drives the census of
irreducible words in ``analysis``.  A step of ``_reduce`` rewrites
``word = P lhs S`` into the words ``P r S``, one per right-side word ``r``,
and resumes their walks instead of starting each at state 0: the prefix
``P`` is walked once, the walk of every ``r`` from the state after ``P`` is
looked up in a memo keyed by (lhs, state), and only ``S`` is walked per
new word.  The state after ``P`` depends only on ``P``, and no rank-0 left
side ends inside ``P`` (the step's match is the best rank at its leftmost
end), so the resumed walk finds the same match as a walk of the whole word.

The compatibility check, the rank order, the automaton and these walks,
the ambiguities and their linking occurrences, and the exponent of each
run depend only on the rule words, the order and the exponents, not on
the coefficients.  ``RuleShape`` holds them, shared by every system with
the same words, order and exponents from a memo of at most ``MEMO_SIZE``
shapes: the g of one degree differ only in their coefficients, so
``diamond verify all`` needs few.  The memo is keyed by the rules'
``RuleWords``, which compare by identity: one object per rule of a family
(see ``presentations``), and one per distinct scanned rule, so the shape
of a system filled from a family is found without hashing its words.

A system over Q reduces in the integers, and one over Q(zeta_N) in
Z[zeta_N].  Let D be the lcm of the denominators of the coefficients'
rational entries (a residue's entries, or the rational itself), and let
e(w) = sum of k_c #c(w) over the exponents k_c >= 0 that the system's
builder states per letter: #x for the system of one g, #x + n #y for the
tensor system of a pair.  The algebra automorphism w -> D^(-e(w)) * w
sends each rule lhs -> sum c_w w to a scalar multiple of the rule
lhs -> sum c_w D^(e(lhs) - e(w)) w.  When every such coefficient is
integral the system reduces with these right sides, its reducts: ``int``s,
or residues with ``int`` entries.  Nothing is searched: otherwise, or with
no exponents, the system reduces with its coefficients as given (as
``int``s when D = 1), with m = 1 and no map.  The values of the reducts are
made per run, not per term.  Each rule's right side is a sequence of runs
(``RuleWords``): words with the same letters, so with one exponent, that
take one entry of the rule's coefficient tuple, or its negation.  A builder
states the runs of the rules it fills from a family; the system finds those
of any other rule by a scan that makes each term a run.  ``scaled_integer``
is called once per coefficient object and exponent: once per coefficient
r_i for the system of one g, whose a^n runs take the negated value of the
r_j run of the same exponent.  The
rules are monic in their left sides and Phi_N is monic over Z, so the loop
never divides and the reducts stay integral.  The public rules stay as
given; the reducts are the one working copy.  Every reduction starts from
a term map in the integral domain and its multiplier m, the map in being
c -> c * m / D^e(w).  ``normal_form`` maps its input in (m clearing
denominators); the two one-step rewrites of an ambiguity on A B C, built
from the reducts, are D^e(ABC) times their rescaled images, so they are
integral already.  ``_reduce_back`` then divides out the common factor of
m and the entries, runs the one loop ``_reduce``, and maps the result back
(c -> c * D^e(w) / m).  The helpers live in ``scalars``; ``int`` shares the
arithmetic protocol of ``Fraction``, ``Cyclotomic`` keeps ``int`` entries
as ``int``, and the term maps use the integers 1 and 0 as units, so no
``Fraction`` is built between the two maps (the fraction-free idea of
Bareiss 1968).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .freealg import MEMO_SIZE, Alphabet, NcPoly, Word, render_word
from .ordering import check_compatibility
from .scalars import (
    common_denominator,
    divide_content,
    entries,
    exponent,
    rescale,
    scaled_integer,
    unscale,
)

DEFAULT_BUDGET = 10_000_000

RESOLVABLE = "resolvable"
NOT_CONFLUENT = "not_confluent"


class ReductionBudgetExceeded(RuntimeError):
    """Raised when a normal-form computation exceeds its step budget."""


class IncompatibleSystem(ValueError):
    """Raised at construction when some rule is not oriented downhill;
    ``violations`` lists (rule label, word) per right side's offending word."""

    def __init__(self, violations, rules, alphabet):
        self.violations = [(rules[i].label, w) for i, w in violations]
        words = ", ".join(f"{label}: {render_word(alphabet, w)}" for label, w in self.violations)
        super().__init__(f"rules not compatible with the order ({words})")


@dataclass(frozen=True)
class Rule:
    """An oriented relation lhs -> rhs with lhs a single word.

    ``runs`` is (``RuleWords``, coefficient tuple) when a builder filled the
    rule from a family, so that rhs is the sum of its runs; it is None for
    any other rule, whose runs the system finds by a scan."""

    lhs: Word
    rhs: NcPoly
    label: str
    runs: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.lhs:
            raise ValueError("rule left side must be a nonempty word")


class RuleWords:
    """The words of one rule: its left side ``lhs``, and its right side as
    ``runs``, (words, index, sign) per run in term order.  The words of a
    run have the same letters, and each takes sign * c[index] of the rule's
    coefficient tuple c.  ``words`` lists all right-side words in term
    order.  Compared by identity: each is made once per rule of a family or
    per distinct scanned rule, and keys the shape memo."""

    __slots__ = ("lhs", "runs", "words")

    def __init__(self, lhs: Word, runs: tuple):
        self.lhs = lhs
        self.runs = runs
        self.words = tuple(word for run, _, _ in runs for word in run)


@lru_cache(maxsize=MEMO_SIZE)
def _scanned_words(lhs: Word, words: tuple) -> RuleWords:
    # the runs of a rule no family filled: each term is a run
    return RuleWords(lhs, tuple(((word,), i, 1) for i, word in enumerate(words)))


def _rule_runs(rule: Rule) -> tuple:
    """(``RuleWords``, coefficient tuple) of ``rule``: as filled, or scanned."""
    if rule.runs is not None:
        return rule.runs
    items = rule.rhs.items()
    return _scanned_words(rule.lhs, tuple(w for w, _ in items)), tuple(c for _, c in items)


@dataclass
class ReductionStats:
    steps: int = 0
    max_support: int = 0


class ObstructionAutomaton:
    """Aho-Corasick automaton of a system's left sides (Aho & Corasick 1975),
    completed to a DFA over the letters ``0 .. k-1``.

    ``left_sides`` are words in rank order, rank 0 first: ``RuleShape``
    ranks them by descending order, ties in rule order.  State 0 is the
    empty prefix; ``delta[s][c]`` is the state after reading letter ``c``
    in state ``s``; ``rank[s]`` is the smallest rank of a left side that
    ends at ``s``, on ``s`` itself or on its failure chain, and
    ``len(left_sides)`` when none does.  A word is irreducible exactly when
    its walk from state 0 stays on states of rank ``len(left_sides)``.

    ``walk`` is the one walk loop.  It can resume: the triple it returns
    for ``u``, passed back in with the offset ``len(u)``, continues the
    walk through ``v`` exactly as a walk of ``u + v`` would.
    ``_reduce`` uses this to walk only the prefix and the suffix of
    each rewritten word, and keeps the walks of the right-side words in
    ``RuleShape.walks``: one (state, best, end) triple per right-side word,
    keyed by (lhs, state), so at most rules x states keys per shape and at
    most ``MEMO_SIZE`` shapes.
    """

    __slots__ = ("left_sides", "delta", "rank")

    def __init__(self, left_sides, k: int):
        self.left_sides = tuple(left_sides)
        none = len(self.left_sides)
        goto = [{}]
        rank = [none]
        for r, lhs in enumerate(self.left_sides):
            state = 0
            for c in lhs:
                nxt = goto[state].get(c)
                if nxt is None:
                    nxt = len(goto)
                    goto[state][c] = nxt
                    goto.append({})
                    rank.append(none)
                state = nxt
            rank[state] = r
        fail = [0] * len(goto)
        delta = [None] * len(goto)
        delta[0] = [goto[0].get(c, 0) for c in range(k)]
        # breadth first, so a failure target is complete before it is used
        queue = deque(goto[0].values())
        while queue:
            state = queue.popleft()
            back = delta[fail[state]]
            rank[state] = min(rank[state], rank[fail[state]])
            delta[state] = [goto[state].get(c, back[c]) for c in range(k)]
            for c, child in goto[state].items():
                fail[child] = back[c]
                queue.append(child)
        self.delta = delta
        self.rank = rank

    def walk(
        self, word: Word, state: int = 0, best: int | None = None, end: int = 0, offset: int = 0
    ):
        """Walk ``word`` from ``state`` and return (state, best, end).

        ``best`` is the smallest rank seen (``len(left_sides)`` for none, the
        default) and ``end`` the position where it first ends, counting the
        letters of ``word`` from ``offset``.  Strict ``<`` keeps the
        leftmost end of the best rank; rank 0 cannot be beaten and stops
        the walk, so the returned state is only the state after ``word``
        when ``best`` is not 0.
        """
        if best is None:
            best = len(self.left_sides)
        elif not best:
            return state, best, end
        delta, rank = self.delta, self.rank
        for i, c in enumerate(word, offset):
            state = delta[state][c]
            r = rank[state]
            if r < best:
                best, end = r, i
                if not r:
                    break
        return state, best, end


def _scaled_reducts(filled, exponents, scale: int):
    """Per rule, the (word, c D^e) pairs of its runs in term order, with e
    the run's exponent, or None when one is not integral.  Each coefficient
    object is scaled once per exponent; a run of sign -1 takes the negated
    value."""
    values = {}
    rows = []
    for (words, coefficients), powers in zip(filled, exponents):
        row = []
        for (run, index, sign), power in zip(words.runs, powers):
            key = id(coefficients[index]), power
            value = values.get(key)
            if value is None:
                value = values[key] = scaled_integer(coefficients[index], scale, power)
                if value is None:
                    return None
            if sign < 0:
                value = -value
            # a word only takes its run's value: appended one by one, runs of
            # 1 to 126 words built 15-35 % faster than by zip(run, repeat(value))
            # (Python 3.11)
            for word in run:
                row.append((word, value))
        rows.append(tuple(row))
    return rows


class RuleShape:
    """What the rule words, the order and the exponents determine (see the
    module docstring).  ``words`` lists (lhs, right-side words in term
    order) per rule; ``violations`` is ``check_compatibility``'s, ``ranks``
    the rule indices by descending left side, ``exponents`` the exponent
    e(lhs) - e(w) of each run per rule under ``weights``, and ``walks`` maps
    (lhs, state) to the walks of lhs's right-side words from state;
    ``triples`` interns them."""

    def __init__(self, k: int, order, rule_words, weights):
        self.words = tuple((rw.lhs, rw.words) for rw in rule_words)
        seen = set()
        for lhs, _ in self.words:
            if lhs in seen:
                raise ValueError(f"duplicate rule left side {lhs}")
            seen.add(lhs)
        self.k = k
        self.violations = check_compatibility(order, self.words)
        # a stable sort keeps ties in rule order
        keys = [order.sort_key(lhs) for lhs, _ in self.words]
        self.ranks = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
        # the words of a run have the same letters, so its first word's
        # exponent is the run's
        self.exponents = [
            [exponent(rw.lhs, weights) - exponent(run[0], weights) for run, _, _ in rw.runs]
            for rw in rule_words
        ]
        self.walks = {}
        self.triples = {}

    @cached_property
    def automaton(self) -> ObstructionAutomaton:
        """The obstruction automaton of the left sides, built on first use."""
        return ObstructionAutomaton((self.words[i][0] for i in self.ranks), self.k)

    @cached_property
    def ambiguities(self) -> tuple:
        """``find_ambiguities``' list, as a tuple: it reads only the left
        sides in rule order."""
        return tuple(_ambiguities([lhs for lhs, _ in self.words]))

    @cached_property
    def links(self) -> tuple:
        """The ``_linking_occurrence`` of each ambiguity, in its order."""
        left_sides = [lhs for lhs, _ in self.words]
        return tuple(_linking_occurrence(amb, left_sides) for amb in self.ambiguities)


_rule_shape = lru_cache(maxsize=MEMO_SIZE)(RuleShape)


class ReductionSystem:
    """Oriented rules over one alphabet together with a compatible order.

    The coefficient domain is chosen here (see the module docstring) from
    ``exponents``, one rescaling exponent k >= 0 per letter, or none.
    ``rescaling`` is (D, weights) when the system reduces with integral
    reducts (``int`` over Q, ``int`` residues over Q(zeta_N)) rescaled by D
    with the (letter, k) pairs of k > 0 (no pairs if D = 1), and None when it
    reduces with its coefficients as given.  ``rules`` are the given rules,
    with the caller's scalars; ``name`` is a string, or a function to render it.
    """

    def __init__(self, alphabet: Alphabet, order, rules, name="", exponents=()):
        rules = list(rules)
        if len(exponents) not in (0, len(alphabet)) or not all(
            type(k) is int and k >= 0 for k in exponents
        ):
            raise ValueError(f"exponents must be one integer >= 0 per letter, got {exponents!r}")
        weights = tuple((c, k) for c, k in enumerate(exponents) if k)
        filled = [_rule_runs(rule) for rule in rules]
        shape = _rule_shape(len(alphabet), order, tuple(words for words, _ in filled), weights)
        if shape.violations:
            raise IncompatibleSystem(shape.violations, rules, alphabet)
        # D, the lcm of the denominators of the rational entries, is read off
        # the coefficient tuples, which a family's rules share
        tuples = {id(c): c for _, c in filled}
        scale = common_denominator(v for c in tuples.values() for x in c for v in entries(x))
        rows = None if scale is None else _scaled_reducts(filled, shape.exponents, scale)
        # _reducts: what _reduce substitutes for each left side, in the
        # order of the given terms, so aligned with the shape's words and walks
        if rows is None:
            self.rescaling = None
            self._reducts = {rule.lhs: tuple(rule.rhs.items()) for rule in rules}
        else:
            self.rescaling = (scale, weights if scale > 1 else ())
            self._reducts = {rule.lhs: row for rule, row in zip(rules, rows)}
        self.alphabet = alphabet
        self.order = order
        self.rules = tuple(rules)
        self._shape = shape
        self._name = name
        self.budget = DEFAULT_BUDGET

    @cached_property
    def name(self) -> str:
        return self._name() if callable(self._name) else self._name

    @property
    def automaton(self) -> ObstructionAutomaton:
        """The obstruction automaton of the left sides, built on first use."""
        return self._shape.automaton

    def match(self, word: Word):
        """(rule, position) for the order-largest applicable left side at its
        leftmost occurrence, or None when the word is irreducible.

        One walk of the automaton from state 0 (``ObstructionAutomaton.walk``).
        """
        _, best, end = self._shape.automaton.walk(word)
        ranks = self._shape.ranks
        if best == len(ranks):
            return None
        rule = self.rules[ranks[best]]
        return rule, end + 1 - len(rule.lhs)

    def describe(self) -> str:
        return self.name or f"system({len(self.rules)} rules)"

    def rules_json(self) -> list:
        """The rules as the {label, lhs, rhs} entries of a JSON report."""
        return [
            {
                "label": rule.label,
                "lhs": render_word(self.alphabet, rule.lhs),
                "rhs": rule.rhs.render(self.order),
            }
            for rule in self.rules
        ]


class _Rev:
    # max-heap adaptor for heapq; carries the word's match (lhs, position),
    # found on push
    __slots__ = ("key", "word", "found")

    def __init__(self, key, word, found):
        self.key = key
        self.word = word
        self.found = found

    def __lt__(self, other):
        return self.key > other.key


def normal_form(
    poly: NcPoly, system: ReductionSystem, stats: ReductionStats | None = None
) -> NcPoly:
    """Reduce to normal form under the deterministic strategy: each step
    rewrites the order-largest reducible monomial.

    Terminates for every compatible system by the descending chain
    condition; the step budget ``system.budget`` is a diagnostic guard
    against misuse with incompatible inputs.  A rescaled system maps the
    input into its integral domain with ``rescale``, and ``_reduce_back``
    does the steps and maps the result back (see the module docstring).
    """
    rescaling = system.rescaling
    if rescaling is None:
        terms, m = dict(poly.items()), 1
    else:
        terms, m = rescale(poly.items(), *rescaling)
    return NcPoly(poly.alphabet, _reduce_back(terms, m, system, stats))


def _reduce_back(terms: dict, m: int, system: ReductionSystem, stats=None) -> dict:
    """The normal form of ``terms`` / ``m``, where ``terms`` is a term map in
    the system's reduction domain, mapped back out of it.  A multiplier
    m > 1 comes with integral terms; their common factor with m is divided
    out first (``divide_content``), so that m is the least that clears the
    denominators and the result has the coefficient types of ``unscale``."""
    terms, m = divide_content(terms, m)
    terms = _reduce(terms, system, stats)
    if system.rescaling is None:
        return terms
    return unscale(terms, *system.rescaling, m)


def _reduce(terms: dict, system: ReductionSystem, stats: ReductionStats | None) -> dict:
    """The normal form of ``terms``, a word -> coefficient map in the
    system's reduction domain, reduced in place and returned."""
    budget = system.budget
    order = system.order
    match = system.match
    reducts = system._reducts
    shape = system._shape
    walk, walks, triples = shape.automaton.walk, shape.walks, shape.triples
    left_sides = shape.automaton.left_sides
    none = len(left_sides)
    heap = []
    for word in terms:
        found = match(word)
        if found is not None:
            rule, pos = found
            heapq.heappush(heap, _Rev(order.sort_key(word), word, (rule.lhs, pos)))
    steps = 0
    max_support = len(terms)
    while heap:
        item = heapq.heappop(heap)
        word = item.word
        coeff = terms.get(word)
        # no map here holds a zero: a falsy coeff means the word left the map
        if not coeff:
            continue
        lhs, pos = item.found
        del terms[word]
        steps += 1
        if steps > budget:
            raise ReductionBudgetExceeded(
                f"exceeded {budget} elementary reductions in {system.describe()}"
            )
        prefix = word[:pos]
        suffix = word[pos + len(lhs) :]
        # no rank-0 left side ends inside the prefix, so its walk runs to
        # the end and its state is the state after the prefix
        state, pbest, pend = walk(prefix)
        rhs = reducts[lhs]
        rwalks = walks.get((lhs, state))
        if rwalks is None:
            rwalks = walks[lhs, state] = tuple(
                triples.setdefault(t, t) for t in (walk(rword, state) for rword, _ in rhs)
            )
        # summed in place: a new NcPoly per step made confluence 36 % slower (Python 3.11)
        for (rword, rcoeff), (rstate, rbest, rend) in zip(rhs, rwalks):
            new_word = prefix + rword + suffix
            if new_word in terms:
                total = terms[new_word] + coeff * rcoeff
                if total:
                    terms[new_word] = total
                else:
                    del terms[new_word]
            else:
                value = coeff * rcoeff
                if value:
                    terms[new_word] = value
                    # ties go to the prefix, whose occurrence ends first
                    if rbest < pbest:
                        best, end = rbest, pos + rend
                    else:
                        best, end = pbest, pend
                    _, best, end = walk(suffix, rstate, best, end, pos + len(rword))
                    if best != none:
                        hit = left_sides[best]
                        found = hit, end + 1 - len(hit)
                        heapq.heappush(heap, _Rev(order.sort_key(new_word), new_word, found))
        if len(terms) > max_support:
            max_support = len(terms)
    if stats is not None:
        stats.steps += steps
        stats.max_support = max(stats.max_support, max_support)
    return terms


OVERLAP = "overlap"
INCLUSION = "inclusion"


@dataclass(frozen=True)
class Ambiguity:
    """An overlap (W_sigma = AB, W_tau = BC) or inclusion (ABC = W_sigma,
    B = W_tau) between two rules, stored by rule index."""

    kind: str
    sigma: int
    tau: int
    a: Word
    b: Word
    c: Word

    def word(self) -> Word:
        return self.a + self.b + self.c


def find_ambiguities(system: ReductionSystem) -> list:
    """Complete, deduplicated, deterministically ordered ambiguity list,
    found once per rule shape."""
    return list(system._shape.ambiguities)


def _ambiguities(left_sides):
    """The ambiguities of the rules with these ``left_sides``, in rule
    order: overlaps, then inclusions, per ordered pair of rules."""
    for i, wi in enumerate(left_sides):
        for j, wj in enumerate(left_sides):
            # overlaps: a proper nonempty suffix of wi equals a proper prefix of wj
            for blen in range(1, min(len(wi), len(wj))):
                if wi[len(wi) - blen :] == wj[:blen]:
                    yield Ambiguity(OVERLAP, i, j, wi[: len(wi) - blen], wj[:blen], wj[blen:])
            # inclusions: wj occurs inside wi, properly since left sides are
            # distinct
            if i != j:
                for pos in range(len(wi) - len(wj) + 1):
                    if wi[pos : pos + len(wj)] == wj:
                        yield Ambiguity(INCLUSION, i, j, wi[:pos], wj, wi[pos + len(wj) :])


def _rewrites(ambiguity: Ambiguity, system: ReductionSystem):
    """The two one-step rewrites (left, right) of A B C as (word,
    coefficient) streams over the system's reducts: (w + C, c) and
    (A + w, d) for an overlap, (w, c) and (A + w + C, d) for an inclusion,
    where sigma's reduct holds the (w, c) and tau's the (w, d).  Each is
    ``_multiplier`` times the rewrite's image in the reduction domain."""
    reducts = system._reducts
    sigma = reducts[system.rules[ambiguity.sigma].lhs]
    tau = reducts[system.rules[ambiguity.tau].lhs]
    a, c = ambiguity.a, ambiguity.c
    if ambiguity.kind == OVERLAP:
        return ((w + c, k) for w, k in sigma), ((a + w, k) for w, k in tau)
    return sigma, ((a + w + c, k) for w, k in tau)


def _multiplier(ambiguity: Ambiguity, system: ReductionSystem) -> int:
    """D^e(ABC), the multiplier of the streams of ``_rewrites``: a reduct of
    the rule W holds c_w D^(e(W) - e(w)).  It is 1 when the system reduces
    with its coefficients as given."""
    scale, weights = system.rescaling or (1, ())
    return scale ** exponent(ambiguity.word(), weights)


@dataclass
class Resolution:
    """The verdict on one ambiguity and its S-polynomial's normal form.

    ``implied_by`` is (rule index, position in A B C) of the linking
    occurrence when ``check_confluence`` settled the ambiguity by the
    criterion, without reducing it, and None otherwise.  ``left_normal``,
    the normal form of the left one-step rewrite of A B C (under confluence
    the normal form of A B C), is reduced from the reducts like the
    S-polynomial, again on each access; it equals ``normal_form`` of that
    rewrite, coefficient types included.  It stays for the normal-form
    digest of each ambiguity in ``benchmarks/workloads.py``."""

    ambiguity: Ambiguity
    verdict: str
    difference: NcPoly
    system: ReductionSystem = field(repr=False, compare=False)
    implied_by: tuple | None = None

    @property
    def left_normal(self) -> NcPoly:
        left, _ = _rewrites(self.ambiguity, self.system)
        m = _multiplier(self.ambiguity, self.system)
        return NcPoly(self.system.alphabet, _reduce_back(dict(left), m, self.system))


def resolve_ambiguity(
    ambiguity: Ambiguity,
    system: ReductionSystem,
    stats: ReductionStats | None = None,
) -> Resolution:
    """Reduce the S-polynomial of the ambiguity, the difference of the two
    one-step rewrites of A B C, to normal form.

    The ambiguity is resolvable exactly when the S-polynomial reduces to
    zero.  ``normal_form`` is linear (a word's match depends only on the
    word, and a word is popped only after every larger one, when its
    coefficient is final), so a nonzero result is nf(left) - nf(right):
    two distinct normal forms of A B C, which certify that the system is
    not confluent, with the result as witness.  Terms the two sides share
    cancel before any of them is reduced.

    The S-polynomial is the difference of the two streams of ``_rewrites``,
    in the reduction domain, with the multiplier D^e(ABC);
    ``_reduce_back`` reduces it there and maps it back.  The result equals
    ``normal_form(left - right)``, coefficient types included.

    The step budget bounds this one reduction, not the two sides apart:
    it can take more steps than the larger side alone would.
    """
    left, right = _rewrites(ambiguity, system)
    # merged inline: through NcPoly's constructor confluence ran 7 % slower (Python 3.11)
    terms = dict(left)
    for word, k in right:
        if word in terms:
            total = terms[word] - k
            if total:
                terms[word] = total
            else:
                del terms[word]
        else:
            terms[word] = -k
    terms = _reduce_back(terms, _multiplier(ambiguity, system), system, stats)
    difference = NcPoly(system.alphabet, terms)
    verdict = RESOLVABLE if difference.is_zero() else NOT_CONFLUENT
    return Resolution(ambiguity, verdict, difference, system)


def _linking_occurrence(ambiguity: Ambiguity, left_sides):
    """(rule index, position) of the first occurrence of one of the
    ``left_sides``, given in rule order, in A B C, by position and then
    rule order, that links the ambiguity's two occurrences through strictly
    shorter ambiguities; None when there is none, and always for an
    inclusion.

    An overlap has sigma at [0, |AB|) and tau at [|A|, |ABC|).  An
    occurrence [pos, end) links them when it meets each of the two either
    not at all (the spans are disjoint or only touch) or in a union of
    spans strictly shorter than A B C (see the module docstring).
    """
    if ambiguity.kind == INCLUSION:
        return None
    word = ambiguity.word()
    n = len(word)
    start = len(ambiguity.a)
    stop = start + len(ambiguity.b)
    for pos in range(n):
        for index, lhs in enumerate(left_sides):
            end = pos + len(lhs)
            if (
                end <= n
                and (pos >= stop or end < n)
                and (end <= start or pos > 0)
                and word[pos:end] == lhs
            ):
                return index, pos
    return None


@dataclass
class ConfluenceReport:
    system: ReductionSystem
    resolutions: list
    stats: ReductionStats = field(default_factory=ReductionStats)

    @property
    def overall(self) -> bool:
        return all(r.verdict == RESOLVABLE for r in self.resolutions)

    @property
    def overlap_count(self) -> int:
        return sum(1 for r in self.resolutions if r.ambiguity.kind == OVERLAP)

    @property
    def inclusion_count(self) -> int:
        return sum(1 for r in self.resolutions if r.ambiguity.kind == INCLUSION)

    def to_json_dict(self) -> dict:
        alphabet = self.system.alphabet
        ambiguities = []
        for res in self.resolutions:
            amb = res.ambiguity
            entry = {
                "kind": amb.kind,
                "sigma": self.system.rules[amb.sigma].label,
                "tau": self.system.rules[amb.tau].label,
                "A": render_word(alphabet, amb.a),
                "B": render_word(alphabet, amb.b),
                "C": render_word(alphabet, amb.c),
                "verdict": res.verdict,
            }
            if res.verdict == NOT_CONFLUENT:
                entry["difference"] = res.difference.render(self.system.order)
            ambiguities.append(entry)
        return {
            "system": self.system.describe(),
            "order": self.system.order.describe(),
            "rules": self.system.rules_json(),
            "ambiguities": ambiguities,
            "overall": RESOLVABLE if self.overall else NOT_CONFLUENT,
            "stats": {
                "elementary_steps": self.stats.steps,
                "implied": sum(1 for r in self.resolutions if r.implied_by is not None),
                "max_support": self.stats.max_support,
            },
        }


def check_confluence(system: ReductionSystem) -> ConfluenceReport:
    """Resolve every ambiguity, reported in the deterministic ambiguity order.

    The S-polynomials of the ambiguities with no linking occurrence
    (``_linking_occurrence``, kept with the ambiguities on the rule shape)
    are reduced first.  When all of them reduce to zero the system is
    confluent (see the module docstring), so every other ambiguity is
    resolvable with difference zero; it is recorded so, with its linking
    occurrence in ``implied_by``, and not reduced.
    Otherwise the other ambiguities are reduced as well.  Either way the
    verdicts and differences are those of ``resolve_ambiguity``.
    """
    stats = ReductionStats()
    ambiguities = find_ambiguities(system)
    links = system._shape.links
    resolutions = [
        None if link is not None else resolve_ambiguity(amb, system, stats)
        for amb, link in zip(ambiguities, links)
    ]
    confluent = all(res is None or res.verdict == RESOLVABLE for res in resolutions)
    zero = NcPoly.zero(system.alphabet)
    for i, (amb, link) in enumerate(zip(ambiguities, links)):
        if link is not None:
            resolutions[i] = (
                Resolution(amb, RESOLVABLE, zero, system, link)
                if confluent
                else resolve_ambiguity(amb, system, stats)
            )
    return ConfluenceReport(system, resolutions, stats)
