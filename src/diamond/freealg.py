"""Words and noncommutative polynomials over a fixed alphabet.

A word is a tuple of generator indices; the empty tuple is 1.  ``NcPoly``
maps words to nonzero exact scalars and is treated as immutable after
construction.  ``TensorPoly`` is the same map on pairs of words, with the
componentwise key product; it models the tensor square of the free algebra.
Neither fixes a coefficient domain: their units are the plain integers 1
and 0, which ``Fraction`` and ``Cyclotomic`` absorb, so a system with
integral rules computes in ``int`` end to end.  The constructor is the one
loop that sums terms: a sum hands it the terms of both operands and a
product the key product and scalar product of every pair of terms, and it
adds up repeated keys and drops those that sum to zero.

The module also provides the structured sums this package revolves
around: ``bidegree_sum(j, i)``, the sum P(j, i) of all words containing j
copies of one letter a and i of another x.  Its words come from one
definition in two encodings: a is written at one j-subset of the L = i+j
positions of x^L, the subsets taken in ``combinations`` order.
``bidegree_words`` yields tuples; ``bidegree_masks`` yields ints, with bit
L-1-p set when position p holds a, which strictly decrease.  The sorted
word a^j x^i comes first, so the rest-sum Q(j, i), P(j, i) without it, is
the stream without its first item.  The sum wraps the distinct tuple
words, each with the int 1, without a cleaning pass.  Neither encoding
recurses through the identities below, which are checked against them.
The splitting identities peel h letters off the head and t off the tail
of every word of a bidegree sum, all instances of one formula,

    P(r,s) = sum_{u in {a,x}^h, v in {a,x}^t} u * P(r - #a(uv), s - #x(uv)) * v,

with (h, t) = (0, 1) for "tail1", (0, 2) "tail2", (2, 0) "head2",
(1, 1) "head1_tail1", (0, 3) "tail3", (3, 0) "head3", (2, 1)
"head2_tail1" and (1, 2) "head1_tail2" (the table ``PEELS``), plus
"q_tail1", the one-letter recursion of the rest-sums.
``check_splitting_identity`` checks any of them exactly, in the letters
a = 0 and x = 1, so they can be property-tested wholesale.  It builds no
term map and no tuple.  Each bidegree set is enumerated once per process:
``_mask_stream`` keeps the masks of ``bidegree_masks(j, i)`` as a read-only
view of one ``array("Q")`` of 8-byte items, in a memo of at most
``MEMO_SIZE`` entries, so a word has at most ``MASK_BITS`` = 64 letters.
Both sides of an identity are iterators over these streams, each mask with
coefficient 1.  Each mask w of the left side is routed by the int
u << t | v of its head u and tail v, read off with shifts, to the
right-side part u * P(...) * v, whose next mask must be the middle of w.
A one-to-one pairing of the two streams is equality of the two
polynomials, whatever order the words come in.  ``_bidegree_words`` is the
same memo for the tuple words, shared by the rule builders of
``presentations`` and the coproduct closed forms of ``coalgebra``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice

Word = tuple  # tuple[int, ...]

#: the most entries a memo keeps; the least recently used goes
MEMO_SIZE = 128

#: the most letters of a word in a mask stream: one unsigned 8-byte item
MASK_BITS = 64


@dataclass(frozen=True)
class Alphabet:
    """Ordered generator names, with optional per-generator weights."""

    names: tuple
    weights: tuple = ()

    def __post_init__(self):
        if not self.names:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names must be distinct")
        if self.weights and len(self.weights) != len(self.names):
            raise ValueError("weights must match generators")

    def __len__(self):
        return len(self.names)


def render_word(alphabet: Alphabet, word: Word) -> str:
    if not word:
        return "1"
    parts = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        name = alphabet.names[word[i]]
        parts.append(name if j - i == 1 else f"{name}^{j - i}")
        i = j
    return "*".join(parts)


class NcPoly:
    """A finitely supported map word -> nonzero scalar; an element of k<X>.

    The keys need not be words: ``TensorPoly`` reuses the whole map with
    keys that are pairs of words and changes only the key product.
    """

    __slots__ = ("alphabet", "_terms")

    def __init__(self, alphabet: Alphabet, terms=None):
        """``terms`` is a dict or an iterable of (key, scalar) pairs; repeated
        keys are summed and zero scalars dropped.  This loop builds every
        sum and product of the module: a key keeps the place it first took,
        and one that cancels and comes back goes to the end."""
        object.__setattr__(self, "alphabet", alphabet)
        clean = {}
        if terms:
            for key, coeff in terms.items() if isinstance(terms, dict) else terms:
                if key in clean:
                    total = clean[key] + coeff
                    if total:
                        clean[key] = total
                    else:
                        del clean[key]
                elif coeff:
                    clean[key] = coeff
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _make(self, terms: dict):
        # wrap an already clean dict in the caller's class, without copying
        out = object.__new__(type(self))
        object.__setattr__(out, "alphabet", self.alphabet)
        object.__setattr__(out, "_terms", terms)
        return out

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "NcPoly":
        return cls(alphabet)

    @classmethod
    def one(cls, alphabet: Alphabet) -> "NcPoly":
        return cls(alphabet, {(): 1})

    @classmethod
    def monomial(cls, alphabet: Alphabet, word: Word, coeff=1) -> "NcPoly":
        return cls(alphabet, {tuple(word): coeff})

    @classmethod
    def generator(cls, alphabet: Alphabet, index: int) -> "NcPoly":
        return cls.monomial(alphabet, (index,))

    # -- inspection ------------------------------------------------------

    def items(self):
        return self._terms.items()

    def support(self):
        return self._terms.keys()

    def coeff(self, word: Word):
        return self._terms.get(tuple(word), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def degree(self) -> int:
        """Maximal word length in the support; -1 for the zero polynomial."""
        return max((len(w) for w in self._terms), default=-1)

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "NcPoly"):
        if type(self) is not type(other):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")

    def __add__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        self._check(other)
        return type(self)(self.alphabet, chain(self._terms.items(), other._terms.items()))

    def __neg__(self):
        return self._make({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, NcPoly):
            self._check(other)
            mine, theirs = self._terms.items(), other._terms.items()
            return type(self)(self.alphabet, (
                (w1 + w2, c1 * c2) for w1, c1 in mine for w2, c2 in theirs
            ))
        return self.scale(other)

    def __rmul__(self, other):
        # scalars commute with everything; only words are noncommutative
        return self.scale(other)

    def scale(self, coeff) -> "NcPoly":
        if not coeff:
            return self._make({})
        return self._make({k: coeff * c for k, c in self._terms.items()})

    def __pow__(self, exponent: int) -> "NcPoly":
        if exponent < 0:
            raise ValueError("negative powers are not defined in the free algebra")
        result = type(self).one(self.alphabet)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        return (
            type(self) is type(other)
            and self.alphabet == other.alphabet
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.alphabet, frozenset(self._terms.items())))

    # -- rendering ---------------------------------------------------------

    def render(self, order=None) -> str:
        """Terms in descending order: by ``order``, else by length and then
        letterwise."""
        from .scalars import scalar_str

        if not self._terms:
            return "0"
        key = order.sort_key if order is not None else lambda w: (len(w), tuple(-c for c in w))
        parts = []
        for word, coeff in sorted(self._terms.items(), key=lambda kv: key(kv[0]), reverse=True):
            body = render_word(self.alphabet, word)
            cs = scalar_str(coeff)
            negative = cs.startswith("-")
            if negative:
                cs = cs[1:]
            if word and cs == "1":
                text = body
            elif not word:
                text = cs
            else:
                text = f"{cs}*{body}"
            if not parts:
                parts.append(f"-{text}" if negative else text)
            else:
                parts.append(f"- {text}" if negative else f"+ {text}")
        return " ".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({self.render()})"


def bidegree_words(j: int, i: int, pair=(0, 1)):
    """Yield each word with j copies of pair[0] and i copies of pair[1] once.

    Each word is pair[1]^(i+j) with pair[0] written at one j-subset of the
    positions, in ``combinations`` order; the first is pair[0]^j pair[1]^i.
    Nothing is yielded when either argument is negative.
    """
    if i < 0 or j < 0:
        return
    first, second = pair
    base = [second] * (i + j)
    for positions in combinations(range(i + j), j):
        word = base.copy()
        for k in positions:
            word[k] = first
        yield tuple(word)


def bidegree_masks(j: int, i: int):
    """The words of ``bidegree_words(j, i)``, in its order, as ints: bit
    i+j-1-p is set when position p holds a.  Empty when j or i is negative."""
    if i < 0 or j < 0:
        return iter(())
    return map(sum, combinations([1 << (i + j - 1 - p) for p in range(i + j)], j))


@lru_cache(maxsize=MEMO_SIZE)
def _bidegree_words(j: int, i: int, pair) -> tuple:
    # kept for the next caller: the rule words of a presentation depend on
    # the degree of g, not on g, and a coproduct closed form reads each
    # P(j, i) more than once
    return tuple(bidegree_words(j, i, pair))


@lru_cache(maxsize=MEMO_SIZE)
def _mask_stream(j: int, i: int) -> memoryview:
    # bidegree_masks(j, i) in 8 bytes a mask, kept for the next identity
    # that reads P(j, i); every caller gets the same stream, so it is read-only
    from array import array  # an extension module: loaded only by a process that needs it

    return memoryview(array("Q", bidegree_masks(j, i))).toreadonly()


def _rest_masks(m: int, q: int):
    # the masks of bidegree_masks(m, q) but its first, the sorted a^m x^q:
    # the rest-sum Q(m, q)
    return islice(_mask_stream(m, q), 1, None)


def check_pair(alphabet: Alphabet, pair):
    """Raise ValueError unless ``pair`` is two distinct letters of ``alphabet``."""
    first, second = pair
    if first == second or not (0 <= first < len(alphabet) and 0 <= second < len(alphabet)):
        raise ValueError(f"pair {pair!r} is not two distinct letters of the alphabet")


def bidegree_sum(alphabet: Alphabet, j: int, i: int, pair=(0, 1)) -> NcPoly:
    """Sum of all words with j copies of pair[0] and i copies of pair[1].

    There are C(i+j, j) of them, each with coefficient 1; the sum is 1 when
    i = j = 0 and zero when either argument is negative.  ``pair`` must be
    two distinct letters of ``alphabet``.  The words are those of
    ``bidegree_words``, in its order.
    """
    check_pair(alphabet, pair)
    # the words are distinct and every coefficient is 1, so the map is clean
    return NcPoly.zero(alphabet)._make(dict.fromkeys(bidegree_words(j, i, pair), 1))


#: the splitting identities: kind -> (h, t), the letters peeled off the head
#: and the tail of every word of a bidegree sum
PEELS = {
    "tail1": (0, 1),
    "tail2": (0, 2),
    "head2": (2, 0),
    "head1_tail1": (1, 1),
    "tail3": (0, 3),
    "head3": (3, 0),
    "head2_tail1": (2, 1),
    "head1_tail2": (1, 2),
}


def _routed_match(masks, length: int, h: int, t: int, parts: dict) -> bool:
    """Whether the ``length``-letter masks of ``masks`` are, with multiplicity,
    the words u * m * v for m from ``parts[u << t | v]``, each an iterator of
    masks.

    Every word w is routed by its head u = w >> (length - h) and tail
    v = w & (2^t - 1) to one part, whose next mask must be w's middle; then
    every part must be used up.  A True answer pairs the two streams one to
    one, so the sums of their words are equal, whatever order they come in.
    """
    cut, mid = length - h, length - h - t
    tail, middle = (1 << t) - 1, (1 << max(mid, 0)) - 1
    route = parts.get
    for mask in masks:
        if mid < 0:
            return False
        part = route(mask >> cut << t | mask & tail)
        if part is None or next(part, None) != mask >> t & middle:
            return False
    return all(next(part, None) is None for part in parts.values())


def check_splitting_identity(kind: str, r: int, s: int) -> bool:
    """Exact polynomial check of one splitting identity at indices (r, s),
    in the letters a = 0 and x = 1.

    Every kind in ``PEELS`` instantiates one identity: with (h, t) = PEELS[kind],

        P(r,s) = sum_{u in {a,x}^h, v in {a,x}^t} u * P(r - #a(uv), s - #x(uv)) * v,

    where P = ``bidegree_sum``.  It holds exactly when r + s >= h + t; below
    that the left side is nonzero and the right side zero.  "tail1", with
    (h, t) = (0, 1), is the one-letter recursion P(r,s) = P(r,s-1)x +
    P(r-1,s)a, and "q_tail1" is its companion for the rest-sums,
    Q(r,s) = Q(r,s-1)x + P(r-1,s)a, which fails exactly when s = 0 < r (the
    right side is then a^r).

    No sum is built: ``_routed_match`` pairs the left side's masks with the
    masks of the right-side parts, read from the memoised streams.  A word
    has r + s letters, so r + s may be at most ``MASK_BITS``.
    """
    if r < 0 or s < 0:
        raise ValueError("indices must be nonnegative")
    if r + s > MASK_BITS:
        raise ValueError(f"r + s = {r + s} exceeds the {MASK_BITS} letters a mask holds")
    if kind == "q_tail1":
        parts = {0: _rest_masks(r, s - 1), 1: iter(_mask_stream(r - 1, s))}  # tails x, a
        return _routed_match(_rest_masks(r, s), r + s, 0, 1, parts)
    if kind not in PEELS:
        raise ValueError(f"unknown identity kind {kind!r}")
    h, t = PEELS[kind]
    # uv = u << t | v is the mask of the h + t peeled letters
    parts = {
        uv: iter(_mask_stream(r - uv.bit_count(), s - h - t + uv.bit_count()))
        for uv in range(1 << (h + t))
    }
    return _routed_match(_mask_stream(r, s), r + s, h, t, parts)


class TensorPoly(NcPoly):
    """A finitely supported map (word, word) -> nonzero scalar.

    Everything but the key product is inherited from ``NcPoly``;
    multiplication is bilinear on simple tensors:
    (u (x) v) * (u' (x) v') = uu' (x) vv'.
    """

    __slots__ = ()

    @classmethod
    def one(cls, alphabet: Alphabet) -> "TensorPoly":
        return cls(alphabet, {((), ()): 1})

    def __mul__(self, other):
        if isinstance(other, NcPoly):
            self._check(other)
            mine, theirs = self._terms.items(), other._terms.items()
            return type(self)(self.alphabet, (
                ((l1 + l2, r1 + r2), c1 * c2) for (l1, r1), c1 in mine for (l2, r2), c2 in theirs
            ))
        return self.scale(other)

    def degree(self) -> int:
        raise TypeError("a tensor has a bidegree, not a word length")

    def render(self, order=None) -> str:
        raise TypeError("a tensor has no rendering as a sum of words; use repr()")

    def __repr__(self):
        return f"TensorPoly({self._terms!r})"
