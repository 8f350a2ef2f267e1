"""Words and noncommutative polynomials over a fixed alphabet.

A word is a tuple of generator indices; the empty tuple is 1.  ``NcPoly``
maps words to nonzero exact scalars and is treated as immutable after
construction.  ``TensorPoly`` is the same map on pairs of words, with the
componentwise key product; it models the tensor square of the free algebra.

The module also provides the two families of structured sums this package
revolves around: ``bidegree_sum(j, i)``, the sum of all words containing
j copies of one letter and i of another, and ``bidegree_rest``, the same
sum with its fully sorted word removed.  The splitting identities these
sums satisfy (peeling letters off either end to any depth up to three) are
exposed through ``check_splitting_identity`` so they can be property-tested
wholesale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

Word = tuple  # tuple[int, ...]


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

    def index(self, name: str) -> int:
        return self.names.index(name)

    def weight(self, i: int) -> int:
        return self.weights[i] if self.weights else 1

    def word(self, text: str) -> Word:
        """Build a word from ``*``-separated letter names with optional
        ``^`` exponents, e.g. ``a*x^2``; single-character names may also be
        juxtaposed, e.g. ``axx``."""
        parts = text.split("*") if "*" in text or "^" in text else list(text)
        out = []
        for part in parts:
            if not part:
                continue
            name, _, power = part.partition("^")
            out.extend([self.index(name)] * (int(power) if power else 1))
        return tuple(out)


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
        keys are summed and zero scalars dropped."""
        object.__setattr__(self, "alphabet", alphabet)
        clean = {}
        if terms:
            for key, coeff in terms.items() if isinstance(terms, dict) else terms:
                if coeff:
                    clean[key] = clean[key] + coeff if key in clean else coeff
                    if not clean[key]:
                        del clean[key]
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
        return cls(alphabet, {(): Fraction(1)})

    @classmethod
    def monomial(cls, alphabet: Alphabet, word: Word, coeff=Fraction(1)) -> "NcPoly":
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
        return self._terms.get(tuple(word), Fraction(0))

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
        terms = dict(self._terms)
        for k, c in other._terms.items():
            s = terms.get(k, 0) + c
            if s:
                terms[k] = s
            elif k in terms:
                del terms[k]
        return self._make(terms)

    def __neg__(self):
        return self._make({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, NcPoly):
            self._check(other)
            terms = {}
            for w1, c1 in self._terms.items():
                for w2, c2 in other._terms.items():
                    w = w1 + w2
                    s = terms.get(w, 0) + c1 * c2
                    if s:
                        terms[w] = s
                    elif w in terms:
                        del terms[w]
            return self._make(terms)
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

    def sorted_terms(self, key=None):
        """Terms sorted descending; default key is length-then-letterwise."""
        if key is None:
            key = lambda w: (len(w), tuple(-c for c in w))
        return sorted(self._terms.items(), key=lambda item: key(item[0]), reverse=True)

    def render(self, order=None) -> str:
        from .scalars import scalar_str

        if not self._terms:
            return "0"
        key = order.sort_key if order is not None else None
        parts = []
        for word, coeff in self.sorted_terms(key):
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


def bidegree_sum(alphabet: Alphabet, j: int, i: int, pair=(0, 1)) -> NcPoly:
    """Sum of all words with j copies of pair[0] and i copies of pair[1].

    There are C(i+j, j) of them, each with coefficient 1; the sum is 1 when
    i = j = 0 and zero when either argument is negative.
    """
    if i < 0 or j < 0:
        return NcPoly.zero(alphabet)
    first, second = pair
    terms = {}
    for positions in combinations(range(i + j), j):
        chosen = set(positions)
        word = tuple(first if k in chosen else second for k in range(i + j))
        terms[word] = Fraction(1)
    return NcPoly(alphabet, terms)


def bidegree_rest(alphabet: Alphabet, m: int, q: int, pair=(0, 1)) -> NcPoly:
    """``bidegree_sum(m, q)`` minus its fully sorted word pair[0]^m pair[1]^q.

    Vanishes whenever m = 0 or q = 0 (the sorted word is then the whole sum).
    """
    if m < 0 or q < 0:
        return NcPoly.zero(alphabet)
    first, second = pair
    sorted_word = (first,) * m + (second,) * q
    return bidegree_sum(alphabet, m, q, pair) - NcPoly.monomial(alphabet, sorted_word)


#: Splitting identities for the bidegree sums.  Each peels letters off the
#: head and/or tail of every word: "tail1" is the one-letter recursion
#: P(r,s) = P(r,s-1)x + P(r-1,s)a, "q_tail1" its companion for the rest-sums,
#: and the remaining kinds split to depth two or three on either side.
IDENTITY_KINDS = (
    "tail1",
    "q_tail1",
    "tail2",
    "head2",
    "head1_tail1",
    "tail3",
    "head3",
    "head2_tail1",
    "head1_tail2",
)


def check_splitting_identity(
    kind: str, r: int, s: int, alphabet: Alphabet | None = None, pair=(0, 1)
) -> bool:
    """Exact polynomial check of one splitting identity at indices (r, s)."""
    if alphabet is None:
        alphabet = Alphabet(("a", "x"))
    if r < 0 or s < 0:
        raise ValueError("indices must be nonnegative")
    first, second = pair

    def P(rr, ss):
        return bidegree_sum(alphabet, rr, ss, pair)

    def Q(rr, ss):
        return bidegree_rest(alphabet, rr, ss, pair)

    def mono(*letters):
        return NcPoly.monomial(alphabet, letters)

    a, x = mono(first), mono(second)

    if kind == "tail1":
        lhs, rhs = P(r, s), P(r, s - 1) * x + P(r - 1, s) * a
    elif kind == "q_tail1":
        lhs, rhs = Q(r, s), Q(r, s - 1) * x + P(r - 1, s) * a
    elif kind == "tail2":
        lhs = P(r, s)
        rhs = (
            P(r - 1, s - 1) * (x * a)
            + P(r - 1, s - 1) * (a * x)
            + P(r - 2, s) * (a * a)
            + P(r, s - 2) * (x * x)
        )
    elif kind == "head2":
        lhs = P(r, s)
        rhs = (
            (x * a) * P(r - 1, s - 1)
            + (a * x) * P(r - 1, s - 1)
            + (a * a) * P(r - 2, s)
            + (x * x) * P(r, s - 2)
        )
    elif kind == "head1_tail1":
        lhs = P(r, s)
        rhs = (
            x * P(r - 1, s - 1) * a
            + a * P(r - 1, s - 1) * x
            + a * P(r - 2, s) * a
            + x * P(r, s - 2) * x
        )
    elif kind == "tail3":
        lhs = P(r, s)
        rhs = (
            P(r - 3, s) * (a ** 3)
            + P(r - 2, s - 1) * P(2, 1)
            + P(r - 1, s - 2) * P(1, 2)
            + P(r, s - 3) * (x ** 3)
        )
    elif kind == "head3":
        lhs = P(r, s)
        rhs = (
            (a ** 3) * P(r - 3, s)
            + P(2, 1) * P(r - 2, s - 1)
            + P(1, 2) * P(r - 1, s - 2)
            + (x ** 3) * P(r, s - 3)
        )
    elif kind == "head2_tail1":
        lhs = P(r, s)
        inner_a = (
            (x * x) * P(r - 1, s - 2)
            + (a * x) * P(r - 2, s - 1)
            + (x * a) * P(r - 2, s - 1)
            + (a * a) * P(r - 3, s)
        )
        inner_x = (
            (x * x) * P(r, s - 3)
            + (a * x) * P(r - 1, s - 2)
            + (x * a) * P(r - 1, s - 2)
            + (a * a) * P(r - 2, s - 1)
        )
        rhs = inner_a * a + inner_x * x
    elif kind == "head1_tail2":
        lhs = P(r, s)
        inner_a = (
            P(r - 1, s - 2) * (x * x)
            + P(r - 2, s - 1) * (a * x)
            + P(r - 2, s - 1) * (x * a)
            + P(r - 3, s) * (a * a)
        )
        inner_x = (
            P(r, s - 3) * (x * x)
            + P(r - 1, s - 2) * (a * x)
            + P(r - 1, s - 2) * (x * a)
            + P(r - 2, s - 1) * (a * a)
        )
        rhs = a * inner_a + x * inner_x
    else:
        raise ValueError(f"unknown identity kind {kind!r}")
    return lhs == rhs


class TensorPoly(NcPoly):
    """A finitely supported map (word, word) -> nonzero scalar.

    Everything but the key product is inherited from ``NcPoly``;
    multiplication is bilinear on simple tensors:
    (u (x) v) * (u' (x) v') = uu' (x) vv'.
    """

    __slots__ = ()

    @classmethod
    def one(cls, alphabet: Alphabet) -> "TensorPoly":
        return cls(alphabet, {((), ()): Fraction(1)})

    @classmethod
    def simple(cls, alphabet: Alphabet, left: Word, right: Word, coeff=Fraction(1)):
        return cls(alphabet, {(tuple(left), tuple(right)): coeff})

    @classmethod
    def of(cls, left: NcPoly, right: NcPoly) -> "TensorPoly":
        if left.alphabet != right.alphabet:
            raise ValueError("alphabet mismatch")
        return cls(
            left.alphabet,
            {(wl, wr): cl * cr for wl, cl in left.items() for wr, cr in right.items()},
        )

    def __mul__(self, other):
        if isinstance(other, NcPoly):
            self._check(other)
            terms = {}
            for (l1, r1), c1 in self._terms.items():
                for (l2, r2), c2 in other._terms.items():
                    key = (l1 + l2, r1 + r2)
                    s = terms.get(key, 0) + c1 * c2
                    if s:
                        terms[key] = s
                    elif key in terms:
                        del terms[key]
            return self._make(terms)
        return self.scale(other)

    def degree(self) -> int:
        raise TypeError("a tensor has a bidegree, not a word length")

    def render(self, right: Alphabet | None = None) -> str:
        """Terms as ``c*u(x)v``; the right leg is named in ``right``, by
        default the map's own alphabet."""
        from .scalars import scalar_str

        if not self._terms:
            return "0"
        right = right or self.alphabet
        bits = []
        for (wl, wr), c in sorted(
            self._terms.items(), key=lambda kv: (len(kv[0][0]) + len(kv[0][1]), kv[0])
        ):
            body = f"{render_word(self.alphabet, wl)}(x){render_word(right, wr)}"
            bits.append(f"{scalar_str(c)}*{body}")
        return " + ".join(bits)
