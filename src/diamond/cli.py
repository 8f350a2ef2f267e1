"""Command-line surface: expression parsing, subcommands, JSON reports.

One grammar reads every scalar and polynomial of the command line:
expressions, and each entry of a coefficient list, which must be constant.
Integer and rational literals stay ``int`` and ``Fraction``; with
``--cyclotomic N`` the name ``q`` is the root of ``CyclotomicField(N)``,
and without it ``q`` is an unknown symbol.

Exit codes: 0 success, 1 failed checks, 2 usage errors (including a
``--json`` path that cannot be written and inputs above the resource
guards), 3 reduction budget (``--budget``) exceeded.  Report-only verdicts
never fail a run.  Output is deterministic: identical invocations produce
identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .analysis import growth_classify, irreducible_census, is_central, pbw_words
from .claims import DEFAULT_SEED, SUITES, run_claim_suites
from .coalgebra import hopf_ideal_check
from .freealg import Alphabet, NcPoly, render_word
from .presentations import (
    AX,
    DefiningPolynomial,
    build_system,
    build_tensor_presentation,
)
from .ordering import GrlexPlus
from .rewrite import (
    ReductionBudgetExceeded,
    ReductionSystem,
    Rule,
    check_confluence,
    normal_form,
)
from .scalars import CyclotomicField, common_denominator, entries


class ExprError(ValueError):
    """Parse failure, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UsageError(Exception):
    """Bad flag combination; maps to exit code 2."""


#: resource guard for ``basis``: the enumeration and the printed list grow
#: exponentially in --max-len (342,092 words for n = 5 at length 20)
MAX_BASIS_WORDS = 100_000

#: resource guard for ``growth`` and ``basis``: the counts of an exponential
#: system have Theta(L) digits, so time, memory and output grow as --max-len
#: squared (8.8 MB printed for n = 6 at length 8,000)
MAX_GROWTH_LEN = 1_000

#: resource guard for --g and --f: build_system creates 2^n - 2 words for
#: x^n and about twice as many for a dense g (Python 3.11.7 on a shared
#: 2-core AMD EPYC host, fresh interpreter: x^16 builds in 0.27 s and
#: 39 MiB, a dense degree-16 g in 0.38 s and 62 MiB; x^19 in 1.5 s and
#: 214 MiB, a dense degree-19 g in 2.9 s and 390 MiB); --n keeps the same
#: bound
MAX_DEGREE = 16

#: resource guard for ``hopf-ideal``: the coproducts of the relations have
#: about 10x more leg pairs for every 2 degrees (same host: x^10 checks in
#: 0.20 s and 26 MiB, x^11 in 0.68 s and 44 MiB, x^12 in 2.2 s and 103 MiB)
MAX_HOPF_DEGREE = 10

#: resource guard for --cyclotomic: a residue has phi(N) rational entries,
#: a product of two dense residues takes phi(N)^2 multiplications and an
#: inverse more (same host, entries in -9..9: N = 127, phi = 126: 2 ms per
#: product, 0.33 s per inverse; N = 251: 6 ms and 2.9 s; with fractional
#: entries of denominator up to 9, N = 127: 0.06 s and 1.0 s, N = 251:
#: 0.19 s and 12.3 s)
MAX_CYCLOTOMIC_ORDER = 128

#: resource guards for expression parsing, checked before each product is
#: built: at most this many terms ((a+x)^16 is the largest power of a+x),
#: words of at most this many letters, and coefficients of at most this
#: many bits (``coefficient_bits``), well inside the 4,300 digits that
#: Python turns into text; the bit bound also holds for every normal form
#: and difference a command prints (``_check_output``)
MAX_EXPR_TERMS = 2**16
MAX_EXPR_LETTERS = 1_000
MAX_EXPR_BITS = 10_000

#: resource guard for expression parsing: the parser recurses on each '('
#: and each unary '-', so at most this many may be open at once
MAX_EXPR_DEPTH = 100


_OPS = set("+-*^()/")


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser for +, -, explicit *, / by a nonzero
    constant, ^ and parentheses.

    Juxtaposition is rejected; the noncommutative product order of the
    input is preserved exactly.  The name ``q`` denotes the distinguished
    root of unity of ``field``; ``field=None`` means there is no ``q``.
    """

    def __init__(self, text: str, alphabet: Alphabet, field=None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.alphabet = alphabet
        self.field = field
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str):
        token = self.next()
        if token[0] != kind:
            raise ExprError(f"expected {kind!r}, found {token[1]!r}", token[2])
        return token

    def parse(self) -> NcPoly:
        value = self.expr()
        token = self.peek()
        if token[0] != "end":
            raise ExprError(f"unexpected {token[1]!r}", token[2])
        return value

    def expr(self) -> NcPoly:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, position = self.next()
            rhs = self.term()
            value = self.checked(value + rhs if op == "+" else value - rhs, position)
        return value

    def term(self) -> NcPoly:
        value = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, position = self.next()
            factor = self.factor()
            if op == "*":
                self.check_size(
                    len(value) * len(factor),
                    value.degree() + factor.degree(),
                    coefficient_bits(value) + coefficient_bits(factor),
                    position,
                )
                value = self.checked(value * factor, position)
                continue
            divisor = constant_of(factor)
            if divisor is None:
                raise ExprError("division by a non-constant", position)
            if not divisor:
                raise ExprError("zero denominator", position)
            value = self.checked(value.scale(Fraction(1) / divisor), position)
        token = self.peek()
        if token[0] in ("name", "int", "("):
            raise ExprError("missing '*' between factors", token[2])
        return value

    def factor(self) -> NcPoly:
        value = self.atom()
        if self.peek()[0] == "^":
            self.next()
            token = self.expect("int")
            exponent = int(token[1])
            if exponent < 1:
                raise ExprError("exponent must be a positive integer", token[2])
            if exponent > MAX_EXPR_LETTERS:
                # the bounds below are computed from the exponent, the term
                # bound as len(value) ** exponent
                raise ExprError(
                    f"resource guard: exponent above {MAX_EXPR_LETTERS}", token[2]
                )
            self.check_size(
                len(value) ** exponent,
                value.degree() * exponent,
                coefficient_bits(value) * exponent,
                token[2],
            )
            value = self.checked(value**exponent, token[2])
        return value

    @staticmethod
    def check_size(terms: int, letters: int, bits: int, position: int) -> None:
        """Refuse a product whose term bound is above MAX_EXPR_TERMS, whose
        words may have more than MAX_EXPR_LETTERS letters, or whose
        coefficients may have more than MAX_EXPR_BITS bits.  The bit bound
        adds the bits of the factors; the carries of a sum of products are
        left to ``checked``."""
        if terms > MAX_EXPR_TERMS:
            raise ExprError(
                f"resource guard: a product of up to {terms} terms, more than {MAX_EXPR_TERMS}",
                position,
            )
        if letters > MAX_EXPR_LETTERS:
            raise ExprError(
                f"resource guard: words of {letters} letters, more than {MAX_EXPR_LETTERS}",
                position,
            )
        if bits > MAX_EXPR_BITS:
            raise ExprError(
                f"resource guard: coefficients of up to {bits} bits, more than {MAX_EXPR_BITS}",
                position,
            )

    @classmethod
    def checked(cls, value: NcPoly, position: int) -> NcPoly:
        """``value``, refused when its coefficients have more than
        MAX_EXPR_BITS bits."""
        cls.check_size(0, 0, coefficient_bits(value), position)
        return value

    def atom(self) -> NcPoly:
        token = self.next()
        kind, text, pos = token
        if kind in ("-", "("):
            self.depth += 1
            if self.depth > MAX_EXPR_DEPTH:
                raise ExprError(
                    f"resource guard: more than {MAX_EXPR_DEPTH} nested '(' and unary '-'", pos
                )
            if kind == "-":
                value = -self.factor()
            else:
                value = self.expr()
                self.expect(")")
            self.depth -= 1
            return value
        if kind == "int":
            # a digit has fewer than 10/3 bits
            self.check_size(1, 0, len(text) * 10 // 3 + 1, pos)
            return NcPoly.one(self.alphabet).scale(int(text))
        if kind == "name":
            if text == "q" and self.field is not None:
                return NcPoly.one(self.alphabet).scale(self.field.q)
            if text in self.alphabet.names:
                return NcPoly.generator(self.alphabet, self.alphabet.names.index(text))
            raise ExprError(f"unknown symbol {text!r}", pos)
        raise ExprError(f"unexpected {text!r}", pos)


def parse_expr(text: str, alphabet: Alphabet, field=None) -> NcPoly:
    """Parse expression text into an exact polynomial over the alphabet."""
    return _Parser(text, alphabet, field).parse()


def coefficient_bits(poly: NcPoly) -> int:
    """The bit length of the largest of D and the |N_w|, where the
    coefficients of ``poly`` are N_w / D over their common denominator D.
    Over Q(zeta_N) the rationals are the entries of the residues.  A text
    form prints no integer of more bits."""
    values = [e for _, c in poly.items() for e in entries(c)]
    den = common_denominator(values)
    top = max((abs(e.numerator) * (den // e.denominator) for e in values), default=0)
    return max(den, top).bit_length()


def _check_output(polys) -> None:
    """Refuse to print polynomials whose coefficients have more than
    MAX_EXPR_BITS bits: reduction can grow the coefficients of an accepted
    input past what Python turns into text."""
    bits = max(map(coefficient_bits, polys), default=0)
    if bits > MAX_EXPR_BITS:
        raise UsageError(
            f"resource guard: the result has coefficients of {bits} bits, "
            f"more than {MAX_EXPR_BITS}"
        )


def constant_of(poly: NcPoly):
    """The scalar that ``poly`` is, or None when it has a term of positive
    degree."""
    return None if poly.degree() > 0 else poly.coeff(())


def parse_defining(text: str, letter: str = "x", field=None) -> DefiningPolynomial:
    """--g / --f argument: either an expression in one letter or a
    comma-separated coefficient list ``r_1, r_2, ..., r_n`` whose entries
    are constant expressions."""
    alphabet = Alphabet((letter,))
    if "," in text:
        coeffs, start = [], 0
        for raw in text.split(","):
            entry = raw.strip()
            offset = start + len(raw) - len(raw.lstrip())
            start += len(raw) + 1
            try:
                value = constant_of(parse_expr(entry, alphabet, field))
            except ExprError as exc:
                # the parser counts from the entry; report the place in the text
                message = str(exc).removesuffix(f" (at position {exc.position})")
                raise UsageError(
                    f"coefficient {entry!r}: {message} (at position {offset + exc.position})"
                ) from None
            if value is None:
                raise UsageError(f"coefficient {entry!r} is not a constant")
            coeffs.append(value)
        g = DefiningPolynomial.from_coefficients(coeffs)
    else:
        g = DefiningPolynomial.from_ncpoly(parse_expr(text, alphabet, field))
    _check_degree(g.degree)
    return g


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise UsageError(f"resource guard: the degree must be <= {MAX_DEGREE}, got {degree}")


def _check_json_path(path) -> None:
    """Refuse a --json path that cannot be written before any work is done:
    its directory is missing or not writable, or it is a directory itself.
    Failures this cannot see surface as OSError when the report is written."""
    if not path or path == "-":
        return
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise UsageError(f"cannot write the JSON report to {path!r}")


def _write_json(args, document: dict):
    if getattr(args, "json", None):
        payload = json.dumps(document, indent=2, sort_keys=True) + "\n"
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload)


def report_document(argv, claims) -> dict:
    return {
        "tool": "diamond",
        "version": __version__,
        "invocation": list(argv),
        "claims": claims,
    }


# -- subcommand handlers -------------------------------------------------------


def _presentation(args, max_degree: int = MAX_DEGREE):
    """The presentation a command runs on, and the field of --cyclotomic
    (None without it): the system of --g, or A(g, f) when --f is given, in
    the order it comes with (grlex+, or the product order for A(g, f)), with
    the --budget of a command that takes one.  A degree of g above
    ``max_degree`` is refused after parsing, before the system is built."""
    order = args.cyclotomic
    if order is not None and order > MAX_CYCLOTOMIC_ORDER:
        raise UsageError(
            f"resource guard: --cyclotomic must be <= {MAX_CYCLOTOMIC_ORDER}, got {order}"
        )
    field = None if order is None else CyclotomicField(order)
    g = parse_defining(args.g, "x", field)
    f = parse_defining(args.f, "y", field) if getattr(args, "f", None) else None
    if g.degree > max_degree:
        raise UsageError(
            f"resource guard: {args.command} needs degree <= {max_degree}, got {g.degree}"
        )
    pres = build_system(g) if f is None else build_tensor_presentation(g, f)
    if getattr(args, "budget", None) is not None:
        pres.system.budget = args.budget
    return pres, field


def _cmd_present(args, argv) -> int:
    pres, _ = _presentation(args)
    doc = pres.to_json_dict()
    print(f"system: {pres.system.describe()}")
    for entry in doc["relations"]:
        print(f"{entry['label']} = {entry['poly']}")
    print("rules:")
    for rule in doc["rules"]:
        print(f"  {rule['label']}: {rule['lhs']} -> {rule['rhs']}")
    _write_json(args, doc)
    return 0


def _cmd_confluence(args, argv) -> int:
    pres, _ = _presentation(args)
    report = check_confluence(pres.system)
    _check_output(res.difference for res in report.resolutions)
    doc = report.to_json_dict()
    print(f"system: {doc['system']}")
    print(
        f"ambiguities: {report.overlap_count} overlap, "
        f"{report.inclusion_count} inclusion"
    )
    for entry in doc["ambiguities"]:
        line = (
            f"  ({entry['sigma']}, {entry['tau']}, {entry['A']}, "
            f"{entry['B']}, {entry['C']}): {entry['verdict']}"
        )
        if "difference" in entry:
            line += f"  difference: {entry['difference']}"
        print(line)
    print(f"overall: {doc['overall']}")
    _write_json(args, doc)
    return 0 if report.overall else 1


def _cmd_nf(args, argv) -> int:
    pres, field = _presentation(args)
    poly = parse_expr(args.expr, pres.alphabet, field)
    nf = normal_form(poly, pres.system)
    _check_output([nf])
    print(nf.render(pres.system.order))
    _write_json(
        args,
        {
            "system": pres.system.describe(),
            "input": args.expr,
            "normal_form": nf.render(pres.system.order),
        },
    )
    return 0


def _power_system(n: int) -> ReductionSystem:
    """The left sides a^j x^(n-j), j = 1..n-1, of the system of x^n, under its
    order.  The census reads only the left sides, so the right sides are zero,
    which every order accepts, in place of the up to 2^n terms of
    ``build_system``."""
    _check_degree(n)
    if n < 2:
        raise UsageError(f"--n must be >= 2, got {n}")
    order = GrlexPlus(AX, weight_letter=1, lex_top=0)
    rules = [Rule((0,) * j + (1,) * (n - j), NcPoly.zero(AX), f"sigma_{j}") for j in range(1, n)]
    return ReductionSystem(AX, order, rules)


def _census(args):
    """The irreducible-word census of x^n, n = --n, to length --max-len.
    The length is checked first, since the counts may be too long to print."""
    if args.max_len > MAX_GROWTH_LEN:
        raise UsageError(
            f"resource guard: --max-len must be <= {MAX_GROWTH_LEN}, got {args.max_len}"
        )
    return irreducible_census(_power_system(args.n), args.max_len)


def _cmd_basis(args, argv) -> int:
    # the census counts the same words as pbw_words, in milliseconds
    counts = _census(args).counts
    if sum(counts) > MAX_BASIS_WORDS:
        raise UsageError(
            f"resource guard: the basis has {sum(counts)} words, more than {MAX_BASIS_WORDS}; "
            "lower --max-len"
        )
    words = [render_word(AX, word) for word in pbw_words(args.n, args.max_len)]
    for word in words:
        print(word)
    print(f"counts per length: {counts}")
    _write_json(
        args,
        {
            "n": args.n,
            "max_len": args.max_len,
            "words": words,
            "counts": counts,
        },
    )
    return 0


def _cmd_growth(args, argv) -> int:
    census = _census(args)
    classification = growth_classify(census)
    print(f"counts: {census.counts}")
    if classification.kind == "polynomial":
        print(f"classification: polynomial, exponent {classification.exponent}")
    else:
        print("classification: exponential")
    _write_json(
        args,
        {
            "n": args.n,
            "counts": census.counts,
            "classification": classification.kind,
            "exponent": classification.exponent,
        },
    )
    return 0


def _cmd_central(args, argv) -> int:
    pres, field = _presentation(args)
    poly = parse_expr(args.expr, pres.alphabet, field)
    central = is_central(poly, pres.system)
    print(f"central: {'yes' if central else 'no'}")
    _write_json(
        args,
        {"system": pres.system.describe(), "element": args.expr, "central": central},
    )
    return 0 if central else 1


def _cmd_hopf_ideal(args, argv) -> int:
    pres, _ = _presentation(args, MAX_HOPF_DEGREE)
    report = hopf_ideal_check(pres)
    doc = report.to_json_dict()
    print(f"system: {doc['system']}")
    print(f"confluent (verdicts certified): {doc['confluent']}")
    for entry in doc["relations"]:
        print(
            f"  {entry['label']}: counit_zero={entry['counit_zero']} "
            f"coproduct_in_ideal={entry['coproduct_in_ideal']}"
        )
    _write_json(args, doc)
    return 0 if report.ok else 1


def _cmd_tensor(args, argv) -> int:
    if not args.f:
        raise UsageError("tensor needs both --g and --f")
    pres, _ = _presentation(args)
    doc = pres.to_json_dict()
    print(f"alphabet: {', '.join(pres.alphabet.names)}")
    print(f"order: {doc['order']}")
    for entry in doc["relations"]:
        print(f"  {entry['label']}: {entry['poly']} = 0")
    if args.confluence:
        report = check_confluence(pres.system)
        verdict = "resolvable" if report.overall else "not_confluent"
        print(f"confluence (report-only): {verdict}")
        doc["confluence_report_only"] = verdict
    _write_json(args, doc)
    return 0


def _cmd_verify(args, argv) -> int:
    names = None if args.suite in (None, "all") else [args.suite]
    claims = run_claim_suites(names, seed=args.seed)
    document = report_document(argv, claims)
    failed = [c for c in claims if c["verdict"] == "fail"]
    for claim in claims:
        print(f"{claim['verdict']:12s} {claim['id']}")
    print(
        f"{len(claims)} claims: "
        f"{sum(1 for c in claims if c['verdict'] == 'pass')} pass, "
        f"{len(failed)} fail, "
        f"{sum(1 for c in claims if c['verdict'] == 'report-only')} report-only"
    )
    _write_json(args, document)
    return 1 if failed else 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


#: the options whose value is an expression, which may begin with '-'
EXPR_OPTIONS = ("--g", "--f", "--expr")


class _ArgParser(argparse.ArgumentParser):
    """argparse reads a separate value that begins with '-', as in
    ``--expr -a*x``, as an unknown option.  This parser, which also parses
    each subcommand, joins such a value to an expression option of its own
    (``--expr=-a*x``), unless the value is an option here or the
    abbreviation of one."""

    def parse_known_args(self, args=None, namespace=None):
        options = self._option_string_actions

        def is_option(token: str) -> bool:
            name = token.split("=", 1)[0]
            if name.startswith("--"):
                return any(option.startswith(name) for option in options)
            return name[:2] in options

        joined = []
        for token in sys.argv[1:] if args is None else args:
            if (joined and joined[-1] in EXPR_OPTIONS and joined[-1] in options
                    and token.startswith("-") and not is_option(token)):
                joined[-1] += "=" + token
            else:
                joined.append(token)
        return super().parse_known_args(joined, namespace)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgParser(
        prog="diamond",
        description="Exact noncommutative rewriting over free algebras",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, f=False, expr=False):
        p.add_argument("--g", required=True, help="defining polynomial in x")
        if f:
            p.add_argument("--f", help="defining polynomial in y")
        if expr:
            p.add_argument("--expr", required=True, help="expression to process")
        p.add_argument("--cyclotomic", type=_positive_int, metavar="N",
                       help="work over the order-N cyclotomic field")
        p.add_argument("--json", metavar="PATH", help="write a JSON report ('-' for stdout)")

    p = sub.add_parser("present", help="print relations and oriented rules")
    common(p)
    p.set_defaults(handler=_cmd_present)

    p = sub.add_parser("confluence", help="enumerate and resolve all ambiguities")
    common(p)
    p.add_argument("--budget", type=_positive_int, help="elementary reduction budget")
    p.set_defaults(handler=_cmd_confluence)

    p = sub.add_parser("nf", help="reduce an expression to normal form")
    common(p, f=True, expr=True)
    p.add_argument("--budget", type=_positive_int)
    p.set_defaults(handler=_cmd_nf)

    p = sub.add_parser("basis", help="enumerate the standard-word basis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(handler=_cmd_basis)

    p = sub.add_parser(
        "growth",
        help="irreducible-word census and its exact growth classification "
        "(polynomial with exponent, or exponential)",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-len", type=int, default=12)
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(handler=_cmd_growth)

    p = sub.add_parser("central", help="check centrality of an expression")
    common(p, f=True, expr=True)
    p.set_defaults(handler=_cmd_central)

    p = sub.add_parser("hopf-ideal", help="counit/coproduct ideal checks per relation")
    common(p)
    p.set_defaults(handler=_cmd_hopf_ideal)

    p = sub.add_parser("tensor", help="build the combined two-polynomial system")
    common(p, f=True)
    p.add_argument("--confluence", action="store_true",
                   help="also run the (report-only) confluence check")
    p.set_defaults(handler=_cmd_tensor)

    p = sub.add_parser("verify", help="run claim suites and emit a report")
    p.add_argument("suite", nargs="?", default="all",
                   choices=["all", *sorted(SUITES)])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(handler=_cmd_verify)

    return parser


def run_command(argv) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _check_json_path(getattr(args, "json", None))
        return args.handler(args, argv)
    except (UsageError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReductionBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        try:
            _write_json(args, {"error": "budget_exceeded", "message": str(exc)})
        except OSError as write_exc:
            print(f"error: {write_exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # --json names a path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
