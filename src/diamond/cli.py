"""Command-line surface: expression parsing, subcommands, JSON reports.

Exit codes: 0 success, 1 failed checks, 2 usage errors, 3 reduction budget
(``--budget``) exceeded.  Report-only verdicts never fail a run.  Output is
deterministic: identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .analysis import growth_classify, irreducible_census, is_central, pbw_words
from .claims import SUITES, run_claim_suites
from .coalgebra import hopf_ideal_check
from .freealg import Alphabet, NcPoly, render_word
from .presentations import (
    AX,
    DefiningPolynomial,
    build_system,
    build_tensor_presentation,
)
from .rewrite import ReductionBudgetExceeded, check_confluence, normal_form
from .scalars import QQ, CyclotomicField, parse_q_poly


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

#: resource guard for ``growth``: the counts of an exponential system have
#: Theta(L) digits, so time, memory and output grow as --max-len squared
#: (8.8 MB printed for n = 6 at length 8,000)
MAX_GROWTH_LEN = 1_000


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
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
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
    """Recursive-descent parser for +, -, explicit *, ^ and parentheses.

    Juxtaposition is rejected; the noncommutative product order of the
    input is preserved exactly.  The name ``q`` denotes the distinguished
    root of unity when a cyclotomic field is active.
    """

    def __init__(self, text: str, alphabet: Alphabet, field=QQ):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.alphabet = alphabet
        self.field = field

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
            op = self.next()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> NcPoly:
        value = self.factor()
        while self.peek()[0] == "*":
            self.next()
            value = value * self.factor()
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
            value = value ** exponent
        return value

    def atom(self) -> NcPoly:
        token = self.next()
        kind, text, pos = token
        if kind == "-":
            return -self.factor()
        if kind == "(":
            value = self.expr()
            self.expect(")")
            return value
        if kind == "int":
            numerator = int(text)
            if self.peek()[0] == "/":
                self.next()
                den = self.expect("int")
                if int(den[1]) == 0:
                    raise ExprError("zero denominator", den[2])
                return NcPoly.one(self.alphabet).scale(
                    self.field.coerce(Fraction(numerator, int(den[1])))
                )
            return NcPoly.one(self.alphabet).scale(self.field.coerce(numerator))
        if kind == "name":
            if text == "q" and isinstance(self.field, CyclotomicField):
                return NcPoly.one(self.alphabet).scale(self.field.q)
            if text in self.alphabet.names:
                return NcPoly.generator(self.alphabet, self.alphabet.index(text))
            raise ExprError(f"unknown symbol {text!r}", pos)
        raise ExprError(f"unexpected {text!r}", pos)


def parse_expr(text: str, alphabet: Alphabet, field=QQ) -> NcPoly:
    """Parse expression text into an exact polynomial over the alphabet."""
    return _Parser(text, alphabet, field).parse()


def parse_defining(text: str, letter: str = "x", field=QQ) -> DefiningPolynomial:
    """--g / --f argument: either an expression in one letter or a
    comma-separated coefficient list ``r_1, r_2, ..., r_n``."""
    text = text.strip()
    if "," in text:
        coeffs = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if isinstance(field, CyclotomicField) and ("q" in chunk):
                coeffs.append(parse_q_poly(chunk, field.order))
            else:
                coeffs.append(Fraction(chunk))
        return DefiningPolynomial.from_coefficients(coeffs)
    poly = parse_expr(text, Alphabet((letter,)), field)
    return DefiningPolynomial.from_ncpoly(poly, 0)


def _field_from_args(args):
    if getattr(args, "cyclotomic", None):
        return CyclotomicField(args.cyclotomic)
    return QQ


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


def _cmd_present(args, argv) -> int:
    field = _field_from_args(args)
    g = parse_defining(args.g, "x", field)
    pres = build_system(g)
    print(f"system: {pres.system.describe()}")
    for label, sigma in pres.relations:
        print(f"{label} = {sigma.render(pres.system.order)}")
    print("rules:")
    for rule in pres.system.rules:
        lhs = render_word(pres.alphabet, rule.lhs)
        print(f"  {rule.label}: {lhs} -> {rule.rhs.render(pres.system.order)}")
    _write_json(args, pres.to_json_dict())
    return 0


def _cmd_confluence(args, argv) -> int:
    field = _field_from_args(args)
    g = parse_defining(args.g, "x", field)
    pres = build_system(g)
    if args.budget is not None:
        pres.system.budget = args.budget
    report = check_confluence(pres.system)
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


def _build_expression_context(args):
    field = _field_from_args(args)
    if args.f:
        g = parse_defining(args.g, "x", field)
        f = parse_defining(args.f, "y", field)
        pres = build_tensor_presentation(g, f)
        if args.order and args.order != "product":
            raise UsageError("tensor systems use the product order")
        return pres, field
    if args.order and args.order not in ("grlex+",):
        raise UsageError("single-polynomial systems use the grlex+ order")
    g = parse_defining(args.g, "x", field)
    return build_system(g), field


def _cmd_nf(args, argv) -> int:
    pres, field = _build_expression_context(args)
    poly = parse_expr(args.expr, pres.alphabet, field)
    if args.budget is not None:
        pres.system.budget = args.budget
    nf = normal_form(poly, pres.system)
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


def _power_system(n: int):
    return build_system(DefiningPolynomial.from_coefficients((0,) * (n - 1) + (1,))).system


def _cmd_basis(args, argv) -> int:
    # the census counts the same words as pbw_words, in milliseconds
    total = sum(irreducible_census(_power_system(args.n), args.max_len).counts)
    if total > MAX_BASIS_WORDS:
        raise UsageError(
            f"resource guard: the basis has {total} words, more than {MAX_BASIS_WORDS}; "
            "lower --max-len"
        )
    words = pbw_words(args.n, args.max_len)
    counts = [0] * (args.max_len + 1)
    for word in words:
        counts[len(word)] += 1
    for word in words:
        print(render_word(AX, word))
    print(f"counts per length: {counts}")
    _write_json(
        args,
        {
            "n": args.n,
            "max_len": args.max_len,
            "words": [render_word(AX, w) for w in words],
            "counts": counts,
        },
    )
    return 0


def _cmd_growth(args, argv) -> int:
    if args.max_len > MAX_GROWTH_LEN:
        raise UsageError(
            f"resource guard: --max-len must be <= {MAX_GROWTH_LEN}, got {args.max_len}"
        )
    census = irreducible_census(_power_system(args.n), args.max_len)
    classification = growth_classify(census)
    print(f"counts: {census.counts}")
    if classification.kind == "polynomial":
        print(f"classification: polynomial, exponent {classification.exponent}")
    elif classification.kind == "exponential":
        print(f"classification: exponential, tail ratio {classification.tail_ratio:.3f}")
    else:
        print("classification: inconclusive")
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
    pres, field = _build_expression_context(args)
    poly = parse_expr(args.expr, pres.alphabet, field)
    central = is_central(poly, pres.system)
    print(f"central: {'yes' if central else 'no'}")
    _write_json(
        args,
        {"system": pres.system.describe(), "element": args.expr, "central": central},
    )
    return 0 if central else 1


def _cmd_hopf_ideal(args, argv) -> int:
    field = _field_from_args(args)
    g = parse_defining(args.g, "x", field)
    report = hopf_ideal_check(g)
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
    field = _field_from_args(args)
    g = parse_defining(args.g, "x", field)
    f = parse_defining(args.f, "y", field)
    pres = build_tensor_presentation(g, f)
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
    overrides = {}
    if args.slack is not None:
        overrides["pbw"] = {"slack": args.slack}
    claims = run_claim_suites(names, seed=args.seed, overrides=overrides)
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


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diamond",
        description="Exact noncommutative rewriting over free algebras",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, g=True, f=False, expr=False):
        if g:
            p.add_argument("--g", required=True, help="defining polynomial in x")
        if f:
            p.add_argument("--f", help="defining polynomial in y")
        if expr:
            p.add_argument("--expr", required=True, help="expression to process")
        p.add_argument("--cyclotomic", type=int, metavar="N",
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
    p.add_argument("--order", choices=("grlex+", "product"))
    p.add_argument("--budget", type=_positive_int)
    p.set_defaults(handler=_cmd_nf)

    p = sub.add_parser("basis", help="enumerate the standard-word basis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(handler=_cmd_basis)

    p = sub.add_parser("growth", help="irreducible-word census and classification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-len", type=int, default=12)
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(handler=_cmd_growth)

    p = sub.add_parser("central", help="check centrality of an expression")
    common(p, f=True, expr=True)
    p.add_argument("--order", choices=("grlex+", "product"))
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
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--slack", type=int, default=None,
                   help="dimension-oracle slack for the pbw suite")
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
        return args.handler(args, argv)
    except (ExprError, UsageError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReductionBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        _write_json(args, {"error": "budget_exceeded", "message": str(exc)})
        return 3


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
