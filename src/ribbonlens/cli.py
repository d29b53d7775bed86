"""Command-line surface.

Every subcommand answers one query, prints either human text or a single
versioned JSON document (all integers rendered as decimal strings, never a
float), and exits 0 for yes/success, 1 for no, 2 for inconclusive, 64 for a
usage error, 70 for an internal error and 74 when the answer cannot be
written to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from fractions import Fraction
from itertools import islice
from math import gcd

from . import search, selfcheck
from .arith import FnWitness, LensSpace, cf_expand, cf_length, continuant, fn_membership, lens_homeomorphic, lens_normalize
from .classify import (
    ConnectedSum,
    PairType,
    TwoBridgeLink,
    Verdict,
    chi_leq_bridge,
    ribbon_leq_lens,
    ribbon_leq_sum,
)

SCHEMA = "ribbonlens/2"

EXIT_YES = 0
EXIT_NO = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70
EXIT_IOERR = 74

# the exit code of every answer a query can give
EXIT_CODES = {
    "yes": EXIT_YES,
    "member": EXIT_YES,
    "found": EXIT_YES,
    "no": EXIT_NO,
    "non-member": EXIT_NO,
    "absent": EXIT_NO,
    "inconclusive": EXIT_INCONCLUSIVE,
}


class UsageError(Exception):
    pass


def _note(stderr, line: str) -> None:
    """Print one line to stderr, or drop it if stderr is closed or failing:
    a lost diagnostic must not change the exit code."""
    if stderr is not None:  # None is Python's sys.stderr when descriptor 2 is closed
        with contextlib.suppress(OSError):
            print(line, file=stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want 64
        raise UsageError(message)

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        # argparse hands a positional an empty list when a second "--" ends argv
        for name, value in vars(parsed).items():
            if value == []:
                raise UsageError(f"missing operand: {name}")
        return parsed


# -- token parsing -------------------------------------------------------------


def parse_fraction(token: str) -> Fraction:
    raw = token.strip()
    num, slash, den = raw.partition("/")
    try:
        p = int(num)
        q = int(den) if slash else 1
    except ValueError:
        raise UsageError(f"malformed fraction: {token!r}") from None
    if q <= 0:
        raise UsageError(f"malformed fraction (need q >= 1): {token!r}")
    if gcd(p, q) != 1:
        raise UsageError(f"parameters not coprime in {token!r}")
    return Fraction(p, q)


def parse_lens(token: str) -> LensSpace:
    """p/q with an optional leading '-' meaning orientation reversal."""
    raw = token.strip()
    reverse = raw.startswith("-")
    if reverse:
        raw = raw[1:]
    if raw in ("S3", "s3"):  # S3 is its own reverse
        return LensSpace(1, 0)
    f = parse_fraction(raw)
    if f < 1:
        raise UsageError(f"lens fraction must satisfy p >= q >= 0: {token!r}")
    try:
        lens = lens_normalize(f.numerator, f.denominator)
    except ValueError as exc:
        raise UsageError(f"bad lens parameters {token!r}: {exc}") from None
    return lens.reverse() if reverse else lens


def parse_sum(token: str) -> ConnectedSum:
    raw = token.strip()
    if not raw:
        return ConnectedSum.of()
    return ConnectedSum.of(*(parse_lens(part) for part in raw.split(",")))


def parse_links(token: str) -> tuple[TwoBridgeLink, ...]:
    raw = token.strip()
    if not raw:
        return (TwoBridgeLink(1, 0),)
    links = []
    for part in raw.split(","):
        part = part.strip()
        if part.removeprefix("-") in ("U", "u"):  # U is its own mirror
            links.append(TwoBridgeLink(1, 0))
            continue
        lens = parse_lens(part)
        links.append(TwoBridgeLink(lens.p, lens.q))
    return tuple(links)


def parse_terms(token: str) -> tuple[int, ...]:
    raw = token.strip()
    if not raw:
        return ()
    try:
        terms = tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise UsageError(f"malformed chain string: {token!r}") from None
    return terms


# -- JSON rendering (integers as decimal strings) -------------------------------


def lens_to_json(lens: LensSpace) -> dict:
    return {"p": str(lens.p), "q": str(lens.q)}


def lens_from_json(doc: dict) -> LensSpace:
    return LensSpace(int(doc["p"]), int(doc["q"]))


def pair_type_to_json(pair: PairType) -> dict:
    return {
        "tag": pair.tag,
        "reversed": pair.reversed,
        "left": [lens_to_json(x) for x in pair.left],
        "right": [lens_to_json(x) for x in pair.right],
        "n": None if pair.n is None else str(pair.n),
        "witness": None
        if pair.witness is None
        else {"n": str(pair.witness.n), "m": str(pair.witness.m), "k": str(pair.witness.k)},
    }


def pair_type_from_json(doc: dict) -> PairType:
    witness = doc.get("witness")
    return PairType(
        tag=doc["tag"],
        left=tuple(lens_from_json(x) for x in doc["left"]),
        right=tuple(lens_from_json(x) for x in doc["right"]),
        reversed=doc["reversed"],
        n=None if doc.get("n") is None else int(doc["n"]),
        witness=None
        if witness is None
        else FnWitness(int(witness["n"]), int(witness["m"]), int(witness["k"])),
    )


def verdict_to_json(verdict: Verdict) -> dict:
    return {
        "answer": verdict.answer,
        "witness": [pair_type_to_json(p) for p in verdict.witness],
        "obstruction": verdict.obstruction,
        "oracle": [{"fraction": f, "outcome": o} for f, o in verdict.oracle_trace],
    }


def verdict_from_json(doc: dict) -> Verdict:
    return Verdict(
        answer=doc["answer"],
        witness=tuple(pair_type_from_json(p) for p in doc["witness"]),
        obstruction=doc.get("obstruction"),
        oracle_trace=tuple((c["fraction"], c["outcome"]) for c in doc.get("oracle", ())),
    )


# README documents this name, so it stays beside the other parsers
certificate_from_json = search.Certificate.from_json


def outcome_to_json(outcome: search.SearchOutcome) -> dict:
    return {
        "status": outcome.status,
        "nodes": str(outcome.nodes),
        "certificate": None if outcome.certificate is None else outcome.certificate.to_json(),
    }


# -- verdict presentation --------------------------------------------------------


def _pair_text(pair: PairType) -> str:
    bits = [pair.tag]
    if pair.n is not None:
        bits.append(f"n={pair.n}")
    if pair.witness is not None:
        bits.append(f"(m={pair.witness.m},k={pair.witness.k})")
    if pair.reversed:
        bits.append("[reversed]")
    lhs = "#".join(str(x) for x in pair.left) or "S3"
    rhs = "#".join(str(x) for x in pair.right)
    bits.append(f"{lhs} -> {rhs}")
    return " ".join(bits)


def _verdict_lines(verdict: Verdict) -> list[str]:
    lines = [verdict.answer]
    for pair in verdict.witness:
        lines.append("  " + _pair_text(pair))
    if verdict.obstruction:
        lines.append(f"  obstruction: {verdict.obstruction}")
    for fraction, outcome in verdict.oracle_trace:
        lines.append(f"  oracle {fraction}: {outcome}")
    return lines


# -- subcommand handlers ---------------------------------------------------------


def _budget(args) -> search.SearchBudget:
    for flag, value in (("--max-nodes", args.max_nodes), ("--max-seconds", args.max_seconds)):
        if value is not None and not value > 0:
            raise UsageError(f"{flag} must be positive, got {value}")
    try:
        base = search.SearchBudget.from_env()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    nodes = args.max_nodes if args.max_nodes is not None else base.max_nodes
    seconds = args.max_seconds if args.max_seconds is not None else base.max_seconds
    return search.SearchBudget(max_nodes=nodes, max_seconds=seconds)


def _cache_path(args) -> str | None:
    if args.cache is not None:
        return args.cache
    return os.environ.get("RIBBONLENS_CACHE")


@contextlib.contextmanager
def cache_session(path: str | None, stderr):
    """Yield an EmbeddingCache loaded from path, and save it there afterwards.

    A cache file that cannot be read or written costs a warning on stderr,
    never the answer: the body runs against an empty cache and the save
    replaces the file, or is skipped.  A body that raises skips the save, and
    so does a cache that is not ``changed``: the certificates it would write
    equal those it read from the file.
    """
    cache = search.EmbeddingCache()
    if path and os.path.exists(path):
        try:
            cache.load(path)
        except (OSError, ValueError) as exc:
            _note(stderr, f"warning: ignoring unreadable cache {path}: {exc}")
    yield cache
    if path and cache.changed:
        try:
            cache.save(path)
        except OSError as exc:
            _note(stderr, f"warning: could not write cache {path}: {exc}")


def _cached(args, query, *operands):
    """Answer query(*operands) in a cache session on the --cache file."""
    budget = _budget(args)
    with cache_session(_cache_path(args), args.stderr) as cache:
        return query(*operands, budget=budget, cache=cache)


def cmd_cf(args) -> tuple[int, dict, list[str]]:
    f = parse_fraction(args.fraction)
    if f <= 1:
        raise UsageError(f"expansion needs p/q > 1: {args.fraction!r}")
    budget = _budget(args)

    def inconclusive(over: str):
        _note(args.stderr, f"cf: the expansion has {length} terms, over {over}")
        doc = {"fraction": str(f), "terms": None, "value": None}
        return EXIT_INCONCLUSIVE, doc, [f"{f}: inconclusive"]

    # every term costs a node, so an expansion longer than the budget is
    # counted in closed form and never built
    length = cf_length(f)
    if length > budget.max_nodes:
        return inconclusive(f"the node budget of {budget.max_nodes}")
    # an expansion of 2,048 terms or more reads the query's clock every 2,048
    # terms and once more before its round trip; a shorter one reads none
    if length < 2048:
        terms = cf_expand(f)
    else:
        budget = budget.started()
        terms = cf_expand(f, budget.expired)
        if terms is None or budget.expired():
            return inconclusive(f"the clock of {budget.max_seconds} s")
    # [a1,...,an]^- = continuant(a1..an) / continuant(a2..an): O(n) integer
    # steps and one gcd
    value = Fraction(continuant(terms), continuant(islice(terms, 1, None)))
    if value != f:
        raise RuntimeError(f"the expansion of {f} evaluates to {value}")
    # one string per distinct term, shared by the JSON list and the text line
    rendered = {a: str(a) for a in set(terms)}
    strings = [rendered[a] for a in terms]
    doc = {"fraction": str(f), "terms": strings, "value": str(value)}
    text = [f"{f} = [{','.join(strings)}]^-"]
    return EXIT_YES, doc, text


def cmd_lens_cmp(args) -> tuple[int, dict, list[str]]:
    a = parse_lens(args.first)
    b = parse_lens(args.second)
    same = lens_homeomorphic(a, b, oriented=args.oriented)
    doc = {
        "first": lens_to_json(a),
        "second": lens_to_json(b),
        "oriented": args.oriented,
        "homeomorphic": same,
    }
    text = [f"{a} {'~' if same else '!~'} {b} ({'oriented' if args.oriented else 'unoriented'})"]
    return (EXIT_YES if same else EXIT_NO), doc, text


def cmd_fn(args) -> tuple[int, dict, list[str]]:
    f = parse_fraction(args.fraction)
    if not f.numerator > f.denominator > 0:
        raise UsageError(f"family membership needs p > q > 0: {args.fraction!r}")
    witnesses = fn_membership(f)
    doc = {
        "fraction": str(f),
        "witnesses": [{"n": str(w.n), "m": str(w.m), "k": str(w.k)} for w in witnesses],
    }
    if witnesses:
        text = [f"{f} = n*m^2/(n*m*k+1) for " + "; ".join(f"n={w.n}, m={w.m}, k={w.k}" for w in witnesses)]
    else:
        text = [f"{f} lies in no square-multiple family"]
    return (EXIT_YES if witnesses else EXIT_NO), doc, text


def cmd_in_r(args) -> tuple[int, dict, list[str]]:
    f = parse_fraction(args.fraction)
    if f != 1 and not f.numerator > f.denominator > 0:
        raise UsageError(f"need p > q > 0 or the trivial fraction: {args.fraction!r}")
    result = _cached(args, search.r_membership, f)
    doc = {
        "fraction": str(f),
        "outcome": result.outcome,
        "reason": result.reason,
        "searches": [
            {"fraction": g, **outcome_to_json(out)} for g, out in result.searches
        ],
        "cache_path": _cache_path(args),
    }
    text = [f"{f}: {result.outcome} ({result.reason})"]
    return EXIT_CODES[result.outcome], doc, text


def cmd_verdict(args) -> tuple[int, dict, list[str]]:
    """ribbon, ribbon-sum and bridge: the subcommand's (parse, query, render)
    triple reads both operands, answers the query and renders each operand.
    The triple is looked up on each call, not held by the parser."""
    parse, query, render = {
        "ribbon": (parse_lens, ribbon_leq_lens, lens_to_json),
        "ribbon-sum": (parse_sum, ribbon_leq_sum, lambda y: [lens_to_json(x) for x in y.summands]),
        "bridge": (parse_links, chi_leq_bridge, lambda links: [lens_to_json(k) for k in links]),
    }[args.command]
    first = parse(args.first)
    second = parse(args.second)
    verdict = _cached(args, query, first, second)
    doc = {"first": render(first), "second": render(second), "verdict": verdict_to_json(verdict)}
    return EXIT_CODES[verdict.answer], doc, _verdict_lines(verdict)


def cmd_embed(args) -> tuple[int, dict, list[str]]:
    summands = tuple(parse_terms(token) for token in args.summands)
    try:
        problem = search.SearchProblem(summands, args.ribbon_split)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    outcome = _cached(args, search.find_embedding, problem)
    doc = {
        "summands": [[str(a) for a in terms] for terms in summands],
        "ribbon_split": None if args.ribbon_split is None else str(args.ribbon_split),
        **outcome_to_json(outcome),
    }
    text = [f"{outcome.status} (nodes={outcome.nodes})"]
    if outcome.certificate:
        for group in outcome.certificate.groups:
            text.append("  " + " ".join("{" + ",".join(f"{k}:{x}" for k, x in v) + "}" for v in group))
    return EXIT_CODES[outcome.status], doc, text


def cmd_selfcheck(args) -> tuple[int, dict, list[str]]:
    # the suites take no arguments, so no flag could reach their searches
    for flag, value in (("--max-nodes", args.max_nodes), ("--max-seconds", args.max_seconds), ("--cache", args.cache)):
        if value is not None:
            raise UsageError(f"selfcheck does not take {flag}; its budget comes from the environment only")
    # a bad environment budget is a usage error here, not a failure in every suite
    _budget(args)
    if args.max_p is not None and args.max_p < 2:
        raise UsageError(f"--max-p must be at least 2, got {args.max_p}")
    results = selfcheck.run_all(max_p=args.max_p)
    doc = {
        "results": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    text = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.seconds:.1f}s) {r.detail}"
        for r in results
    ]
    return (EXIT_YES if doc["all_passed"] else EXIT_NO), doc, text


# -- parser --------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The one parser of this process, built on the first call, not at
    import.  It holds each subcommand's handler by name, never a function,
    so a handler or query rebound on this module is the one that runs."""
    parser = _Parser(prog="ribbonlens", description=__doc__)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--max-nodes", type=int, default=None, help="search node budget")
    parser.add_argument("--max-seconds", type=float, default=None, help="search time budget")
    parser.add_argument("--cache", default=None, help="certificate cache file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cf", help="negative continued fraction expansion")
    p.add_argument("fraction")
    p.set_defaults(handler="cmd_cf")

    lens = sub.add_parser("lens", help="lens space utilities")
    lens_sub = lens.add_subparsers(dest="lens_command", required=True)
    p = lens_sub.add_parser("cmp", help="homeomorphism test")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--oriented", action="store_true")
    p.set_defaults(handler="cmd_lens_cmp")

    p = sub.add_parser("fn", help="square-multiple family witnesses")
    p.add_argument("fraction")
    p.set_defaults(handler="cmd_fn")

    p = sub.add_parser("in-r", help="rational-ball membership oracle")
    p.add_argument("fraction")
    p.set_defaults(handler="cmd_in_r")

    for name, help_text in (
        ("ribbon", "ribbon cobordism between two lens spaces"),
        ("ribbon-sum", "ribbon cobordism between connected sums"),
        ("bridge", "chi-concordance of 2-bridge link sums"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("first")
        p.add_argument("second")
        p.set_defaults(handler="cmd_verdict")

    p = sub.add_parser("embed", help="raw lattice embedding search")
    p.add_argument("--summands", action="append", required=True, metavar="a1,a2,...")
    p.add_argument("--ribbon-split", type=int, default=None)
    p.set_defaults(handler="cmd_embed")

    p = sub.add_parser("selfcheck", help="run the acceptance cross-validation suites")
    p.add_argument("--max-p", type=int, default=None)
    p.set_defaults(handler="cmd_selfcheck")

    return parser


def run(argv, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        with contextlib.redirect_stdout(stdout):  # where --help prints before exiting 0
            args = parser.parse_args(argv)
        args.stderr = stderr
        code, doc, text = globals()[args.handler](args)
        if args.format == "json":
            envelope = {"schema": SCHEMA, "command": args.command, "result": doc}
            text = [json.dumps(envelope, sort_keys=True, separators=(",", ":"))]
    except SystemExit as exc:
        code, text = exc.code, []
    except UsageError as exc:
        _note(stderr, f"usage error: {exc}")
        return EXIT_USAGE
    except Exception as exc:  # a bug must not read as "no" (exit 1)
        _note(stderr, f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_SOFTWARE
    return code if print_lines(text, stdout, stderr) else EXIT_IOERR


def print_lines(lines, stdout, stderr) -> bool:
    """Print the lines and flush stdout; False, after one "output error" line
    on stderr, when stdout is closed or a write fails.  An answer lost to a
    full or closed stdout must not read as given, so the caller exits 74."""
    try:
        if stdout is None:  # Python's sys.stdout when descriptor 1 is closed
            raise OSError("stdout is closed")
        for line in lines:
            print(line, file=stdout)
        stdout.flush()
    except OSError as exc:
        _note(stderr, f"output error: {exc}")
        return False
    return True


def flush_standard_streams() -> None:
    """Flush stdout and stderr before exiting.  A lost answer or diagnostic is
    still buffered, so a descriptor whose flush fails is pointed at
    os.devnull; otherwise the interpreter's exit flush fails with exit 120."""
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def main() -> None:
    code = run(sys.argv[1:])
    flush_standard_streams()
    sys.exit(code)


if __name__ == "__main__":
    main()
