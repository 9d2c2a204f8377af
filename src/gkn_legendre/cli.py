"""Command-line front end.

Verbs: bracket, matrix, verify, sweep, qfun, stirling, laguerre-coeff.
Exit codes: 0 ok, 1 assertion failure, 2 usage or domain error, 3 I/O error.
All machine-readable output is valid JSON or CSV; rationals print as "p/q".
"""

from __future__ import annotations

import argparse
import inspect
import json
import re
import sys
from dataclasses import asdict
from fractions import Fraction

from . import __version__
from .brackets import bracket, bracket_decomposed
from .classical import ClassicalFunction, legendre_q
from .exactnum import laguerre_ld_coefficient, legendre_stirling, rational_str, require_int
from .matrices import (
    BracketMatrix,
    IndexSelection,
    b_block,
    build_matrix,
    c_block,
    canonical_selection,
    parity_census,
)
from .oracle import bracket_via_oracle
from .sweep import LEDGER_ENV_VAR, RunConfig, run_sweep
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes", "on"):
        return True
    if s.lower() in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {s!r}")


def _parse_indices(s: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in s.split(",") if tok != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {s!r}")


def _parse_rational(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational such as 3 or 1/2, got {s!r}")


def _selection_from_args(args) -> IndexSelection:
    if args.canonical:
        extra = ", ".join(f"--{f}" for f in ("p", "q") if getattr(args, f) is not None)
        if extra:
            raise ValueError(f"--canonical does not take {extra}")
        return canonical_selection(args.n)
    if args.p is None or args.q is None:
        raise ValueError("either --canonical or both --p and --q are required")
    return IndexSelection(args.p, args.q, args.n)


def cmd_bracket(args) -> int:
    f = ClassicalFunction(args.kind1.upper(), args.idx1)
    g = ClassicalFunction(args.kind2.upper(), args.idx2)
    value = bracket(f, g, args.n)
    oracle_value = bracket_via_oracle(f, g, args.n) if args.check_oracle else value
    agrees = oracle_value == value
    if args.verbose:
        gap, inner = bracket_decomposed(f, g, args.n)
        print(f"[{f},{g}]_{args.n} = {rational_str(value)}")
        print(f"eigen_gap = {rational_str(gap)}")
        print(f"inner     = {rational_str(inner)}")
        if args.check_oracle:
            print(f"oracle    = {rational_str(oracle_value)} ({'agrees' if agrees else 'MISMATCH'})")
    elif agrees:
        print(rational_str(value))
    else:
        print("oracle mismatch", file=sys.stderr)
    return EXIT_OK if agrees else EXIT_ASSERTION


def cmd_matrix(args) -> int:
    sel = _selection_from_args(args)
    if args.block == "M":
        m = build_matrix(sel)
        doc = m.to_json()
    else:
        # a block is rendered as a BracketMatrix labelled by its rows
        r = len(sel.p_indices)
        if args.block == "B":
            rows, row_labels = b_block(sel), sel.labels[:r]
        else:
            rows, row_labels = c_block(sel), sel.labels[r:]
        m = BracketMatrix(tuple(map(tuple, rows)), row_labels, sel.power)
        as_json = m.to_json()
        doc = {
            "power": sel.power,
            "block": args.block,
            "row_labels": as_json["labels"],
            "col_labels": [str(f) for f in sel.labels[r:]],
            "entries": as_json["entries"],
        }
    if not m.entries or not m.entries[0]:
        raise ValueError(f"the {args.block} block of {sel.key()} is empty")
    if args.format == "json":
        print(json.dumps(doc))
    elif args.format == "csv":
        sys.stdout.write(m.to_csv())
    else:
        print(m.pretty())
    return EXIT_OK


# the verify flags and the least value each takes; below it the flag is a
# usage error, not a claim that failed.  A suite takes the flags its
# signature names, and unset flags are not passed, so each suite's own
# signature holds its defaults
_FLAG_MIN = {"max_n": 0, "max_index": 0, "pool": 0, "n": 1}


def cmd_verify(args) -> int:
    given = {flag: getattr(args, flag) for flag in _FLAG_MIN if getattr(args, flag) is not None}
    extra = sorted(given.keys() - inspect.signature(SUITES[args.suite]).parameters.keys())
    if extra:
        names = ", ".join("--" + f.replace("_", "-") for f in extra)
        raise ValueError(f"suite {args.suite} does not take {names}")
    for flag in sorted(given):
        if given[flag] < _FLAG_MIN[flag]:
            raise ValueError(f"--{flag.replace('_', '-')} must be >= {_FLAG_MIN[flag]}")
    results = run_suite(args.suite, **given)
    failures = [r for r in results if not r.ok]
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status}  {r.name}  ({r.elapsed:.3f}s)  {r.detail}")
    if not results:
        print(f"suite {args.suite} ran no checks", file=sys.stderr)
        return EXIT_ASSERTION
    if failures:
        try:
            with open(args.failure_dump, "w", encoding="utf-8") as fh:
                json.dump([asdict(r) for r in results], fh, indent=2)
            print(f"failure report written to {args.failure_dump}", file=sys.stderr)
        except OSError as exc:
            print(f"could not write failure report: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_sweep(args) -> int:
    for flag in ("n", "workers"):  # a negative --pool is an empty pool, which run_sweep reports
        if getattr(args, flag) < 1:
            raise ValueError(f"--{flag} must be >= 1")
    config = RunConfig(
        power=args.n,
        pool_bound=args.pool,
        parity_filter=not args.no_parity_filter,
        workers=args.workers,
    )
    if args.ledger is not None:
        config.ledger_path = args.ledger
    try:
        records = run_sweep(config)
    except OSError as exc:
        print(f"ledger I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    # only a balanced deficient selection contradicts the conjecture; an
    # unbalanced one is deficient by the parity theorem
    n = config.power
    deficient = [r for r in records if not r.full_rank and parity_census(r.selection) == (n, n)]
    if args.format == "json":
        for rec in records:
            print(json.dumps(rec.to_json(), sort_keys=True))
    elif args.format == "csv":
        import csv  # here, not at the top: it adds about 0.2 MB to every verb's start

        out = csv.writer(sys.stdout, lineterminator="\n")  # quotes the key, which holds commas
        out.writerow(["key", "n", "rank", "full_rank", "det_B"])
        out.writerows([r.key(), r.selection.power, r.rank, r.full_rank, r.det_b] for r in records)
    else:
        print(f"{len(records)} new records appended to {config.ledger_path}")
        for rec in deficient:
            print(f"CONJECTURE-COUNTEREXAMPLE: {rec.key()} rank {rec.rank} det_B {rec.det_b}")
    if deficient and args.format != "pretty":
        for rec in deficient:
            print(f"CONJECTURE-COUNTEREXAMPLE: {rec.key()}", file=sys.stderr)
    return EXIT_OK


def cmd_qfun(args) -> int:
    q = legendre_q(args.k)
    if args.format == "json":
        print(json.dumps(q.to_json()))
    else:
        print(f"Q_{args.k}(x) = {q}")
    return EXIT_OK


def cmd_stirling(args) -> int:
    require_int("stirling", "n", args.n, 0)
    rows = [[legendre_stirling(n, k) for k in range(n + 1)] for n in range(args.n + 1)]
    if args.format == "json":
        print(json.dumps(rows))
    else:
        for n, row in enumerate(rows):
            print(f"n={n}: " + " ".join(map(str, row)))
    return EXIT_OK


def cmd_laguerre_coeff(args) -> int:
    value = laguerre_ld_coefficient(args.j, args.n, args.k)
    print(rational_str(value))
    return EXIT_OK


VERBS = ("bracket", "matrix", "verify", "sweep", "qfun", "stirling", "laguerre-coeff")


def build_parser(verbs=VERBS) -> argparse.ArgumentParser:
    """The parser with the arguments of ``verbs``.  Its usage line lists
    every verb, whichever are built, so a parser built for one verb parses
    that verb and words its help and errors as the full parser does."""
    parser = argparse.ArgumentParser(
        prog="gkn-legendre",
        description="Exact GKN boundary-condition engine for powers of the Legendre operator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # a metavar would also rename the verb argument in the full parser's
    # errors ("argument command: invalid choice"), so only a parser that
    # leaves a verb out lists the verbs through it
    metavar = "{" + ",".join(VERBS) + "}" if set(VERBS) - set(verbs) else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    if "bracket" in verbs:
        p = sub.add_parser("bracket", help="evaluate a boundary bracket [f,g]_n")
        p.add_argument("kind1", choices=["P", "Q", "p", "q"])
        p.add_argument("idx1", type=int)
        p.add_argument("kind2", choices=["P", "Q", "p", "q"])
        p.add_argument("idx2", type=int)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--verbose", "-v", action="store_true")
        p.add_argument("--check-oracle", type=_parse_bool, default=False,
                       help="cross-check against the symbolic endpoint-limit oracle")
        p.set_defaults(func=cmd_bracket)

    if "matrix" in verbs:
        p = sub.add_parser("matrix", help="print a boundary-form matrix")
        p.add_argument("--canonical", action="store_true")
        p.add_argument("--p", type=_parse_indices)
        p.add_argument("--q", type=_parse_indices)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--block", choices=["M", "B", "C"], default="M")
        p.add_argument("--format", choices=["pretty", "json", "csv"], default="pretty")
        p.set_defaults(func=cmd_matrix)

    if "verify" in verbs:
        p = sub.add_parser("verify", help="run a verification suite")
        p.add_argument("--suite", choices=sorted(SUITES), required=True)
        for flag in _FLAG_MIN:
            p.add_argument("--" + flag.replace("_", "-"), type=int, default=None)
        p.add_argument("--failure-dump", default="gkn_verify_failures.json")
        p.set_defaults(func=cmd_verify)

    if "sweep" in verbs:
        p = sub.add_parser("sweep", help="sweep parity-balanced selections into the ledger")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--pool", type=int, required=True)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--no-parity-filter", action="store_true")
        p.add_argument("--ledger", default=None, help=f"ledger path (or env {LEDGER_ENV_VAR})")
        p.add_argument("--format", choices=["json", "csv", "pretty"], default="pretty")
        p.set_defaults(func=cmd_sweep)

    if "qfun" in verbs:
        p = sub.add_parser("qfun", help="print the exact representation of Q_k")
        p.add_argument("k", type=int)
        p.add_argument("--format", choices=["pretty", "json"], default="pretty")
        p.set_defaults(func=cmd_qfun)

    if "stirling" in verbs:
        p = sub.add_parser("stirling", help="print the Legendre-Stirling triangle")
        p.add_argument("n", type=int)
        p.add_argument("--format", choices=["pretty", "json"], default="pretty")
        p.set_defaults(func=cmd_stirling)

    if "laguerre-coeff" in verbs:
        p = sub.add_parser("laguerre-coeff", help="Laguerre left-definite coefficient b_j(n,k)")
        # read a dash followed by a digit (-3/4 too, not only -3 or -0.75) as a
        # negative number, as argparse does from Python 3.13 on
        p._negative_number_matcher = re.compile(r"-\.?\d")
        p.add_argument("j", type=int)
        p.add_argument("n", type=int)
        p.add_argument("k", type=_parse_rational)
        p.set_defaults(func=cmd_laguerre_coeff)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the arguments of the verb being run only; with no verb first (none,
    # --help, --version, a misspelt verb), those of every verb
    parser = build_parser(argv[:1] if argv and argv[0] in VERBS else VERBS)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; keep --version/-h at 0
        return int(exc.code or 0)
    # exact values are printed in full; the arguments were parsed under the
    # caller's digit limit, which is back in force once the verb returns
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0, no limit, before 3.10.7
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
