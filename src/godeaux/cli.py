"""Command-line front end for the engine and the verification suite.

Exit codes: 0 success (for ``verify``: every check passed; for
``reverify``: every saved result re-verified); 1 at least one check
failed or saved result was rejected; 2 usage, parse, or data errors,
including a file that is not a JSON report; 3 a basis computation
exceeded its pair budget.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from . import numerics
from .derivations import graded_kernel, parse_derivation
from .errors import BudgetExceeded, EngineError
from .fixtures import keyvals, load_fixtures, strip_lines
from .groebner import DEFAULT_BUDGET, buchberger
from .rings import DEGREVLEX, LEX, PolyRing, is_prime, parse_poly
from .suite import (BUDGET_EXCEEDED, CHECK_IDS, DEFAULT_SEED, PASS,
                    REPORT_FIELDS, CheckResult, report, run_all,
                    verify_witness)

USAGE_EXIT = 2
BUDGET_EXIT = 3

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_FLAGS = {  # settings key -> (flag, add_argument options)
    "p": ("--p", dict(type=int, default=5,
                      help="prime characteristic (default 5)")),
    "order": ("--order", dict(choices=("degrevlex", "lex"),
                              default="degrevlex",
                              help="monomial order (default degrevlex)")),
    "seed": ("--seed", dict(type=int, default=DEFAULT_SEED,
                            help="randomness seed for the suite (default 1)")),
    "budget": ("--budget", dict(type=int, default=DEFAULT_BUDGET,
                                help=f"pair budget for basis computations "
                                     f"(default {DEFAULT_BUDGET})")),
    "fmt": ("--format", dict(dest="fmt", choices=("text", "json"),
                             default="text",
                             help="output format (default text)")),
    "only": ("--only", dict(default=None, metavar="CHECK-ID",
                            help="run a single verification check, e.g. C3")),
}


def _add_flags(parser: argparse.ArgumentParser, homes: dict,
               *names: str) -> None:
    """Give a subcommand the shared flags it reads, and only those: a flag
    parsed at two levels would let the lower level's default win.
    ``homes`` maps each flag to the commands (``prog``) that take it."""
    for name in names:
        flag, options = _FLAGS[name]
        parser.add_argument(flag, **options)
        homes.setdefault(flag, []).append(parser.prog)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="godeaux",
        description="Exact characteristic-p verification engine")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parser.flag_homes = homes = {}

    verify = sub.add_parser("verify",
                            help="run the 14-check verification suite")
    _add_flags(verify, homes, "p", "seed", "budget", "fmt", "only")

    rev = sub.add_parser("reverify",
                         help="re-check the witnesses of a saved JSON report "
                              "without a basis search")
    rev.add_argument("report", help="output of `godeaux verify --format json`")

    kernel = sub.add_parser("kernel", help="graded kernel of a derivation")
    _add_flags(kernel, homes, "p", "order", "fmt")
    kernel.add_argument("file", help="derivation file: `var -> poly` lines, "
                                     "optional `p = ...` / `vars = ...` header")
    kernel.add_argument("--degree", type=int, required=True)

    groebner = sub.add_parser("groebner", help="reduced basis of an ideal")
    _add_flags(groebner, homes, "p", "order", "budget", "fmt")
    groebner.add_argument("file", help="ideal file: one polynomial per line, "
                                       "optional `p = ...` / `vars = ...` "
                                       "header")

    inv = sub.add_parser("invariants",
                         help="numerical invariant calculations")
    kinds = inv.add_subparsers(dest="invariant_kind", required=True)

    hyper = kinds.add_parser("hypersurface")
    _add_flags(hyper, homes, "fmt")
    hyper.add_argument("--d", type=int, required=True,
                       help="hypersurface degree")

    feas = kinds.add_parser("feasible")
    _add_flags(feas, homes, "fmt")
    feas.add_argument("--kind", choices=("singular", "supersingular"),
                      required=True)
    feas.add_argument("--threshold", type=int, default=-4)
    feas.add_argument("--cover-bound", dest="cover_bound", type=int, default=6)

    torsor = kinds.add_parser("torsor")
    _add_flags(torsor, homes, "p", "fmt")
    torsor.add_argument("--chi", type=int, required=True)
    torsor.add_argument("--k2", type=int, required=True)

    betti = kinds.add_parser("betti")
    _add_flags(betti, homes, "fmt")
    betti.add_argument("--chi", type=int, required=True)
    betti.add_argument("--k2", type=int, required=True)
    betti.add_argument("--b1", type=int, default=0)

    parser.commands = {c.prog for c in [*sub.choices.values(),
                                        *kinds.choices.values()]}
    return parser


class _Usage(Exception):
    pass


def _settings(args) -> dict:
    """Every shared flag's value; one a subcommand lacks reads as its
    default."""
    settings = {name: getattr(args, name, options["default"])
                for name, (_, options) in _FLAGS.items()}
    if not is_prime(settings["p"]):
        raise _Usage(f"--p must be prime, got {settings['p']}")
    if settings["budget"] < 1:
        raise _Usage(f"--budget must be at least 1, got {settings['budget']}")
    return settings


def _order_for(name: str):
    return DEGREVLEX if name == "degrevlex" else LEX


def _split_input(text: str) -> tuple[dict, list[str]]:
    """Split `key = value` header lines (`=`, no `->`) from payload lines."""
    meta, body = [], []
    for line in strip_lines(text):
        (meta if "=" in line and "->" not in line else body).append(line)
    return keyvals(meta), body


def _natural_key(name: str):
    m = re.match(r"(.*?)(\d*)$", name)
    return (m.group(1), int(m.group(2)) if m.group(2) else -1)


def _ring_from_input(meta: dict, body: list[str], settings: dict,
                     derivation: bool) -> PolyRing:
    p = int(meta["p"]) if "p" in meta else settings["p"]
    if not is_prime(p):
        raise _Usage(f"characteristic must be prime, got {p}")
    if "vars" in meta:
        variables = tuple(meta["vars"].split())
    elif derivation:
        variables = tuple(line.split("->", 1)[0].strip() for line in body)
    else:
        names = set()
        for line in body:
            for token in _IDENT.findall(line):
                names.add(token)
        variables = tuple(sorted(names, key=_natural_key))
    if not variables:
        variables = ("x",)
    return PolyRing(variables, p, _order_for(settings["order"]))


def _write(text: str) -> None:
    """Write ``text`` to stdout now.  A reader that stopped early is no
    error: the rest of the output goes to devnull (CPython's SIGPIPE note),
    and the command still finishes once, with its own exit code."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit_json(payload: dict) -> None:
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_verify(args, settings) -> int:
    if settings["p"] != 5:
        raise _Usage("the verification fixtures are defined at "
                     "characteristic 5")
    only = settings["only"]
    if only is not None and only not in CHECK_IDS:
        raise _Usage(f"unknown check id {only!r} (expected one of "
                     f"{', '.join(CHECK_IDS)})")
    results = run_all(seed=settings["seed"], budget=settings["budget"],
                      only=[only] if only else None)
    _write(report(results, settings["fmt"]))
    if any(r.status == BUDGET_EXCEEDED for r in results):
        return BUDGET_EXIT
    if any(r.status != PASS for r in results):
        return 1
    return 0


def _load_report(path: str) -> list[CheckResult]:
    try:
        payload = json.loads(Path(path).read_text())
    except RecursionError:
        raise _Usage(f"{path} is not a JSON report of `godeaux verify`: it "
                     "nests too deeply") from None
    if not (isinstance(payload, list) and payload and all(
            isinstance(e, dict) and e.keys() == set(REPORT_FIELDS)
            and e["id"] in CHECK_IDS and isinstance(e["witness"], dict)
            for e in payload)):
        raise _Usage(f"{path} is not a JSON report of `godeaux verify`")
    return [CheckResult(**e) for e in payload]


def cmd_reverify(args, settings) -> int:
    results = _load_report(args.report)
    fixtures = load_fixtures()
    rejected = 0
    for r in results:
        ok = verify_witness(r, fixtures)
        rejected += not ok
        _write(f"{r.id:<4} {'verified' if ok else 'rejected'}\n")
    _write(f"{len(results)} results: {len(results) - rejected} verified, "
           f"{rejected} rejected\n")
    return 1 if rejected else 0


def cmd_kernel(args, settings) -> int:
    text = Path(args.file).read_text()
    meta, body = _split_input(text)
    ring = _ring_from_input(meta, body, settings, derivation=True)
    delta = parse_derivation(ring, "\n".join(body))
    if args.degree < 0:
        raise _Usage("--degree must be non-negative")
    basis = graded_kernel(delta, args.degree)
    if settings["fmt"] == "json":
        _emit_json({"basis": [str(f) for f in basis],
                    "dimension": len(basis)})
    else:
        for f in basis:
            _write(f"{f}\n")
        _write(f"dimension = {len(basis)}\n")
    return 0


def cmd_groebner(args, settings) -> int:
    text = Path(args.file).read_text()
    meta, body = _split_input(text)
    ring = _ring_from_input(meta, body, settings, derivation=False)
    gens = [parse_poly(ring, line) for line in body]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        if settings["fmt"] == "json":
            _emit_json({"basis": [], "pairs_processed": 0})
        return 0
    gb = buchberger(gens, budget=settings["budget"])
    if settings["fmt"] == "json":
        _emit_json({"basis": [str(g) for g in gb.polynomials],
                    "pairs_processed": gb.pairs_processed})
    else:
        for g in gb.polynomials:
            _write(f"{g}\n")
    return 0


def cmd_invariants(args, settings) -> int:
    kind = args.invariant_kind
    if kind == "hypersurface":
        chi, k2 = numerics.hypersurface_invariants(args.d)
        payload = {"chi": chi, "k2": k2}
    elif kind == "feasible":
        primes = numerics.feasible_characteristics(
            args.kind, threshold=args.threshold, cover_bound=args.cover_bound)
        if settings["fmt"] == "json":
            _emit_json({"feasible": primes})
        else:
            _write(" ".join(str(q) for q in primes) + "\n")
        return 0
    elif kind == "torsor":
        record = numerics.InvariantRecord(p=settings["p"], chi=args.chi,
                                          k2=args.k2)
        out = numerics.torsor_invariants(record)
        payload = {"chi": out.chi, "k2": out.k2,
                   "h0_omega_lower": out.h0_omega_lower}
    else:  # betti
        c2, b2, b3 = numerics.betti_consistency(args.chi, args.k2, args.b1)
        payload = {"c2": c2, "b2": b2, "b3": b3}
    if settings["fmt"] == "json":
        _emit_json(payload)
    else:
        for key, value in payload.items():
            _write(f"{key} = {value}\n")
    return 0


_COMMANDS = {
    "verify": cmd_verify,
    "reverify": cmd_reverify,
    "kernel": cmd_kernel,
    "groebner": cmd_groebner,
    "invariants": cmd_invariants,
}


def _refuse_early_flag(parser: argparse.ArgumentParser, argv: list) -> None:
    """Exit 2 naming where a shared flag goes when it comes before the
    subcommand or follows one without it: argparse would blame other tokens."""
    i = next((k for k, a in enumerate(argv) if a.startswith("-")), len(argv))
    flag = argv[i] if i < len(argv) else None
    before = " ".join([parser.prog, *argv[:i]]) + " "
    homes = [h for h in parser.flag_homes.get(flag, ()) if h.startswith(before)]
    if homes:
        home = next((h for h in homes if h.split()[-1] in argv), homes[0])
        parser.error(f"{flag} goes after the subcommand: "
                     f"{' '.join([home, *argv[i:i + 2]])}")
    prefixes = (" ".join([parser.prog, *argv[:k]]) for k in range(i, 0, -1))
    command = next((c for c in prefixes if c in parser.commands), None)
    if command is None:
        return
    for flag in argv[i:]:
        homes = parser.flag_homes.get(flag, ())
        if homes and command not in homes:
            parser.error(f"{command.split()[-1]} takes no {flag}; it goes "
                         f"with: {', '.join(homes)}")


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    _refuse_early_flag(parser, argv)
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args, _settings(args))
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except BudgetExceeded as exc:
        print(f"budget exceeded after {exc.pairs_processed} pairs "
              f"(basis size {exc.basis_size})", file=sys.stderr)
        return BUDGET_EXIT
    except (EngineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
