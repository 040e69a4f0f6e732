"""Command-line front door: gen, verify, search, analyze, convert.

Exit codes are stable: 0 success, 1 verification failure, 2 usage or
parse error, 3 budget or retry exhaustion.  Every generated file carries
a ``# cmdline:`` provenance comment; all runs are deterministic given
their flags (randomness is seeded).
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from .analyze import color_edges, deficit_report, star_occurrence_classes
from .constructors import (
    RandomConstructionParams,
    lazy_to_star,
    network_to_star,
    one_reach,
    t_reach_random_full,
    two_reach,
    two_reach_star,
    two_unif_star,
    waksman_permutation_network,
)
from .core import LazyNetwork, Network, parse_network, rational, render_network
from .errors import BudgetExceededError, CapExhaustedError, RetriesExceededError
from .search import SearchSpec, min_length
from .verify import DEFAULT_BUDGET, verify_reachability, verify_uniformity

_RANDOM_FLAGS = ("t", "seed", "epsilon", "max_retries")


class UsageError(ValueError):
    """Flag validation failure; maps to exit code 2."""


def _gen_random(args: argparse.Namespace) -> tuple[Network, list[str]]:
    if args.t is None:
        raise UsageError("t-reach-random requires -t")
    # only a given --max-retries is passed, so the dataclass holds the default
    retries = {} if args.max_retries is None else {"max_retries": args.max_retries}
    params = RandomConstructionParams(
        t=args.t,
        n=args.n,
        seed=args.seed if args.seed is not None else 0,
        epsilon=args.epsilon,
        **retries,
    )
    built = t_reach_random_full(params)
    return built.network, [f"# seed {params.seed}", f"# retries {built.retries}"]


# family -> (builder returning the network and extra header comments, the
# gen flags beyond -n that the family takes).  The lambdas look builders up
# in this module's namespace at call time, so a wrapper swapped in for one
# of those names sees every call.
FAMILIES = {
    "one-reach": (lambda args: (one_reach(args.n), []), ()),
    "two-reach": (lambda args: (two_reach(args.n), []), ()),
    "two-reach-star": (lambda args: (two_reach_star(args.n), []), ()),
    "waksman": (lambda args: (waksman_permutation_network(args.n), []), ()),
    "t-reach-random": (_gen_random, _RANDOM_FLAGS),
    "two-unif-star": (lambda args: (two_unif_star(args.n), []), ()),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by ``main``."""
    parser = argparse.ArgumentParser(
        prog="reachnet",
        description="Construct, verify, search, and analyze transposition networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a network family")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("-n", type=int, required=True, help="ground-set size")
    gen.add_argument("-t", type=int, default=None, help="arity (t-reach-random only)")
    gen.add_argument("--seed", type=int, default=None, help="RNG seed (t-reach-random only)")
    gen.add_argument(
        "--epsilon", type=rational, default=None, metavar="NUM/DEN",
        help="exponent margin (t-reach-random only)",
    )
    gen.add_argument(
        "--max-retries", type=int, default=None, help="support resamples (t-reach-random only)"
    )
    gen.add_argument("--out", default=None, help="output file (default stdout)")
    gen.set_defaults(handler=_cmd_gen)

    ver = sub.add_parser("verify", help="verify reachability or uniformity")
    ver.add_argument("-t", type=int, required=True, help="arity to verify")
    ver.add_argument("--uniform", action="store_true", help="exact uniformity (lazy input)")
    ver.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="state budget")
    ver.add_argument("file", nargs="?", default="-", help="input file (default stdin)")
    ver.set_defaults(handler=_cmd_verify)

    sea = sub.add_parser("search", help="exhaustive minimal-length search")
    sea.add_argument("-n", type=int, required=True)
    sea.add_argument("-t", type=int, required=True)
    sea.add_argument("--star", action="store_true", help="star transpositions only")
    sea.add_argument("--max-len", type=int, default=None, help="stop deepening past this length")
    sea.add_argument("--budget", type=int, default=None, help="node budget")
    sea.add_argument("--out", default=None, help="write the witness here (default stdout)")
    sea.set_defaults(handler=_cmd_search)

    ana = sub.add_parser("analyze", help="structural reports")
    ana.add_argument("--mode", required=True, choices=("edges", "deficit", "occurrences"))
    ana.add_argument("file", nargs="?", default="-", help="input file (default stdin)")
    ana.set_defaults(handler=_cmd_analyze)

    con = sub.add_parser("convert", help="rewrite with star transpositions")
    con.add_argument("--to-star", action="store_true", help="the only supported conversion")
    con.add_argument("file", nargs="?", default="-", help="input file (default stdin)")
    con.add_argument("--out", default=None, help="output file (default stdout)")
    con.set_defaults(handler=_cmd_convert)

    return parser


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_output(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmdline_comment(argv: Sequence[str]) -> str:
    return "# cmdline: reachnet " + " ".join(argv)


def _reject_irrelevant(args: argparse.Namespace, family: str) -> None:
    taken = FAMILIES[family][1]
    given = [k for k in _RANDOM_FLAGS if getattr(args, k) is not None and k not in taken]
    if given:
        raise UsageError(f"flags {given} only apply to --family t-reach-random, not {family}")


def _cmd_gen(args: argparse.Namespace) -> int:
    _reject_irrelevant(args, args.family)
    net, extra = FAMILIES[args.family][0](args)
    comments = [_cmdline_comment(args.raw_argv)] + extra
    _write_output(args.out, render_network(net, comments))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    net = parse_network(_read_input(args.file))
    if args.uniform:
        if not isinstance(net, LazyNetwork):
            raise UsageError("--uniform requires a lazy network (kind lazy)")
        verdict = verify_uniformity(net, args.t, args.budget)
    else:
        if not isinstance(net, Network):
            raise UsageError("reachability verification requires a plain network (kind plain)")
        verdict = verify_reachability(net, args.t, args.budget)
    print(verdict.render())
    return 0 if verdict.ok else 1


def _cmd_search(args: argparse.Namespace) -> int:
    spec = SearchSpec(
        n=args.n, t=args.t, star_only=args.star, max_len=args.max_len, budget=args.budget
    )
    result = min_length(spec)
    print(result.summary(spec))
    _write_output(args.out, render_network(result.witness, [_cmdline_comment(args.raw_argv)]))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    net = parse_network(_read_input(args.file))
    if not isinstance(net, Network):
        raise UsageError("analysis requires a plain network (kind plain)")
    if args.mode == "edges":
        print(color_edges(net).render())
    elif args.mode == "deficit":
        print(deficit_report(net).render())
    else:
        occ = star_occurrence_classes(net)  # rejects non-star input
        lines = [
            f"{i} {tau.a} {tau.b} {cls}"
            for i, (tau, cls) in enumerate(zip(net.seq, occ.classes), 1)
        ]
        print("\n".join(lines + [occ.render()]))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    if not args.to_star:
        raise UsageError("convert requires --to-star")
    net = parse_network(_read_input(args.file))
    out = lazy_to_star(net) if isinstance(net, LazyNetwork) else network_to_star(net)
    _write_output(args.out, render_network(out, [_cmdline_comment(args.raw_argv)]))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    raw = list(argv) if argv is not None else sys.argv[1:]
    try:
        args = build_parser().parse_args(raw)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    args.raw_argv = raw
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:  # UsageError and ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceededError, CapExhaustedError, RetriesExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
