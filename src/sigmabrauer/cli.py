"""Batch command line interface; every subcommand emits one JSON document.

Rational numbers are serialized as "p/q" strings, partitions in the
comma-separated grammar of `combinat` ("0" is the empty partition),
tuples with "|" separators.  Identical arguments and seeds produce
byte-identical output.  Exit codes: 0 success, 1 precondition or safety
violation, 2 argument parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import perm

from . import brauer, forms, modcat, setpart, stabilizer, symfun
from .combinat import PreconditionError, format_partition, hom_dim, parse_partition, parse_tuple, schur_dim

AMBIENT_SAFETY_LIMIT = 100_000


def _check_bound(bound: int, **values):
    for name, v in values.items():
        if v > bound:
            raise PreconditionError(
                f"{name}={v} exceeds the degree bound {bound}; "
                "raise --degree-bound explicitly if this is intended"
            )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sigmabrauer",
        description="exact computations in block-decorated Brauer categories",
    )
    p.add_argument(
        "--degree-bound",
        type=int,
        default=6,
        help="cap on all sizes and degrees (default 6)",
    )
    p.add_argument("--out", default=None, help="write the JSON document to a file")
    # the global flags are also accepted after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--degree-bound", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser(
        "homdim", parents=[common], help="dimension of a Hom space of the downwards category"
    )
    q.add_argument("--sigma", required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--m", type=int, required=True)

    q = sub.add_parser("compose", parents=[common], help="compose two serialized morphisms (g o f)")
    q.add_argument("--in", dest="infile", required=True)

    q = sub.add_parser(
        "mult", parents=[common], help="composition multiplicity of a simple in an injective"
    )
    q.add_argument("--sigma", required=True)
    q.add_argument("--lambda", dest="lam", required=True)
    q.add_argument("--mu", required=True)

    q = sub.add_parser("ext", parents=[common], help="Ext dimension between two simples")
    q.add_argument("--sigma", required=True)
    q.add_argument("--i", type=int, required=True)
    q.add_argument("--lambda", dest="lam", required=True)
    q.add_argument("--mu", required=True)

    q = sub.add_parser(
        "shift", parents=[common], help="decomposition of the rank-n shift of a Schur functor"
    )
    q.add_argument("--lambda", dest="lam", required=True)
    q.add_argument("--n", type=int, required=True)

    q = sub.add_parser("traceless", parents=[common], help="traceless tensor space at finite rank")
    q.add_argument("--sigma", required=True)
    q.add_argument("--rank", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--lambda", dest="lam", default=None)
    q.add_argument("--seed", type=int, default=0)

    stab = sub.add_parser("stab", help="generalized stabilizer checks")
    stab_sub = stab.add_subparsers(dest="stab_command", required=True)
    q = stab_sub.add_parser(
        "check", parents=[common], help="verify the germinal subgroup axioms on samples"
    )
    q.add_argument("--sigma", required=True)
    q.add_argument("--rank", type=int, required=True)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--samples", type=int, default=50)
    q.add_argument("--levels", default=None, help="comma separated; default 1..rank")

    oracle = sub.add_parser("oracle", help="independent consistency oracles")
    oracle_sub = oracle.add_subparsers(dest="oracle_command", required=True)
    q = oracle_sub.add_parser(
        "step1", parents=[common], help="diagram basis against weight space basis, full sweep"
    )
    q.add_argument("--sigma", required=True)
    q.add_argument("--max", dest="max_n", type=int, required=True)

    return p


def _pure_sigma(text: str, bound: int):
    sigma = parse_tuple(text)
    if not sigma.pure:
        raise PreconditionError("sigma must be a pure tuple (no empty entries)")
    _check_bound(bound, sigma_entry=max((p.size for p in sigma), default=0))
    return sigma


def _random_form(sigma, rank: int, seed: int):
    """The seeded random form of `traceless` and `stab check`, drawn only
    when its entries, one per realization basis vector of each entry of
    sigma, stay within the safety limit; a negative rank is rejected by
    `random_form` itself."""
    if rank >= 0:
        entries = sum(schur_dim(p, rank) for p in sigma)
        if entries > AMBIENT_SAFETY_LIMIT:
            raise PreconditionError(
                f"a form at rank {rank} has {entries} entries, which exceeds the safety limit"
            )
    return forms.random_form(sigma, rank, seed)


def _run(args) -> dict:
    bound = args.degree_bound
    if args.command == "homdim":
        sigma = _pure_sigma(args.sigma, bound)
        _check_bound(bound, n=args.n, m=args.m)
        for name, v in (("n", args.n), ("m", args.m)):
            if v < 0:
                raise PreconditionError(f"{name} must be non-negative")
        return {"dim": hom_dim(sigma, args.n, args.m)}

    if args.command == "compose":
        with open(args.infile) as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise PreconditionError("the document is nested too deeply") from None
        if not isinstance(doc, dict) or not {"sigma", "f", "g"} <= doc.keys():
            raise PreconditionError('the document must be an object with "sigma", "f" and "g"')
        if not isinstance(doc["sigma"], str):
            raise PreconditionError('"sigma" must be a string in the tuple grammar')
        sigma = _pure_sigma(doc["sigma"], bound)
        f = brauer.morphism_from_json(doc["f"], sigma, max_size=bound)
        g = brauer.morphism_from_json(doc["g"], sigma, max_size=bound)
        return brauer.morphism_to_json(g.compose(f))

    if args.command == "mult":
        sigma = _pure_sigma(args.sigma, bound)
        lam = parse_partition(args.lam)
        mu = parse_partition(args.mu)
        _check_bound(bound, lam=lam.size, mu=mu.size)
        return {"mult": symfun.multiplicity(sigma, lam, mu)}

    if args.command == "ext":
        sigma = _pure_sigma(args.sigma, bound)
        lam = parse_partition(args.lam)
        mu = parse_partition(args.mu)
        _check_bound(bound, i=args.i, lam=lam.size, mu=mu.size)
        return {"dim": symfun.ext_dim(sigma, args.i, lam, mu)}

    if args.command == "shift":
        lam = parse_partition(args.lam)
        _check_bound(bound, lam=lam.size, n=args.n)
        dec = symfun.shift_decompose(lam, args.n)
        return {format_partition(nu): mult for nu, mult in dec.items()}

    if args.command == "traceless":
        sigma = _pure_sigma(args.sigma, bound)
        _check_bound(bound, n=args.n)
        if args.n < 0:
            raise PreconditionError("n must be non-negative")
        if args.rank < 0:
            raise PreconditionError(f"the rank must be non-negative, got {args.rank}")
        if args.rank**args.n > AMBIENT_SAFETY_LIMIT:
            raise PreconditionError(
                f"ambient dimension {args.rank}^{args.n} exceeds the safety limit"
            )
        form = _random_form(sigma, args.rank, args.seed)
        if args.lam is None:
            return {"dim": modcat.traceless_space(form, args.n)}
        lam = parse_partition(args.lam)
        _check_bound(bound, lam=lam.size)
        if lam.size != args.n:
            raise PreconditionError("--lambda must be a partition of --n")
        return {"dim": modcat.simple_realization_dim(form, lam)}

    if args.command == "stab":
        sigma = _pure_sigma(args.sigma, bound)
        _check_bound(bound, rank=args.rank)
        if args.levels is None:
            levels = list(range(1, args.rank + 1))
        else:
            try:
                levels = [int(x) for x in args.levels.split(",")]
            except ValueError:
                raise PreconditionError(
                    f"--levels must be comma-separated integers, got {args.levels!r}"
                ) from None
        reports = stabilizer.germinal_axiom_suite(
            _random_form(sigma, args.rank, args.seed), levels, args.samples, args.seed
        )
        return {
            "axioms": reports,
            "all_pass": all(not r["failures"] for r in reports),
        }

    if args.command == "oracle":
        sigma = _pure_sigma(args.sigma, bound)
        _check_bound(bound, max=args.max_n)
        if args.max_n < 0:
            raise PreconditionError("--max must be non-negative")
        # both bases relabel the decorated block tuples of an (n-m)-set
        # through C(n, m) m! used sets and matchings, or letter sets and
        # words, so each side is counted once per block size from its own
        # typed partition enumerator, with no basis element built
        sizes = range(args.max_n + 1)
        hom = [setpart.decorated_count(setpart.typed_set_partitions, sigma, k) for k in sizes]
        weight = [setpart.decorated_count(setpart.typed_partitions_by_counts, sigma, k) for k in sizes]
        checks = []
        for n in sizes:
            for m in range(n + 1):
                h, w = perm(n, m) * hom[n - m], perm(n, m) * weight[n - m]
                checks.append({"n": n, "m": m, "hom": h, "weight": w, "equal": h == w})
        return {"all_equal": all(c["equal"] for c in checks), "checks": checks}

    raise RuntimeError("unhandled command")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = json.dumps(_run(args), sort_keys=True)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
    except (PreconditionError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if not args.out:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
