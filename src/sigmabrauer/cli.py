"""Batch command line interface; every subcommand emits one JSON document.

Rational numbers are serialized as "p/q" strings, partitions in the
comma-separated grammar of `combinat` ("0" is the empty partition),
tuples with "|" separators.  Identical arguments and seeds produce
byte-identical output.  Exit codes: 0 success, 1 precondition or safety
violation, 2 argument parse error.
"""

from __future__ import annotations

import json
import sys
from math import perm
from types import SimpleNamespace

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


REQUIRED = object()  # the default of a flag that has to be given


def _flag(option, dest=None, type=str, default=REQUIRED, help=None):
    return option, dest or option[2:].replace("-", "_"), type, default, help


HELP = _flag("--help", default=None, help="show this help message and exit")
GLOBAL_FLAGS = (
    _flag("--degree-bound", type=int, default=6, help="cap on all sizes and degrees (default 6)"),
    _flag("--out", default=None, help="write the JSON document to a file"),
)
# the command line: each command's words -> its help and its own flags; the
# global flags are read before the command and again after it
COMMANDS = {
    "homdim": ("dimension of a Hom space of the downwards category",
               (_flag("--sigma"), _flag("--n", type=int), _flag("--m", type=int))),
    "compose": ("compose two serialized morphisms (g o f)", (_flag("--in", "infile"),)),
    "mult": ("composition multiplicity of a simple in an injective",
             (_flag("--sigma"), _flag("--lambda", "lam"), _flag("--mu"))),
    "ext": ("Ext dimension between two simples",
            (_flag("--sigma"), _flag("--i", type=int), _flag("--lambda", "lam"), _flag("--mu"))),
    "shift": ("decomposition of the rank-n shift of a Schur functor",
              (_flag("--lambda", "lam"), _flag("--n", type=int))),
    "traceless": ("traceless tensor space at finite rank",
                  (_flag("--sigma"), _flag("--rank", type=int), _flag("--n", type=int),
                   _flag("--lambda", "lam", default=None), _flag("--seed", type=int, default=0))),
    "stab check": ("verify the germinal subgroup axioms on samples",
                   (_flag("--sigma"), _flag("--rank", type=int), _flag("--seed", type=int, default=0),
                    _flag("--samples", type=int, default=50),
                    _flag("--levels", default=None, help="comma separated; default 1..rank"))),
    "oracle step1": ("diagram basis against weight space basis, full sweep",
                     (_flag("--sigma"), _flag("--max", "max_n", type=int))),
}
GROUPS = {"": "exact computations in block-decorated Brauer categories",
          "stab": "generalized stabilizer checks", "oracle": "independent consistency oracles"}


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _classify(word: str, options: dict):
    """What argparse read a word as among these option strings: None for a
    value, else the option it names (None if none; a unique prefix names its
    option) and the value attached by `=` or, after `-h`, directly."""
    if word in options:
        return word, None
    if word[:1] != "-" or word == "-":
        return None
    head, eq, value = word.partition("=")
    if eq and head in options:
        return head, value
    if word[1] != "-":
        matches, value = [o for o in options if o == word[:2]], word[2:]
    else:
        matches, value = [o for o in options if o.startswith(head)], value if eq else None
    if len(matches) > 1:
        _usage_error(f"ambiguous option: {word!r} could match {', '.join(matches)}")
    if matches:
        return matches[0], value
    import re  # loaded with json; only a word no option names reaches here
    if re.match(r"^-\d+$|^-\d*\.\d+$", word) or " " in word:
        return None  # a negative number or a word with a space is a value
    return None, None


def _help(path: list, shared) -> str:
    """The help of a command, or of the commands under a group, from the table."""
    name = " ".join(path)
    about, own = COMMANDS[name] if name in COMMANDS else (GROUPS[name], ())
    lines = [" ".join(["usage: sigmabrauer", *path, "[options]" if own else "[options] COMMAND"]), "", about]
    if not own:
        lines += ["", "commands:"]
        for command, (text, _) in COMMANDS.items():
            if command.split()[: len(path)] == path:
                lines.append(f"  {' '.join(command.split()[len(path):]):<30}{text}")
    lines += ["", "options:", f"  {'-h, --help':<30}{HELP[4]}"]
    for option, dest, _, default, text in (*own, *shared):
        text = text or ("required" if default is REQUIRED else f"default {default}")
        lines.append(f"  {option + ' ' + dest.upper():<30}{text}")
    return "\n".join(lines)


def parse_args(argv) -> SimpleNamespace:
    """The attributes `_run` reads, from argv read against COMMANDS as the
    earlier argparse parser read it: global flags on either side of the
    command (the last one wins), `--flag=value` and unique prefixes.  Help
    exits 0; any other misuse prints one `error:` line and exits 2."""
    values = {dest: default for _, dest, _, default, _ in GLOBAL_FLAGS}
    extras, path, words = [], [], list(argv)
    while True:  # one round per command word, then one for the command's flags
        name = " ".join(path)
        own = COMMANDS[name][1] if name in COMMANDS else ()
        shared = GLOBAL_FLAGS if own or not path else ()  # none after `stab`
        options = {"-h": HELP, HELP[0]: HELP} | {f[0]: f for f in (*shared, *own)}
        # all words are read before any is used, as argparse did (an ambiguous
        # prefix fails even after -h); after "--" every word is a value
        cut = words.index("--") if "--" in words else len(words)
        kinds = [_classify(w, options) for w in words[:cut]] + [None] * (len(words) - cut)
        values.update((dest, default) for _, dest, _, default, _ in own if default is not REQUIRED)
        i, command = 0, None
        while i < len(words) and command is None:
            word, kind, i = words[i], kinds[i], i + 1
            if kind is None and not own:
                command = word
            elif kind is None or kind[0] is None:
                extras.append(word)
            elif options[kind[0]] is HELP:
                attached = kind[1]  # -hh is -h twice; any other attached value is an error
                if attached is not None and (kind[0] != "-h" or not attached or attached.strip("h")):
                    _usage_error(f"argument -h/--help: ignored explicit argument {attached!r}")
                print(_help(path, shared))
                raise SystemExit(0)
            else:
                option, dest, type, _, value = *options[kind[0]][:4], kind[1]
                if value is None:
                    if i in (len(words), cut) or kinds[i] is not None:  # "--" is no flag's value
                        _usage_error(f"argument {option}: expected one argument")
                    value, i = words[i], i + 1
                try:
                    values[dest] = type(value)
                except ValueError:
                    _usage_error(f"argument {option}: invalid int value: {value!r}")
        if own:
            break
        attr = f"{name}_command" if name else "command"
        under = [c.split() for c in COMMANDS if c.split()[: len(path)] == path]
        choices = list(dict.fromkeys(c[len(path)] for c in under))
        if command is None:
            _usage_error(f"the following arguments are required: {attr}")
        if command not in choices:
            _usage_error(f"argument {attr}: invalid choice: {command!r} (choose from {', '.join(choices)})")
        values[attr], words = command, words[i:]
        path.append(command)
    missing = [f[0] for f in own if f[1] not in values]  # only a required flag has no default
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(map(repr, extras))}")
    return SimpleNamespace(**values)


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
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        text = json.dumps(_run(args), sort_keys=True)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text, flush=True)
    except (PreconditionError, ValueError, OSError) as e:
        if isinstance(e, BrokenPipeError):
            # the reader is gone: stdout goes to devnull, so the flush at exit cannot fail
            import os  # loaded at start-up; only this path reads it
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
