"""The pinned CLI jobs, one row each, run twice: `python tests/pinned_jobs.py`.

A row is a job's arguments, time limit in seconds, stdout line or `sha256 <hex>`
of its stdout, bound on its own peak RSS in MB or None, and what it fails on;
a new pin is one more row.  Pass 1 runs each row through the installed
`sigmabrauer` under `timeout` with the row's limits; pass 2 runs each in 60 s
under `python -X dev -W error -m sigmabrauer.cli`, where a warning is an error.
Both require exit 0, empty stderr and the pinned stdout; else the exit is 1.
"""

import hashlib
import os
import sys
import tempfile

EACH = "a layer loaded on first use warns or breaks"  # one job of each subcommand
JOBS = [
    ("homdim --sigma 2 --n 4 --m 0", 60, '{"dim": 3}', None, EACH),
    ("homdim --sigma=2 --n 8 --m 0 --deg 9", 60, '{"dim": 105}', None,
     "the table parser drops an argv form that argparse accepted"),
    ("mult --sigma 2 --lambda 2,2 --mu 2", 60, '{"mult": 1}', None, EACH),
    ("ext --sigma 2 --i 2 --lambda 0 --mu 3,1", 60, '{"dim": 1}', None, EACH),
    ("shift --lambda 2 --n 1", 60, '{"0": 1, "1": 1, "2": 1}', None, EACH),
    ("traceless --sigma 2 --rank 4 --n 2 --seed 1", 60, '{"dim": 15}', None, EACH),
    ("traceless --sigma 2 --rank 4 --n 2 --lambda 1,1 --seed 1", 60, '{"dim": 6}', None, EACH),
    ("stab check --sigma 3 --rank 3 --seed 2 --samples 10", 60,
     "sha256 dc9f6e6fd7b9c1554fe10bb66c74f702b9bacd3f2d3aae1037c9d500014995de", None, EACH),
    ("oracle step1 --sigma 2|1 --max 4", 60,
     "sha256 1d5444000c5e4068c060521506987bcc7e0f869b19bc13a1a2c9e95b3e17385c", None, EACH),
    ("traceless --sigma 2 --rank 5 --n 4 --lambda 3,1 --seed 0", 60, '{"dim": 243}', None, EACH),
    ("--degree-bound 12 ext --sigma 2,1 --i 4 --lambda 0 --mu 4,4,2,1,1", 60, '{"dim": 2}', None,
     "e_4 over s_(2,1) in the power-sum basis breaks"),
    ("--degree-bound 12 ext --sigma 1,1,1 --i 4 --lambda 0 --mu 3,3,3,3", 60, '{"dim": 1}', None,
     "the plethysm goes back to monomial expansions"),
    ("--degree-bound 12 mult --sigma 1,1,1 --lambda 3,3,3,3 --mu 0", 10, '{"mult": 0}', 40,
     "the plethysm goes back to monomial expansions"),
    ("--degree-bound 14 mult --sigma 1,1 --lambda 4,4,2,2,2 --mu 2", 10, '{"mult": 1}', None,
     "products go back to unpruned horizontal-strip enumeration"),
    ("--degree-bound 24 mult --sigma 2 --lambda 4,4,4,4,4,4 --mu 0", 5, '{"mult": 1}', 40,
     "multiplicities go back to reading back every Schur coefficient and to lr_product"),
    ("stab check --sigma 2,1 --rank 6 --seed 1 --samples 400", 30,
     "sha256 b9057b3af065a3aaed209fdda1f24fa7bed5eb4cad5cdc4fae15a4ac282c77a2", None,
     "membership goes back to the full action matrix"),
    ("stab check --sigma 1 --rank 6 --seed 1 --samples 4000 --levels 1", 6,
     "sha256 48ca5f2b3bbb8e2209051ad5845db9cadd4efd5ddbc16dd166299c6acca2cec1", None,
     "group elements go back to dense Fraction products"),
    ("--degree-bound 8 oracle step1 --sigma 2|1 --max 8", 2,
     "sha256 20cbffa9fb94ebf171c0a9124b320660daed34aefcdf6c4a631b949d31d3b2f2", 30,
     "the step-1 oracle goes back to building both bases (the tests stop at n = 6)"),
    ("--degree-bound 14 homdim --sigma 2|1 --n 14 --m 4", 5, '{"dim": 228131904}', None,
     "homdim goes back to enumerating the basis"),
    ("traceless --sigma 2 --rank 5 --n 5 --lambda 3,2 --seed 0", 60, '{"dim": 525}', None,
     "the full-kernel route comes back"),
    ("traceless --sigma 2 --rank 4 --n 6 --seed 0", 60, '{"dim": 1097}', None,
     "the N^n-column echelon route comes back"),
    ("traceless --sigma 3,2,1 --rank 4 --n 6 --seed 0", 30, '{"dim": 4080}', None,
     "the block functionals go back to the N^d word scan"),
    ("traceless --sigma 2 --rank 5 --n 5 --seed 0", 60, '{"dim": 1950}', 100,
     "dense assembly or the RREF basis comes back"),
    ("traceless --sigma 4,1,1 --rank 3 --n 6 --seed 0", 60, '{"dim": 719}', 30,
     "the Specht bridge goes back to the realization and the kernel solve"),
    ("traceless --sigma 2 --rank 5 --n 6 --lambda 3,1,1,1 --seed 0", 60, '{"dim": 300}', 30,
     "the contractions are read again at every N^n word"),
    ("traceless --sigma 6 --rank 6 --n 6 --seed 0", 60, '{"dim": 46655}', 90,
     "the block functionals go back to Fraction values"),
    ("--degree-bound 9 stab check --sigma 3,3 --rank 9 --seed 1 --samples 2 --levels 1", 2,
     "sha256 21a1e3876a8e19e2085a18caba04f66f191354d4e35c94fb478e63c67ee6d674", 40,
     "membership walks the realization for queries that hold by construction"),
]


def run(argv):
    """Run argv: its exit code, stdout, stderr and peak RSS in MB (never below this process's)."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        dup = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        pid = os.posix_spawnp(argv[0], argv, os.environ, file_actions=dup)
        _, status, usage = os.wait4(pid, 0)  # this child's rusage, not every child's so far
        out.seek(0), err.seek(0)
        return os.waitstatus_to_exitcode(status), out.read(), err.read(), usage.ru_maxrss / 1024


# Draws a compose document into argv[1] and prints g o f, without loading the package here.
COMPOSE = """import json, random, sys
from sigmabrauer import morphism_to_json, parse_tuple, random_morphism
rng, sigma = random.Random(0), parse_tuple("2,1")
f, g = random_morphism(sigma, 6, 3, rng), random_morphism(sigma, 3, 0, rng)
with open(sys.argv[1], "w") as fh:
    json.dump({"sigma": "2,1", "f": morphism_to_json(f), "g": morphism_to_json(g)}, fh)
print(json.dumps(morphism_to_json(g.compose(f)), sort_keys=True), end="")
"""


def main():
    failed = 0
    with tempfile.TemporaryDirectory() as folder:
        doc = os.path.join(folder, "compose.json")
        code, out, err, _ = run([sys.executable, "-c", COMPOSE, doc])
        if code or err:
            sys.exit(f"drawing the compose document failed: {err.decode(errors='replace')}")
        rows = [(args.split(), *rest) for args, *rest in JOBS]
        rows.append((["compose", "--in", doc], 60, out.decode(), None, EACH))
        dev = [sys.executable, "-X", "dev", "-W", "error", "-m", "sigmabrauer.cli"]
        for name, command in (("installed", ["sigmabrauer"]), ("dev mode", dev)):
            for args, seconds, pinned, rss_bound, guards in rows:
                seconds, rss_bound = (seconds, rss_bound) if name == "installed" else (60, None)
                code, out, err, rss_mb = run(["timeout", str(seconds), *command, *args])
                sha = pinned.startswith("sha256 ")
                got = "sha256 " + hashlib.sha256(out).hexdigest() if sha else out.decode(errors="replace")
                ok = code == 0 and not err and got == (pinned if sha else pinned + "\n")
                ok = ok and (rss_bound is None or rss_mb < rss_bound)
                print(f"{'ok  ' if ok else 'FAIL'} {name}: {' '.join(args)} "
                      f"(limit {seconds} s; {rss_mb:.1f} MB of {rss_bound or 'any'})")
                if not ok:
                    print(f"     exit {code}, stdout {got!r}, stderr {err.decode(errors='replace')!r};"
                          f" fails if {guards}")
                    failed += 1
    print(f"{failed} of {2 * len(rows)} runs failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
