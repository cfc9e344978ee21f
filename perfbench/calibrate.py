"""Fixed stdlib-only work that `run.py` times between jobs to measure the
host's speed; see `run.Pace`.

    python -I perfbench/calibrate.py

It is shaped like a short CLI job: an interpreter start, the stdlib
imports the package makes, then exact arithmetic of the kind the package
does (Gauss-Jordan elimination over Fraction on a 14 x 20 matrix, and
tuple-keyed dict updates).  It imports nothing from the package, so no
change to the package changes its time.
"""

import argparse  # noqa: F401  (imported for its cost, as the CLI does)
import json  # noqa: F401
from fractions import Fraction


def main() -> None:
    n, m = 14, 20
    rows = [[Fraction((i * 7 + j * 13) % 11 - 5, 1 + (i + j) % 3) for j in range(m)] for i in range(n)]
    r = 0
    for c in range(m):
        p = next((i for i in range(r, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    counts = {}
    for k in range(20000):
        key = (k % 97, k % 89)
        counts[key] = counts.get(key, 0) + k


if __name__ == "__main__":
    main()
