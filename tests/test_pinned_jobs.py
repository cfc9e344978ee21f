"""The runner of the pinned CLI jobs charges each job its own peak RSS."""

import os

from helpers import run_python

# Run from a fresh interpreter, as the runner is: a child's peak RSS starts
# from its parent's, so the test process would raise the floor of both.
_RSS_PROBE = """import sys
sys.path.insert(0, sys.argv[1])
from pinned_jobs import run
big = run([sys.executable, "-c", "b = b'x' * (64 << 20)"])
small = run([sys.executable, "-c", "pass"])
print(big[:3] == small[:3] == (0, b"", b""), big[3], small[3])
"""


def test_runner_reads_each_jobs_own_peak_rss():
    # a cumulative RUSAGE_CHILDREN maximum would charge the second child
    # with the 64 MB the first one wrote
    proc = run_python("-c", _RSS_PROBE, os.path.dirname(os.path.abspath(__file__)))
    clean, big, small = proc.stdout.split()
    assert clean == "True" and float(big) >= 64 and float(small) < 40, (proc.stdout, proc.stderr)
