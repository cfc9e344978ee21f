"""Recording of expected outputs and the benchmark's own smoke test."""

from __future__ import annotations

import copy
import json
import shutil
import tempfile
from pathlib import Path

import jobs as jobslib

ROOT = Path(__file__).resolve().parent.parent

# One cheap job per workload, and a rejection, for the smoke test.
SMOKE = {
    "traceless --sigma 2 --rank 3 --n 3 --lambda 2,1 --seed 1",
    "ext --sigma 2|1 --i 4 --lambda 0 --mu 3,1,1,1",
    "stab check --sigma 2|1 --rank 4 --seed 1 --samples 15",
    "compose --in {doc:0}",
    "homdim --sigma 2 --n 7 --m 0",
}
REJECTED = {"homdim --sigma 2 --n 7 --m 0", "traceless --sigma 2 --rank 20 --n 4"}

# Values documented in the README, an independent route for the record.
README_STDOUT = {
    "homdim --sigma 2 --n 4 --m 0": '{"dim": 3}',
    "ext --sigma 2 --i 0 --lambda 2,1 --mu 2,1": '{"dim": 1}',
    "ext --sigma 2 --i 2 --lambda 0 --mu 3,1": '{"dim": 1}',
    "shift --lambda 2 --n 1": '{"0": 1, "1": 1, "2": 1}',
    "mult --sigma 2 --lambda 2,2 --mu 2": '{"mult": 1}',
    "traceless --sigma 2 --rank 4 --n 2 --seed 1": '{"dim": 15}',
    "traceless --sigma 2 --rank 4 --n 2 --lambda 1,1 --seed 1": '{"dim": 6}',
}


def stable_isotypic_dim(sigma_text: str, N: int, lam_text: str) -> int:
    """The character-side prediction f_lam * sum_mu (M^-1)_{lam,mu} dim S_mu(k^N),
    M_{lam,mu} = multiplicity(sigma, lam, mu), unitriangular by size.

    It is the stable value: it need not hold outside the stable range."""
    from sigmabrauer import multiplicity, parse_partition, parse_tuple, partitions, schur_dim, specht_dim

    sigma = parse_tuple(sigma_text)
    simple = {}  # mu -> dim L_mu(k^N), by increasing |mu|
    lam = parse_partition(lam_text)
    for size in range(lam.size + 1):
        for mu in partitions(size):
            simple[mu] = schur_dim(mu, N) - sum(
                multiplicity(sigma, mu, nu) * d for nu, d in simple.items() if nu.size < size
            )
    return specht_dim(lam) * simple[lam]


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def record(child_cls) -> int:
    """Run every job twice at DEFAULT_SEED, cross-check the outputs by
    independent routes, and write expected.json if all agree."""
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp"))
    try:
        child = child_cls(tmp)
        table = {"seed": jobslib.DEFAULT_SEED, "jobs": {}}
        problems = []
        docs = jobslib.write_compose_docs(jobslib.DEFAULT_SEED, tmp)
        seen = {}
        for workload in jobslib.TEMPLATES:
            for job in jobslib.build_jobs(workload, jobslib.DEFAULT_SEED, docs, None):
                if job.key in REJECTED:
                    job.want = {"code": 1, "stdout": ""}
                    job.predicate = jobslib._rejected
                for _ in range(2):  # the second run checks byte identity
                    _, _, _, code, out, err = child.cli(job.argv)
                    reason = jobslib.verdict(job, code, out, err, seen)
                    if reason:
                        problems.append(f"{job.name}: {reason}")
                readme = README_STDOUT.get(job.key)
                if readme is not None and out != readme + "\n":
                    problems.append(f"{job.name}: README documents {readme}, got {out.strip()}")
                if job.argv[0] == "traceless" and "--lambda" in job.argv:
                    argv = job.argv
                    want = stable_isotypic_dim(
                        _option(argv, "--sigma"), int(_option(argv, "--rank")), _option(argv, "--lambda")
                    )
                    if out != json.dumps({"dim": want}) + "\n":
                        problems.append(f"{job.name}: character side predicts {want}, got {out.strip()}")
                table["jobs"][job.key] = {"code": code, "stdout": out}
                print(f"recorded {job.name}: {out.strip()[:70] or err.strip()}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    if problems:
        return 1
    with open(jobslib.EXPECTED_FILE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def smoke(run) -> int:
    """Run each workload at tiny size, plain and traced, check that every
    metric in BENCHMARK.json is emitted, and that the gate counts a
    corrupted expected value as a failure."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    wanted = {
        False: {m["name"] for m in bench["end_to_end"]},
        True: {m["name"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in jobslib.TEMPLATES:
        for traced in (False, True):
            result = run(workload, jobslib.DEFAULT_SEED, 0, traced, only=SMOKE)
            if set(result["metrics"]) != wanted[traced]:
                problems.append(f"{workload} trace={int(traced)}: metric names differ from BENCHMARK.json")
            if result["failed"] or not result["attempted"] or not result["correct"]:
                problems.append(f"{workload} trace={int(traced)}: {result['failed']} of {result['attempted']} failed")

    corrupted = copy.deepcopy(jobslib.load_expected())
    key = "ext --sigma 2|1 --i 4 --lambda 0 --mu 3,1,1,1"
    corrupted["jobs"][key]["stdout"] = '{"dim": 2}\n'
    result = run("character", jobslib.DEFAULT_SEED, 0, False, expected=corrupted, only=SMOKE)
    fail_ratio = result["failed"] / result["attempted"]
    print(f"corrupted expected value: fail_ratio {fail_ratio}")
    if result["correct"] or fail_ratio == 0:
        problems.append("the gate passed a corrupted expected value")

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0
