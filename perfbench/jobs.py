"""The four workloads, their inputs and the correctness gate.

A job is one `python -m sigmabrauer.cli ARG...` invocation.  Its expected
result comes from `expected.json`, recorded at DEFAULT_SEED by
`run.py --record`.  The workload seed draws the `compose` documents;
every other job has fixed arguments.  Fixed jobs are compared byte for
byte at every seed, compose jobs at DEFAULT_SEED, and at any seed with
the library's own serialization of g o f.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_FILE = HERE / "expected.json"
DEFAULT_SEED = 1

# Job templates per workload; "{doc:I}" is the path of the I-th compose
# document.  The forms of traceless and stab jobs are fixed (--seed 1):
# drawn from the workload seed, a job's cost varied by 10-30 % from draw
# to draw, and a few (1,1) or (2)|(1) forms in a hundred are degenerate,
# with a dimension of their own.
TEMPLATES = {
    "traceless": [
        # kernel-dominated: constraint matrices 54 x 81 (ranks 51 and 33)
        # and a tall 36 x 27
        "traceless --sigma 2 --rank 3 --n 4 --seed 1",
        "traceless --sigma 1,1 --rank 3 --n 4 --seed 1",
        "traceless --sigma 2|1 --rank 3 --n 3 --seed 1",
        # isotypic-dominated: the projector's probe matvecs
        "traceless --sigma 2 --rank 3 --n 3 --lambda 2,1 --seed 1",
        "traceless --sigma 1,1 --rank 3 --n 3 --lambda 2,1 --seed 1",
        "traceless --sigma 2 --rank 4 --n 3 --lambda 2,1 --seed 1",
    ],
    "character": [
        # e_i plethysm, exponential in i
        "ext --sigma 2|1 --i 3 --lambda 0 --mu 3,1,1",
        "ext --sigma 2|1 --i 4 --lambda 0 --mu 3,1,1,1",
        "--degree-bound 8 ext --sigma 1,1|1 --i 4 --lambda 0 --mu 2,2,1,1",
        "--degree-bound 9 ext --sigma 2,1 --i 3 --lambda 0 --mu 4,3,1,1",
        # h_a plethysm and LR products of the free algebra character
        "--degree-bound 8 mult --sigma 2 --lambda 4,2,2 --mu 0",
        "--degree-bound 8 mult --sigma 2 --lambda 4,2,2 --mu 2",
        "shift --lambda 3,2 --n 2",
    ],
    # samples are fewer at higher rank so that no job dominates the sum,
    # and few enough that each job runs five times or more in a run
    "stab": [
        "stab check --sigma 3 --rank 4 --seed 1 --samples 15",
        "stab check --sigma 3 --rank 6 --seed 1 --samples 3",
        "stab check --sigma 2 --rank 4 --seed 1 --samples 15",
        "stab check --sigma 2 --rank 5 --seed 1 --samples 15",
        "stab check --sigma 2 --rank 6 --seed 1 --samples 15",
        "stab check --sigma 2|1 --rank 4 --seed 1 --samples 15",
        "stab check --sigma 2|1 --rank 5 --seed 1 --samples 15",
        "stab check --sigma 2|1 --rank 6 --seed 1 --samples 10",
        "stab check --sigma 2,1 --rank 4 --seed 1 --samples 15",
        "stab check --sigma 2,1 --rank 5 --seed 1 --samples 4",
    ],
    "quick": [
        # the nine README jobs
        "homdim --sigma 2 --n 4 --m 0",
        "ext --sigma 2 --i 0 --lambda 2,1 --mu 2,1",
        "ext --sigma 2 --i 2 --lambda 0 --mu 3,1",
        "shift --lambda 2 --n 1",
        "mult --sigma 2 --lambda 2,2 --mu 2",
        "traceless --sigma 2 --rank 4 --n 2 --seed 1",
        "traceless --sigma 2 --rank 4 --n 2 --lambda 1,1 --seed 1",
        "stab check --sigma 3 --rank 3 --seed 2 --samples 10",
        "oracle step1 --sigma 2|1 --max 4",
        # composition of generated documents
        "compose --in {doc:0}",
        "compose --in {doc:1}",
        "compose --in {doc:2}",
        "homdim --sigma 2|1 --n 6 --m 2",
        "oracle step1 --sigma 2|1 --max 6",
        # documented rejections: degree bound, ambient size limit
        "homdim --sigma 2 --n 7 --m 0",
        "traceless --sigma 2 --rank 20 --n 4",
    ],
}

# Shapes (sigma, n, m, k) of the compose documents: f: n -> m, g: m -> k.
COMPOSE_SHAPES = [("2", 4, 2, 0), ("2,1", 6, 3, 0), ("2|1", 4, 2, 0)]


@dataclass
class Job:
    key: str  # the template: the job's identity across seeds
    argv: list[str]
    want: dict | None = None  # {"code", "stdout"} to match byte for byte
    predicate: object = None  # independent check: stdout -> reason or None

    @property
    def name(self) -> str:
        return " ".join(self.argv)


def write_compose_docs(seed: int, tmp: Path) -> list[tuple[Path, str]]:
    """Generate the compose documents with the package's public
    `random_morphism`/`morphism_to_json`; return each path with the
    library's own serialization of g o f."""
    from sigmabrauer import morphism_to_json, parse_tuple, random_morphism

    rng = random.Random(f"compose:{seed}")
    docs = []
    for i, (text, n, m, k) in enumerate(COMPOSE_SHAPES):
        sigma = parse_tuple(text)
        f = random_morphism(sigma, n, m, rng)
        g = random_morphism(sigma, m, k, rng)
        path = tmp / f"compose-{i}.json"
        path.write_text(
            json.dumps({"sigma": text, "f": morphism_to_json(f), "g": morphism_to_json(g)})
        )
        docs.append((path, json.dumps(morphism_to_json(g.compose(f)), sort_keys=True) + "\n"))
    return docs


def _all_pass(stdout: str) -> str | None:
    doc = json.loads(stdout)
    if doc.get("all_pass") is not True:
        return "all_pass is not true"
    for report in doc["axioms"]:
        if report["failures"] or report["passes"] != report["samples"]:
            return f"axiom {report['axiom']} has failures"
    return None


def _all_equal(stdout: str) -> str | None:
    doc = json.loads(stdout)
    if doc.get("all_equal") is not True or not all(c["equal"] for c in doc["checks"]):
        return "all_equal is not true"
    return None


def _rejected(stdout: str) -> str | None:
    return "a rejection printed a document" if stdout else None


def _compose_matches(expected: str):
    def check(stdout: str) -> str | None:
        return None if stdout == expected else "differs from the library's g o f"

    return check


def load_expected() -> dict:
    with open(EXPECTED_FILE) as fh:
        return json.load(fh)


def build_jobs(workload: str, seed: int, docs, expected: dict | None) -> list[Job]:
    """The job list of a workload at a seed, with what each must print.

    `docs` are the compose documents of the seed and `expected` the
    recorded table, or None while recording."""
    jobs = []
    for template in TEMPLATES[workload]:
        job = Job(template, template.split())
        if job.argv[0] == "compose":
            path, library_stdout = docs[int(job.argv[-1][5:-1])]
            job.argv[-1] = str(path)
            job.predicate = _compose_matches(library_stdout)
        elif job.argv[0] == "stab":
            job.predicate = _all_pass
        elif job.argv[0] == "oracle":
            job.predicate = _all_equal
        if expected is not None and (job.argv[0] != "compose" or seed == expected["seed"]):
            job.want = expected["jobs"][template]
            if job.want["code"] != 0:
                job.predicate = _rejected
        jobs.append(job)
    return jobs


def verdict(job: Job, code: int, stdout: str, stderr: str, seen: dict) -> str | None:
    """Why a finished job failed the gate, or None if it passed.  `seen`
    maps the argv of each job run so far to its stdout."""
    if "Traceback" in stderr:
        return "traceback on stderr"
    if seen.setdefault(tuple(job.argv), stdout) != stdout:
        return "stdout differs from an earlier run of the same job"
    if job.want is not None:
        if code != job.want["code"]:
            return f"exit code {code}, recorded {job.want['code']}"
        if stdout != job.want["stdout"]:
            return "stdout differs from the recorded one"
        if code != 0 and (stderr.count("\n") != 1 or not stderr.startswith("error: ")):
            return "a rejection must print one 'error:' line on stderr"
    elif code != 0:
        return f"exit code {code}"
    if job.predicate is not None:
        try:
            return job.predicate(stdout)
        except (ValueError, KeyError, TypeError) as e:
            return f"unreadable stdout: {e!r}"
    return None
