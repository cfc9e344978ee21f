"""Run one CLI job with timing wrappers on the package's public boundary.

    python perfbench/traced_cli.py SPANS_FILE JOB_ID ARG...

Imports `sigmabrauer.cli`, rebinds each name in SPANNED (under every
name a `sigmabrauer` module binds it to) to a wrapper that records a
span, and each name in COUNTED to one that counts calls, calls
`cli.main(ARG...)` and writes the spans, the span attributes, the call
counts and the `cache_info()` counters of CACHED to SPANS_FILE as one
JSON document.  Stdout, stderr and the exit code are those of the CLI, so the
benchmark's correctness gate applies unchanged.

This file is also imported by `run.py` for the name tables; importing
it imports nothing from the package.
"""

from __future__ import annotations

import json
import sys
import time

clock = time.perf_counter

# The layers, in the order the traced report lists them.
LAYERS = (
    "cli",
    "combinat",
    "symfun",
    "specht",
    "brauer",
    "schurweyl",
    "modcat",
    "exactla",
    "stabilizer",
)

# Public functions and methods wrapped with a span, as "module.attr" or
# "module.Class.method".  The metric name of each is this string.
SPANNED = (
    "cli.main",
    "combinat.parse_partition",
    "combinat.parse_tuple",
    "symfun.plethysm_e",
    "symfun.plethysm_h",
    "symfun.lr_product",
    "symfun.exterior_power_char",
    "symfun.sym_algebra_degree",
    "symfun.shift_decompose",
    "specht.isotypic_projector",
    "specht.relabel",
    "brauer.hom_basis",
    "brauer.Morphism.compose",
    "brauer.morphism_from_json",
    "brauer.morphism_to_json",
    "schurweyl.TensorRep.act_matrix",
    "schurweyl.weight_space_basis",
    "modcat.multiplicity",
    "modcat.ext_dim",
    "modcat.traceless_space",
    "modcat.block_functional",
    "modcat.simple_realization_dim",
    "modcat.translate",
    "exactla.kernel_basis_with_free",
    "exactla.vstack",
    "exactla.rank",
    "exactla.inverse",
    "stabilizer.germinal_axiom_suite",
    "stabilizer.in_gamma",
)

# Hot calls that only get a call counter: a span each cost 0.4 s of a
# 5.8 s traced cycle of the stab jobs at 30 samples each (31 605 matvec
# calls).
COUNTED = ("exactla.RatMat.matvec",)

# Hot lru_cache helpers: read through cache_info() instead of wrapped.
CACHED = (
    "combinat.partitions",
    "combinat.schur_dim",
    "symfun.kostka",
    "symfun.schur_monomials",
    "schurweyl.get_tensor_rep",
)

KERNEL = "exactla.kernel_basis_with_free"


class Tracer:
    """Spans and call counts of one job, kept in memory until it ends.

    A span is [name index, start, end, parent span index or -1]; the
    kernel spans also get attributes read from the argument and result.
    """

    def __init__(self):
        self.spans: list = []
        self.attrs: dict[int, dict] = {}
        self.counts = dict.fromkeys(COUNTED, 0)
        self._stack = [-1]

    def span(self, index: int, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            k = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(k)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[k] = [index, start, end, parent]

        return wrapper

    def kernel_span(self, index: int, fn):
        timed = self.span(index, fn)

        def wrapper(m):
            k = len(self.spans)
            result = timed(m)
            # read after the span ends, so the count is not billed to the layer
            nnz = sum(1 for row in m.data for x in row if x)
            self.attrs[k] = {
                "rows": m.rows,
                "cols": m.cols,
                "nnz": nnz,
                "rank": m.cols - len(result[0]),
            }
            return result

        return wrapper

    def counter(self, dotted: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[dotted] += 1
            return fn(*args, **kwargs)

        return wrapper


def _resolve(modules: dict, dotted: str):
    module, *path = dotted.split(".")
    owner = modules[module]
    for attr in path[:-1]:
        owner = getattr(owner, attr)
    return owner, path[-1]


def install(tracer: Tracer, modules: dict) -> None:
    """Rebind every SPANNED and COUNTED name, in its defining module or
    class and in every package module that imported it, to one wrapper."""
    package = [m for name, m in sys.modules.items() if name.startswith("sigmabrauer")]
    for index, dotted in enumerate(SPANNED + COUNTED):
        owner, attr = _resolve(modules, dotted)
        original = getattr(owner, attr)
        if dotted in COUNTED:
            wrapper = tracer.counter(dotted, original)
        elif dotted == KERNEL:
            wrapper = tracer.kernel_span(index, original)
        else:
            wrapper = tracer.span(index, original)
        setattr(owner, attr, wrapper)
        for module in package:
            if module is not owner and getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)


def main() -> int:
    spans_file, job_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = clock()
    import sigmabrauer.cli

    import_s = clock() - start
    modules = {
        name.split(".", 1)[1]: module
        for name, module in sys.modules.items()
        if name.startswith("sigmabrauer.")
    }
    tracer = Tracer()
    install(tracer, modules)
    try:
        code = modules["cli"].main(argv)
    finally:
        caches = {}
        for dotted in CACHED:
            owner, attr = _resolve(modules, dotted)
            info = getattr(owner, attr).cache_info()
            caches[dotted] = [info.hits, info.misses]
        with open(spans_file, "w") as fh:
            json.dump(
                {
                    "job": job_id,
                    "names": SPANNED,
                    "import_s": import_s,
                    "spans": tracer.spans,
                    "attrs": tracer.attrs,
                    "counts": tracer.counts,
                    "caches": caches,
                },
                fh,
            )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
