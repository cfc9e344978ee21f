import importlib
import io
import json
import pathlib
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import run_python
from sigmabrauer import forms
from sigmabrauer.brauer import Morphism, hom_basis, make_diagram, morphism_to_json
from sigmabrauer.cli import main
from sigmabrauer.combinat import PartitionTuple
from sigmabrauer.schurweyl import weight_space_basis


def run_cli(*args, check=True):
    proc = run_python("-m", "sigmabrauer.cli", *args)
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.returncode} {proc.stderr}")
    return proc


def test_homdim_example():
    out = run_cli("homdim", "--sigma", "2", "--n", "4", "--m", "0").stdout
    assert json.loads(out) == {"dim": 3}


def test_ext_example():
    out = run_cli("ext", "--sigma", "2", "--i", "0", "--lambda", "2,1", "--mu", "2,1").stdout
    assert json.loads(out) == {"dim": 1}


def test_shift_example():
    out = run_cli("shift", "--lambda", "2", "--n", "1").stdout
    assert json.loads(out) == {"0": 1, "1": 1, "2": 1}


def test_mult_subcommand():
    out = run_cli("mult", "--sigma", "2", "--lambda", "2,2", "--mu", "2").stdout
    assert json.loads(out) == {"mult": 1}


def test_traceless_subcommand():
    out = run_cli(
        "traceless", "--sigma", "2", "--rank", "4", "--n", "2", "--seed", "1"
    ).stdout
    doc = json.loads(out)
    assert doc["dim"] == 15  # 16 - one full-rank contraction


def test_traceless_isotypic():
    out = run_cli(
        "traceless",
        "--sigma", "2", "--rank", "4", "--n", "2", "--lambda", "1,1", "--seed", "1",
    ).stdout
    assert json.loads(out) == {"dim": 6}


def test_stab_check_subcommand():
    out = run_cli(
        "stab", "check", "--sigma", "3", "--rank", "3", "--seed", "2", "--samples", "8"
    ).stdout
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert [r["axiom"] for r in doc["axioms"]] == ["a", "b", "c"]


def test_oracle_step1_subcommand():
    out = run_cli("oracle", "step1", "--sigma", "2|1", "--max", "4").stdout
    doc = json.loads(out)
    assert doc["all_equal"] is True
    assert all(c["hom"] == c["weight"] for c in doc["checks"])


def test_oracle_step1_prints_the_basis_lengths():
    # the oracle counts instead of building, and prints what the lengths of
    # the two bases it no longer builds would give
    sigma = PartitionTuple(((2,), (1,)))
    checks = []
    for n in range(7):
        for m in range(n + 1):
            h, w = len(hom_basis(sigma, n, m)), len(weight_space_basis(sigma, n, m))
            checks.append({"n": n, "m": m, "hom": h, "weight": w, "equal": h == w})
    doc = {"all_equal": all(c["equal"] for c in checks), "checks": checks}
    out = run_cli("oracle", "step1", "--sigma", "2|1", "--max", "6").stdout
    assert out == json.dumps(doc, sort_keys=True) + "\n"


def write_compose_job(tmp_path):
    """A compose document for g o f, f the crossing and g the block on two
    slots of sigma = (2), so g o f = g; returns its path and g."""
    sigma = PartitionTuple(((2,),))
    cross = Morphism.from_diagram(sigma, make_diagram(sigma, 2, 2, (), ((1, 2), (2, 1))))
    block = Morphism.from_diagram(sigma, make_diagram(sigma, 2, 0, (((1, 2), 0, 0),), ()))
    payload = {"sigma": "2", "f": morphism_to_json(cross), "g": morphism_to_json(block)}
    infile = tmp_path / "job.json"
    infile.write_text(json.dumps(payload))
    return infile, block


def test_compose_subcommand(tmp_path):
    infile, block = write_compose_job(tmp_path)
    out = run_cli("compose", "--in", str(infile)).stdout
    assert json.loads(out) == morphism_to_json(block)


def test_determinism_byte_identical():
    jobs = [
        ("homdim", "--sigma", "2", "--n", "4", "--m", "0"),
        ("ext", "--sigma", "2", "--i", "2", "--lambda", "0", "--mu", "3,1"),
        ("shift", "--lambda", "2,1", "--n", "2"),
        ("mult", "--sigma", "2", "--lambda", "2,2", "--mu", "2"),
        ("traceless", "--sigma", "2", "--rank", "3", "--n", "2", "--seed", "9"),
        ("stab", "check", "--sigma", "3", "--rank", "3", "--seed", "4", "--samples", "5"),
        ("oracle", "step1", "--sigma", "1|1", "--max", "3"),
    ]
    for job in jobs:
        a = run_cli(*job).stdout
        b = run_cli(*job).stdout
        assert a == b and a.strip()


def test_exit_codes():
    # parse error: unknown flag
    assert run_cli("homdim", "--bogus", "2", check=False).returncode == 2
    # missing subcommand
    assert run_cli(check=False).returncode == 2
    # precondition: impure sigma
    proc = run_cli("homdim", "--sigma", "0", "--n", "2", "--m", "0", check=False)
    assert proc.returncode == 1
    assert "pure" in proc.stderr
    # degree bound violation
    proc = run_cli("homdim", "--sigma", "2", "--n", "9", "--m", "0", check=False)
    assert proc.returncode == 1
    assert "bound" in proc.stderr
    # raising the bound explicitly is allowed
    out = run_cli("--degree-bound", "9", "homdim", "--sigma", "2", "--n", "8", "--m", "0").stdout
    assert json.loads(out) == {"dim": 105}
    # malformed partition text
    proc = run_cli("shift", "--lambda", "1,2", "--n", "1", check=False)
    assert proc.returncode == 1


def test_out_file(tmp_path):
    target = tmp_path / "result.json"
    run_cli("homdim", "--sigma", "2", "--n", "2", "--m", "0", "--out", str(target))
    assert json.loads(target.read_text()) == {"dim": 1}


def test_out_file_that_cannot_be_written(tmp_path):
    target = tmp_path / "missing" / "result.json"
    proc = run_cli("--out", str(target), "homdim", "--sigma", "2", "--n", "1", "--m", "1", check=False)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1, proc.stderr
    assert not target.exists()


def test_compose_rejects_malformed_documents(tmp_path):
    block = {"support": [1, 2], "type": 0, "coords": ["1"]}
    f = {"source_size": 2, "target_size": 0, "terms": [{"coef": "1", "matching": [], "blocks": [block]}]}
    g = {"source_size": 0, "target_size": 0, "terms": [{"coef": "1", "matching": [], "blocks": []}]}
    bad_type = dict(f, terms=[{"coef": "1", "matching": [], "blocks": [dict(block, type=1)]}])
    bad_support = dict(f, terms=[{"coef": "1", "matching": [], "blocks": [dict(block, support=[1, 3])]}])
    docs = [
        {"f": f, "g": g},  # no sigma
        {"sigma": "2", "f": bad_type, "g": g},  # type outside sigma
        {"sigma": "2", "f": bad_support, "g": g},  # support outside 1..n
        {"sigma": "2", "f": dict(f, source_size="2"), "g": g},
        {"sigma": "2", "f": dict(f, source_size=99), "g": g},  # beyond the degree bound
        {"sigma": "2", "f": dict(f, terms=[{"coef": "1/0"}]), "g": g},
        {"sigma": "2", "f": [], "g": g},
        ["sigma", "f", "g"],
    ]
    for k, doc in enumerate(docs):
        infile = tmp_path / f"bad{k}.json"
        infile.write_text(json.dumps(doc))
        proc = run_cli("compose", "--in", str(infile), check=False)
        assert proc.returncode == 1, (doc, proc.stderr)
        assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1, proc.stderr
    deep = tmp_path / "deep.json"
    deep.write_text('{"sigma": "2", "f": ' + "[" * 100000 + "]" * 100000 + ', "g": {}}')
    proc = run_cli("compose", "--in", str(deep), check=False)
    assert proc.returncode == 1 and proc.stderr.startswith("error: "), proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"sigma": "2", "f": f, "g": g}))
    assert json.loads(run_cli("compose", "--in", str(good)).stdout)["source_size"] == 2


def test_homdim_rejects_negative_sizes():
    for n, m in (("-3", "0"), ("2", "-1")):
        proc = run_cli("homdim", "--sigma", "2", "--n", n, "--m", m, check=False)
        assert proc.returncode == 1
        assert "must be non-negative" in proc.stderr and len(proc.stderr.splitlines()) == 1


def test_traceless_rejects_negative_rank():
    # (-400)^2 is over the ambient safety limit, but the rank is checked first
    for rank, n in (("-1", "2"), ("-4", "2"), ("-400", "2"), ("-400", "3"), ("-400", "0")):
        proc = run_cli("traceless", "--sigma", "2", "--rank", rank, "--n", n, check=False)
        assert proc.returncode == 1 and proc.stdout == "", (rank, n)
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr == f"error: the rank must be non-negative, got {rank}\n", proc.stderr


def test_traceless_prices_the_form():
    # N^n is small, but the form alone has sum_p dim S_sigma_p(k^N) entries
    for args, entries in (
        (("--sigma", "2", "--rank", "100000", "--n", "1"), 5000050000),
        (("--sigma", "3", "--rank", "200", "--n", "0"), 1353400),
    ):
        proc = run_cli("traceless", *args, check=False)
        assert proc.returncode == 1 and proc.stdout == "", args
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith(f"error: a form at rank {args[3]} has {entries} entries")
    proc = run_cli("traceless", "--sigma", "2", "--rank", "20", "--n", "4", check=False)
    assert proc.returncode == 1
    assert proc.stderr == "error: ambient dimension 20^4 exceeds the safety limit\n"


def test_stab_check_prices_the_form_like_traceless(monkeypatch):
    # 300 entries (6) at rank 6 make a form of 300 * 462 = 138 600 entries;
    # both subcommands reject it before a form is drawn
    def refuse(*args):
        raise AssertionError("a form was drawn")

    monkeypatch.setattr(forms, "random_form", refuse)
    sigma = "|".join(["6"] * 300)
    for args in (
        ["stab", "check", "--sigma", sigma, "--rank", "6", "--samples", "1"],
        ["traceless", "--sigma", sigma, "--rank", "6", "--n", "1"],
    ):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert main(args) == 1, args[0]
        assert out.getvalue() == ""
        assert err.getvalue() == (
            "error: a form at rank 6 has 138600 entries, which exceeds the safety limit\n"
        )


def test_traceless_rejects_negative_n():
    # 0^-1 used to escape the admission check as a ZeroDivisionError
    for extra in ((), ("--lambda", "0")):
        proc = run_cli("traceless", "--sigma", "2", "--rank", "0", "--n", "-1", *extra, check=False)
        assert proc.returncode == 1 and proc.stdout == "", extra
        assert proc.stderr == "error: n must be non-negative\n", proc.stderr


def test_stab_check_rejects_negative_samples():
    proc = run_cli(
        "stab", "check", "--sigma", "2", "--rank", "3", "--samples", "-1", check=False
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: the number of samples must be non-negative")


def test_oracle_step1_rejects_negative_max():
    proc = run_cli("oracle", "step1", "--sigma", "2", "--max", "-1", check=False)
    assert proc.returncode == 1 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: --max must be non-negative")


def test_stab_check_rejects_malformed_levels():
    for levels in ("1,,2", "1,x", "2,"):
        proc = run_cli(
            "stab", "check", "--sigma", "2", "--rank", "3", "--levels", levels, check=False
        )
        assert proc.returncode == 1 and proc.stdout == "", levels
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith(
            "error: --levels must be comma-separated integers"
        ), proc.stderr


def test_sigma_entry_is_held_to_the_degree_bound():
    for args in (
        ("stab", "check", "--sigma", "7", "--rank", "3", "--samples", "1"),
        ("--degree-bound", "7", "traceless", "--sigma", "2|8", "--rank", "2", "--n", "1"),
    ):
        proc = run_cli(*args, check=False)
        assert proc.returncode == 1 and proc.stdout == "", args
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error: sigma_entry="), proc.stderr


# ---------------------------------------------------------------------------
# the package modules a job executes, recorded by an audit hook on every
# "exec" event (module bodies run through exec, from source or from a cache)

_LAYERS = {"combinat", "exactla", "specht", "symfun", "brauer", "schurweyl", "modcat", "stabilizer"}
_AUDIT = """
import json, pathlib, sys
files = set()
sys.addaudithook(
    lambda event, args: event == "exec" and files.add(getattr(args[0], "co_filename", ""))
)
def executed():
    paths = map(pathlib.Path, files)
    return sorted(p.stem for p in paths if p.parent.name == "sigmabrauer")
"""
_EXEC_PROBE = _AUDIT + """
from sigmabrauer.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, executed()]))
"""


def executed_modules(*args, exit_code=0) -> set[str]:
    """The sigmabrauer modules a fresh interpreter executes to run one job."""
    proc = run_python("-c", _EXEC_PROBE, *args)
    code, stems = json.loads(proc.stdout.splitlines()[-1])
    assert code == exit_code, proc.stderr
    return set(stems)


def test_character_jobs_execute_only_the_character_layers():
    character = {"__init__", "cli", "combinat", "characters", "symfun"}
    ext = ("ext", "--sigma", "2|1", "--i", "4", "--lambda", "0", "--mu", "3,1,1,1")
    assert executed_modules(*ext) == character
    assert executed_modules("mult", "--sigma", "2", "--lambda", "2,2", "--mu", "2") == character
    assert executed_modules("shift", "--lambda", "2,1", "--n", "2") == character


def test_homdim_and_stab_skip_the_layers_they_do_not_read():
    assert executed_modules("homdim", "--sigma", "2", "--n", "4", "--m", "0") == {
        "__init__", "cli", "combinat"
    }
    # every query of the suite holds by construction: no realization layer runs
    stab = executed_modules("stab", "check", "--sigma", "3", "--rank", "3", "--samples", "2")
    assert stab == {"__init__", "cli", "combinat", "forms", "stabilizer"}


def test_traceless_jobs_execute_no_symfun():
    # the block contractions reach the specializer as plain tuples, so
    # neither form of the job executes the diagram category either, and
    # no character is computed
    finite_rank = {"__init__", "cli", "combinat", "exactla", "forms", "modcat", "schurweyl", "specht"}
    for lam in ((), ("--lambda", "1,1")):
        executed = executed_modules("traceless", "--sigma", "2", "--rank", "3", "--n", "2", *lam)
        assert executed == finite_rank, lam


def test_compose_and_oracle_execute_only_their_layers(tmp_path):
    # composition only straightens; the oracle only counts both typed
    # partition enumerations, and neither reads the other's modules
    infile, _ = write_compose_job(tmp_path)
    assert executed_modules("compose", "--in", str(infile)) == {
        "__init__", "cli", "combinat", "brauer", "specht"
    }
    assert executed_modules("oracle", "step1", "--sigma", "2|1", "--max", "3") == {
        "__init__", "cli", "combinat", "setpart"
    }


def test_rejected_job_loads_no_layer_beyond_combinat():
    assert executed_modules("homdim", "--sigma", "2", "--n", "7", "--m", "0", exit_code=1) == {
        "__init__", "cli", "combinat"
    }


_LIBRARY_PROBE = _AUDIT + """
import sigmabrauer
exec(sys.argv[1])
print(json.dumps(executed()))
"""


def test_leaf_names_execute_only_their_leaf():
    # a form draw or a character lookup from the package reads one leaf module
    for code, leaf in (("sigmabrauer.random_form('2', 3, 0)", "forms"),
                       ("sigmabrauer.sn_character((2, 1), (1, 1, 1))", "characters")):
        proc = run_python("-c", _LIBRARY_PROBE, code)
        assert set(json.loads(proc.stdout)) == {"__init__", "combinat", leaf}, proc.stderr


# the names that moved out of the modules a traceless job executes: their
# home -> {old home: names}, each still read at the old home
_MOVED = {
    "dense": {
        "exactla": ("RatMat", "rank", "solve", "inverse", "kernel_basis_with_free", "vstack"),
    },
    "oracles": {
        "specht": ("isotypic_projector", "relabel"),
        "schurweyl": ("WeightBasisElement", "weight_space_basis", "diagram_weight_iso"),
        "symfun": ("kostka", "schur_monomials"),
    },
}

_MODCAT_PROBE = _AUDIT + """
import sigmabrauer.modcat as modcat
modcat.traceless_space
before = executed()
modcat.multiplicity
print(json.dumps([before, executed()]))
"""


def test_package_contract():
    import sigmabrauer
    from sigmabrauer import brauer, characters, combinat, exactla, modcat, specht, stabilizer, symfun

    probe = "import sys, sigmabrauer.cli; print(*sorted(sys.modules))"
    loaded = run_python("-c", probe).stdout
    assert {f"sigmabrauer.{layer}" for layer in _LAYERS} <= set(loaded.split())
    namespace: dict = {}
    exec("from sigmabrauer import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(sigmabrauer.__all__) == _LAYERS | {
        "Block", "Diagram", "FormPoint", "GLElement", "Magnitude",
        "MapPresentation", "Morphism", "Partition", "PartitionTuple", "PreconditionError",
        "RatMat", "SchurExpr", "SpechtModule", "SpechtVector", "TensorRep", "UpMorphism",
        "WeightBasisElement", "diagram_weight_iso", "dot_product_form",
        "evaluation_presentation", "ext_dim", "format_partition", "format_tuple",
        "gamma_linearity_check", "gamma_product_level", "germinal_axiom_suite",
        "get_specht_module", "get_tensor_rep", "hom_basis", "hom_dim", "in_gamma",
        "inner_product", "isotypic_projector", "lr_product", "magnitude",
        "make_diagram", "monomial_cubic_form", "morphism_from_json", "morphism_to_json",
        "multiplicity", "parse_partition", "parse_tuple", "partitions", "permutation_element",
        "plethysm_e", "plethysm_h", "random_block_fixing", "random_form", "random_morphism",
        "rank", "relabel", "schur_dim", "shift_decompose",
        "simple_realization_dim", "skew_schur_expand", "sn_character", "socle_check",
        "specht_dim", "sym_algebra_degree", "theta_apply", "traceless_space", "translate",
        "upwards_view", "weight_space_basis",
    }
    assert len(sigmabrauer.__all__) == 72
    assert stabilizer.PreconditionError is combinat.PreconditionError
    assert combinat.hom_dim is sigmabrauer.hom_dim
    # one definition, so one Murnaghan-Nakayama cache, whichever layer reads it
    for name in ("beta_set", "centralizer_size", "mn_character"):
        assert getattr(characters, name) is getattr(symfun, name)
    assert characters.sn_character is sigmabrauer.sn_character
    # the names modcat reads from the leaf are the leaf's, not copies
    for name in ("FormPoint", "integer_columns"):
        assert getattr(modcat, name) is getattr(forms, name), name
    # one name per function: no alias, holder type or pass-through wrapper
    absent = [(specht, "beta_set"), (specht, "centralizer_size"), (specht, "mn_character"),
              (specht, "sn_character"), (brauer, "hom_dim"), (modcat, "random_form"),
              (modcat, "TracelessSpace"), (exactla, "kernel_basis"), (stabilizer, "GammaQuery"),
              (stabilizer, "random_unimodular"), (brauer.Diagram, "encoding"),
              # moved to `dense` and `oracles`, and read only there
              (exactla, "_integer_rows"), (exactla, "_to_fraction_rows"), (specht, "_check_coxeter"),
              (specht, "plain_changes"), (specht, "class_representative"), (specht, "cycle_type"),
              (symfun, "_distinct_arrangements")]
    for owner, name in absent:
        assert not hasattr(owner, name), (owner, name)
    assert sigmabrauer.FormPoint is forms.FormPoint and sigmabrauer.random_form is forms.random_form
    with pytest.raises(AttributeError, match="^module 'sigmabrauer.specht' has no attribute 'nope'$"):
        specht.nope
    assert modcat.multiplicity is symfun.multiplicity and modcat.ext_dim is symfun.ext_dim
    assert sigmabrauer.multiplicity is symfun.multiplicity
    exec("from sigmabrauer.modcat import multiplicity", namespace)
    assert namespace["multiplicity"] is symfun.multiplicity
    message = "^module 'sigmabrauer.modcat' has no attribute 'nope'$"
    with pytest.raises(AttributeError, match=message):
        modcat.nope
    # modcat reaches symfun only when one of the two character names is read
    proc = run_python("-c", _MODCAT_PROBE)
    before, after = json.loads(proc.stdout)
    assert "modcat" in before and "symfun" not in before, before
    assert {"characters", "symfun"} <= set(after), after
    # each moved name is one object at its home, at its old home and, when
    # public, at the package
    for home, olds in _MOVED.items():
        home_module = importlib.import_module(f"sigmabrauer.{home}")
        for old, names in olds.items():
            old_module = importlib.import_module(f"sigmabrauer.{old}")
            for name in names:
                obj = getattr(home_module, name)
                assert getattr(old_module, name) is obj, (old, name)
                exec(f"from sigmabrauer.{old} import {name}", namespace)
                assert namespace[name] is obj, (old, name)
                if name in sigmabrauer.__all__:
                    assert getattr(sigmabrauer, name) is obj, name
            with pytest.raises(AttributeError, match=f"^module 'sigmabrauer.{old}' has no attribute 'nope'$"):
                old_module.nope
    # the moved names stay out of the package's lazy layers, and reading the
    # matrix type executes only the core and the dense layer
    assert not {"dense", "oracles"} & set(sigmabrauer.__all__)
    proc = run_python("-c", _LIBRARY_PROBE, "sigmabrauer.RatMat")
    assert set(json.loads(proc.stdout)) == {"__init__", "exactla", "dense"}, proc.stderr


# the benchmark's traced harness wraps names at their dotted paths in the
# package; it is read from the checkout, as `perfbench/run.py` reads it
_HARNESS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"
_HARNESS_PROBE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("traced_cli", sys.argv[1])
traced = importlib.util.module_from_spec(spec)
spec.loader.exec_module(traced)
imported = sorted(m for m in sys.modules if m.startswith("sigmabrauer"))
import sigmabrauer.cli
modules = {
    name.split(".", 1)[1]: module
    for name, module in sys.modules.items()
    if name.startswith("sigmabrauer.")
}
missing, uncached = [], []
for dotted in traced.SPANNED + traced.COUNTED + traced.CACHED:
    try:
        owner, attr = traced._resolve(modules, dotted)
        obj = getattr(owner, attr)
    except AttributeError as exc:
        missing.append(f"{dotted}: {exc}")
        continue
    if dotted in traced.CACHED and not hasattr(obj, "cache_info"):
        uncached.append(dotted)
print(json.dumps([imported, missing, uncached]))
"""


def test_traced_harness_names_resolve():
    proc = run_python("-c", _HARNESS_PROBE, str(_HARNESS))
    imported, missing, uncached = json.loads(proc.stdout)
    assert imported == [], imported
    assert missing == [], missing
    assert uncached == [], uncached


# ---------------------------------------------------------------------------
# the exit-code contract under fuzzed argv: tiny jobs, small integers and
# malformed partition and tuple strings

_INTS = st.integers(-2, 3).map(str)
_PARTITIONS = st.sampled_from(["0", "1", "2", "1,1", "2,1", "3", "", "1,2", "2,,1", "-1", "x"])
_TUPLES = st.sampled_from(["2", "1,1", "2|1", "3", "0", "2|0", "", "|", "2||1", "1,2", "a"])
_LEVELS = st.sampled_from(["1", "1,2", "0,3", "-1", "4", "1,,2", "x"])
# subcommand -> flags, each with its values and whether it may be left out
_FLAGS = {
    "homdim": {"--sigma": (_TUPLES, False), "--n": (_INTS, False), "--m": (_INTS, False)},
    "shift": {"--lambda": (_PARTITIONS, False), "--n": (_INTS, False)},
    "ext": {
        "--sigma": (_TUPLES, False),
        "--i": (_INTS, False),
        "--lambda": (_PARTITIONS, False),
        "--mu": (_PARTITIONS, False),
    },
    "mult": {"--sigma": (_TUPLES, False), "--lambda": (_PARTITIONS, False), "--mu": (_PARTITIONS, False)},
    "traceless": {
        "--sigma": (_TUPLES, False),
        "--rank": (_INTS, False),
        "--n": (_INTS, False),
        "--lambda": (_PARTITIONS, True),
        "--seed": (_INTS, True),
    },
    "stab check": {
        "--sigma": (_TUPLES, False),
        "--rank": (_INTS, False),
        "--samples": (_INTS, False),
        "--seed": (_INTS, True),
        "--levels": (_LEVELS, True),
    },
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = command.split()
    for flag, (values, optional) in _FLAGS[command].items():
        if not optional or draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@given(_argv())
@example(["traceless", "--sigma", "2", "--rank", "0", "--n", "-1"])
@example(["traceless", "--sigma", "2", "--rank", "0", "--n", "-1", "--lambda", "0"])
@settings(max_examples=80, deadline=None)
def test_cli_contract_on_fuzzed_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
            assert code == 2, (argv, err.getvalue())
            return
    if code == 0:
        json.loads(out.getvalue())
        assert err.getvalue() == "", (argv, err.getvalue())
    else:
        assert code == 1, argv
        assert out.getvalue() == "", argv
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
