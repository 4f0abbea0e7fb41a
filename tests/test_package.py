"""The package namespace, and what a fresh process loads.

``sigmaprod`` resolves its public names on first access, and each CLI
command imports only its own subsystem.  Each load case runs in a fresh
interpreter and reads ``sys.modules``; none asserts a timing."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import sigmaprod
from sigmaprod import cli

SRC = Path(__file__).resolve().parents[1] / "src"

# the public names of the package, by the submodule that defines each
EXPORTS = {
    "ground": ["EMPTY", "OMEGA", "Budget", "BudgetExceeded", "Point", "ProductDescriptor",
               "ProductPoint", "TauSequence", "i_of", "j_of", "materialize", "parse_point",
               "parse_tau"],
    "clopen": ["BasicBox", "ClopenSet", "box_contains", "box_intersect", "box_is_empty",
               "box_reduce", "preimage_under_union", "union_membership_cover"],
    "averaging": ["AveragingOperator", "UnionMap", "apply_union", "build_operator",
                  "enumerate_L", "fiber_map", "locality_profile", "product_operator",
                  "restrict_operator"],
    "uec": ["BinaryArray", "SignedVector", "embed_u", "in_L0", "level_bounds", "phi",
            "phi_preimage", "pipeline_check", "support_counts"],
    "deltasystem": ["DeltaSystem", "NeighborhoodSpec", "SetFamily", "common_point_witness",
                    "extract_delta_system", "free_transversal",
                    "neighborhood_emptiness_bound"],
    "classification": ["ClassificationVerdict", "Decomposition", "NormalForm",
                       "SpaceExpression", "cb_derivative", "cb_invariants", "classify",
                       "decompose_absorb_small", "decompose_classif_k",
                       "embed_product_into_sigma", "max_power_embeddable", "normal_form",
                       "recover_tau", "retract_witness"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)

BASE = {"sigmaprod", "sigmaprod.cli", "sigmaprod.encode", "sigmaprod.ground"}


FRESH = """\
import json, sys
sys.path.insert(0, {src!r})
{code}
report["loaded"] = sorted(m for m in sys.modules if m.split(".")[0] == "sigmaprod")
sys.stderr.write("\\n" + json.dumps(report) + "\\n")
"""


def fresh(code: str) -> dict:
    """Run ``code``, which binds a dict ``report``, in a fresh interpreter with
    ``src`` first on the path: the report with the sigmaprod modules loaded
    at the end, and what the code wrote to stdout."""
    done = subprocess.run([sys.executable, "-c", FRESH.format(src=str(SRC), code=code)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return {**json.loads(done.stderr.splitlines()[-1]), "stdout": done.stdout}


def test_the_package_exports_the_same_names():
    assert len(NAMES) == 60 == len(set(NAMES))
    assert sorted(sigmaprod.__all__) == NAMES
    for module, names in EXPORTS.items():
        source = importlib.import_module(f"sigmaprod.{module}")
        for name in names:
            assert getattr(sigmaprod, name) is getattr(source, name), name


def test_star_import_dir_and_unknown_names():
    namespace = {}
    exec("from sigmaprod import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES
    assert set(NAMES) <= set(dir(sigmaprod))
    assert {"__version__", "__all__"} <= set(dir(sigmaprod))
    with pytest.raises(AttributeError, match=r"^module 'sigmaprod' has no attribute 'nope'$"):
        sigmaprod.nope  # noqa: B018
    with pytest.raises(ImportError):
        exec("from sigmaprod import nope", {})


def test_names_and_submodules_resolve_on_first_access():
    result = fresh(
        "import sigmaprod\n"
        "before = sorted(m for m in sys.modules if m.split('.')[0] == 'sigmaprod')\n"
        "phi = sigmaprod.phi\n"
        "with_phi = sorted(m for m in sys.modules if m.split('.')[0] == 'sigmaprod')\n"
        "from sigmaprod import averaging\n"
        "clopen = sigmaprod.clopen\n"
        "report = {'before': before, 'with_phi': with_phi,\n"
        "          'phi': phi is sys.modules['sigmaprod.uec'].phi,\n"
        "          'averaging': averaging is sys.modules['sigmaprod.averaging'],\n"
        "          'clopen': clopen is sys.modules['sigmaprod.clopen'],\n"
        "          'version': sigmaprod.__version__}\n")
    assert result["before"] == ["sigmaprod"]
    assert result["with_phi"] == ["sigmaprod", "sigmaprod.ground", "sigmaprod.uec"]
    # averaging imports encode
    assert set(result["loaded"]) == {f"sigmaprod{name}" for name in
                                     ("", ".ground", ".uec", ".averaging", ".encode", ".clopen")}
    assert result["phi"] and result["averaging"] and result["clopen"]
    assert result["version"] == sigmaprod.__version__


def test_importing_the_cli_loads_only_its_front_end():
    result = fresh("import sigmaprod, sigmaprod.cli\nreport = {}")
    assert set(result["loaded"]) == BASE


# one valid request per command family, with the modules it loads past BASE
REQUESTS = [
    (["classify", "--tau", "1,2", "--tau2", "w"], {"classification", "clopen"}),
    (["cb", "--ks", "2,3"], {"classification", "clopen"}),
    (["decompose", "--kind", "absorb_small", "--m", "0", "--n", "2", "--depth", "4",
      "--samples", "20", "--boxes", "3"], {"classification", "clopen"}),
    (["avg", "check", "--k", "2", "--ground", "2"], {"averaging"}),
    (["uec", "phi", "--bits", "1011"], {"uec"}),
    (["ds", "extract", "--family", "FAMILY", "--petals", "2"], {"deltasystem", "clopen"}),
    (["clopen", "empty", "--box", "[0: F={1} G={}] @ 2^w"], {"clopen"}),
]


@pytest.mark.parametrize("argv, extra", REQUESTS, ids=[argv[0] for argv, _ in REQUESTS])
def test_each_command_loads_only_its_subsystem(tmp_path, argv, extra):
    family = tmp_path / "family.txt"
    family.write_text("a: {1,2}\nb: {1,3}\nc: {1,4}\n")
    argv = [str(family) if token == "FAMILY" else token for token in argv]
    result = fresh(f"from sigmaprod.cli import main\nreport = {{'code': main({argv!r})}}")
    assert set(result["loaded"]) == BASE | {f"sigmaprod.{name}" for name in extra}
    code, payload = cli.dispatch(argv)
    assert result["code"] == code == 0
    assert result["stdout"] == cli.render(payload) + "\n"
