"""The CLI's output contract: fixed requests over every subcommand and action
whose exit code and rendered JSON must not change by a single byte.

``tests/golden/cli_contract.jsonl`` holds one line per request.  Input files
are written to a temporary directory, which the golden file names ``{tmp}``.
Regenerate it only when an output change is intended, and say so::

    PYTHONPATH=src python tests/test_cli_contract.py
"""

import json
import sys
from pathlib import Path

import pytest

from sigmaprod.cli import dispatch, render

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_contract.jsonl"

_FAMILY = "1: {1,2}\n2: {1,3}\n3: {1,4}\n4: {2,5}\nfive: {6,7}\n"
_SIDE_G = {"100": [[], [3]], "101": [[7], []]}
_SPECS = {
    "ok": {"side_g": _SIDE_G, "side_h": {str(mu): [[], [7]] for mu in range(4)}},
    "failed": {"side_g": _SIDE_G,
               "side_h": {str(mu): [[100 + mu % 2], []] for mu in range(4)}},
    "self": {"side_g": _SIDE_G, "side_h": {str(mu): [[], [mu]] for mu in range(4)}},
}
_F_VALUES = [[[x0, x1], f"{len(x0) + 2 * len(x1)}/3"]
             for x0 in ([], [0], [1]) for x1 in ([], [0], [1])]

# name -> (argv, {file name: content}); "{tmp}" in argv is the file directory
CASES = {
    "classify-homeomorphic": (["classify", "--tau", "w,w", "--tau2", "5,w"], {}),
    "classify-not-homeomorphic": (["classify", "--tau", "1", "--tau2", "2"], {}),
    "classify-open": (["classify", "--tau", "w tail=1", "--tau2", "w,2 tail=1"], {}),
    "classify-countable": (["classify", "--tau", "2,1", "--tau2", "1,1",
                            "--gamma", "countable"], {}),
    "cb": (["cb", "--ks", "2,3"], {}),
    "cb-budget": (["cb", "--ks", "12,12,12,12,12", "--budget", "10"], {}),
    "decompose-absorb-small": (["decompose", "--kind", "absorb_small", "--m", "1",
                                "--n", "2", "--depth", "4", "--samples", "30",
                                "--boxes", "5", "--seed", "3"], {}),
    "decompose-omega-power": (["decompose", "--kind", "absorb_small", "--m", "0",
                               "--n", "3", "--depth", "3", "--samples", "20",
                               "--boxes", "4"], {}),
    "decompose-classif-k": (["decompose", "--kind", "classif_K", "--element", "2",
                             "--depth", "5", "--samples", "20", "--boxes", "4",
                             "--seed", "11"], {}),
    "avg-build": (["avg", "build", "--k", "2", "--ground", "2"], {}),
    "avg-check": (["avg", "check", "--k", "3", "--ground", "3"], {}),
    "avg-apply": (["avg", "apply", "--k", "2", "--ground", "2", "--f", "{tmp}/f.json"],
                  {"f.json": json.dumps(_F_VALUES)}),
    "uec-phi": (["uec", "phi", "--bits", "0110"], {}),
    "uec-phi-levels": (["uec", "phi", "--bits", "101", "--levels", "6"], {}),
    "uec-preimage": (["uec", "preimage", "--target", "1/2", "--levels", "8",
                      "--limit", "5"], {}),
    "uec-l0": (["uec", "l0", "--bits-file", "{tmp}/bits.json"],
               {"bits.json": json.dumps([[0, 0], [1, 0], [2, 1], [0, 3]])}),
    "uec-bounds": (["uec", "bounds", "--levels", "6"], {}),
    "uec-pipeline": (["uec", "pipeline", "--points-file", "{tmp}/points.json",
                      "--levels", "8"],
                     {"points.json": json.dumps([{"0": "1/3", "1": "1/5"}, {}])}),
    "ds-extract": (["ds", "extract", "--family", "{tmp}/family.txt", "--petals", "3"],
                   {"family.txt": _FAMILY}),
    **{name: (["ds", "witness", "--spec", "{tmp}/spec.json", "--n", "1", "--k", "1"],
              {"spec.json": json.dumps(_SPECS[spec])})
       for name, spec in (("ds-witness", "ok"), ("ds-witness-failed-stage", "failed"),
                          ("ds-witness-self-exclusion", "self"))},
    "clopen-empty": (["clopen", "empty", "--box",
                      "[0: F={1} G={2}; 2: F={} G={5}] @ 2x1^w"], {}),
    "clopen-reduce": (["clopen", "reduce", "--box",
                       "[2: F={4} G={}; 0: F={0,1} G={3}] @ 3x1^w"], {}),
    "clopen-reduce-empty": (["clopen", "reduce", "--box", "[2: F={4} G={}] @ 3x0^w"], {}),
    "clopen-preimage": (["clopen", "preimage", "--box", "[0: F={1,2} G={3}] @ 3",
                         "--k", "3"], {}),
    "clopen-negative-bound": (["clopen", "empty", "--box", "[] @ -1^w"], {}),
    "clopen-outside-ambient": (["clopen", "empty", "--box", "[3: F={1} G={}] @ 1x2"], {}),
    # the malformed requests of the benchmark's cli_mix workload
    "malformed-tau": (["classify", "--tau", "3,x", "--tau2", "1"], {}),
    "malformed-zero-denominator": (["uec", "preimage", "--target", "5/0", "--levels", "4"],
                                   {}),
    "malformed-target-above-one": (["uec", "preimage", "--target", "7/3", "--levels", "4"],
                                   {}),
    "malformed-bounds-list": (["cb", "--ks", "2,a"], {}),
    "malformed-box": (["clopen", "empty", "--box", "[0: F={3} G={}] 2"], {}),
    "malformed-bits": (["uec", "phi", "--bits", "015"], {}),
    "malformed-missing-action": (["avg"], {}),
    "malformed-json": (["uec", "l0", "--bits-file", "{tmp}/bad.json"],
                       {"bad.json": "[[0, 1], "}),
    "missing-subcommand": ([], {}),
}


def run_case(name: str, tmp: Path) -> dict:
    """Exit code and rendered output of one case, with ``tmp`` named {tmp}."""
    argv, files = CASES[name]
    for file_name, content in files.items():
        (tmp / file_name).write_text(content)
    code, payload = dispatch([arg.replace("{tmp}", str(tmp)) for arg in argv])
    return {"name": name, "code": code, "output": render(payload).replace(str(tmp), "{tmp}")}


def _golden() -> dict:
    lines = GOLDEN.read_text().splitlines()
    return {entry["name"]: entry for entry in map(json.loads, lines)}


def test_golden_file_covers_every_case():
    assert list(_golden()) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_output_is_byte_identical(name, tmp_path):
    assert run_case(name, tmp_path) == _golden()[name]
    # the payload holds JSON-native values only, so rendering loses nothing
    payload = dispatch([arg.replace("{tmp}", str(tmp_path)) for arg in CASES[name][0]])[1]
    assert json.loads(render(payload)) == payload
    assert render(payload) == json.dumps(payload, sort_keys=True, separators=(",", ":"))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        rows = [run_case(name, Path(tmp)) for name in CASES]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
    sys.exit(0)
