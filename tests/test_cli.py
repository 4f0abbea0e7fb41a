import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from sigmaprod import encode, uec
from sigmaprod.cli import _invoke, build_parser, dispatch, main, render
from test_uec import fraction_preimage_search, weight_table_charge


def run(argv):
    code, payload = dispatch(argv)
    return code, payload


def test_classify_homeomorphic():
    code, payload = run(["classify", "--tau", "w,w", "--tau2", "5,w"])
    assert code == 0
    assert payload["outcome"] == "HOMEOMORPHIC"
    assert payload["schema"] == 1
    assert payload["rule"]


def test_classify_zero_sequence_against_itself():
    code, payload = run(["classify", "--tau", "", "--tau2", ""])
    assert code == 0 and payload["outcome"] == "HOMEOMORPHIC"


def test_classify_open_carries_the_question():
    code, payload = run(["classify", "--tau", "w tail=1", "--tau2", "w,2 tail=1"])
    assert code == 0 and payload["outcome"] == "OPEN"
    assert "open question" in payload["detail"]


def test_avg_check_passes():
    code, payload = run(["avg", "check", "--k", "2", "--ground", "3"])
    assert code == 0 and payload["rao_axioms"] == "pass"


def test_avg_build_rows_sum_to_one():
    code, payload = run(["avg", "build", "--k", "2", "--ground", "2"])
    assert code == 0
    for row in payload["rows"]:
        total = sum(num / den for _x, num, den in [tuple(t) for t in row["terms"]])
        assert abs(total - 1) < 1e-12


def test_avg_apply_with_file(tmp_path):
    # indicator of 'first coordinate equals {0}' over ground {0,1}
    singles = [[], [0], [1]]
    values = []
    for x0 in singles:
        for x1 in singles:
            values.append([[x0, x1], "1" if x0 == [0] else "0"])
    path = tmp_path / "f.json"
    path.write_text(json.dumps(values))
    code, payload = run(["avg", "apply", "--k", "2", "--ground", "2", "--f", str(path)])
    assert code == 0
    by_y = {tuple(entry["y"]): entry["value"] for entry in payload["values"]}
    assert by_y[(0,)] == "1/2"
    assert by_y[(0, 1)] == "1/2"
    assert by_y[()] == "0"


def test_uec_preimage_and_bounds():
    code, payload = run(["uec", "preimage", "--target", "1/3", "--levels", "4"])
    assert code == 0 and payload["count"] >= 1
    assert [1, 0, 0, 0] in payload["solutions"]
    code, payload = run(["uec", "bounds", "--levels", "3"])
    assert payload["M"] == [3, 4, 6]


def test_uec_l0_file(tmp_path):
    path = tmp_path / "bits.json"
    path.write_text(json.dumps([[0, 0], [1, 0], [2, 0]]))
    code, payload = run(["uec", "l0", "--bits-file", str(path)])
    assert code == 0 and payload["member"] is True and payload["total"] == "1"


def test_uec_pipeline_file(tmp_path):
    path = tmp_path / "points.json"
    path.write_text(json.dumps([{"0": "1/3"}, {}]))
    code, payload = run(["uec", "pipeline", "--points-file", str(path), "--levels", "8"])
    assert code == 0 and payload["ok"] is True
    assert payload["points"][0]["bits"] == [[0, 0]]


def test_uec_pipeline_budget_covers_the_whole_run(tmp_path):
    levels = 8
    values = ["1/3", "1/4", "1/5"]
    table = weight_table_charge(levels)
    costs = [fraction_preimage_search(Fraction(v), levels)[1] for v in values]
    path = tmp_path / "points.json"
    path.write_text(json.dumps([dict(zip("012", values))]))
    argv = ["uec", "pipeline", "--points-file", str(path), "--levels", str(levels)]
    assert run(argv + ["--budget", str(table + sum(costs))])[0] == 0
    # the table with any one coordinate fits the budget, with all three it
    # does not; the first coordinate costs the most, so the second runs out
    # at its first node
    assert costs[0] == max(costs)
    code, payload = run(argv + ["--budget", str(table + max(costs))])
    assert code == 2 and payload["error"]["type"] == "budget-exceeded"
    assert payload["error"]["needed"] == table + max(costs) + 1


def test_uec_preimage_memory_is_bounded():
    # every solution's 2000-bit tuple used to be kept: about 1 GB at this budget
    code = (
        "import resource, subprocess, sys\n"
        "proc = subprocess.run([sys.executable, '-m', 'sigmaprod', 'uec', 'preimage',\n"
        "                       '--target', '1/2', '--levels', '2000',\n"
        "                       '--budget', '250000'], capture_output=True)\n"
        "print(proc.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    returncode, peak_kb = map(int, proc.stdout.split())
    assert returncode == 2
    assert peak_kb < 150 * 1024


def test_uec_preimage_rejects_levels_below_one():
    # --levels -1 used to search without end, --levels 0 answered an empty vector
    for levels in ("0", "-1"):
        code, payload = run(["uec", "preimage", "--target", "1/2", "--levels", levels])
        assert code == 1
        assert payload["error"] == {"type": "invalid-input",
                                    "message": "need at least one level"}


def test_ds_extract_file(tmp_path):
    path = tmp_path / "family.txt"
    path.write_text("1: {1,2}\n2: {1,3}\n3: {1,4}\n")
    code, payload = run(["ds", "extract", "--family", str(path), "--petals", "3"])
    assert code == 0 and payload["found"] is True
    assert payload["root"] == [1]


def test_ds_witness_file(tmp_path):
    spec = {
        "side_g": {"100": [[], []], "101": [[], []]},
        "side_h": {str(mu): [[], []] for mu in range(4)},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, payload = run(["ds", "witness", "--spec", str(path), "--n", "1", "--k", "1"])
    assert code == 0 and payload["ok"] is True
    assert payload["lambda0"] == 100


def test_decompose_reports_checks():
    code, payload = run(["decompose", "--kind", "classif_K", "--depth", "4",
                         "--samples", "60", "--boxes", "8"])
    assert code == 0
    assert payload["checks"]["pairwise_disjoint"] is True
    assert payload["checks"]["membership"]["ok"] is True
    assert payload["checks"]["limit_cofinite"]["ok"] is True


def test_decompose_and_cb_count_against_the_budget():
    # both used to run to the end under any budget: 16.5 s and 54 MB of JSON
    # for this decompose, 2.1 s for this cb
    started = time.monotonic()
    code, payload = run(["decompose", "--kind", "absorb_small", "--m", "1", "--n", "2",
                         "--depth", "1000", "--budget", "100"])
    assert code == 2 and payload["error"]["type"] == "budget-exceeded"
    # the closed-form constraint count, charged before any piece is built
    assert payload["error"]["needed"] == 1 + 2 * (999 * 1000 // 2 + 2 * 1000)
    code, payload = run(["cb", "--ks", "12,12,12,12,12", "--budget", "10"])
    assert code == 2 and payload["error"]["type"] == "budget-exceeded"
    assert time.monotonic() - started < 2


def test_decompose_checks_count_against_the_budget():
    # --samples and --boxes used to be unbounded: this ran for about 10 s
    started = time.monotonic()
    code, payload = run(["decompose", "--kind", "classif_K", "--depth", "40",
                         "--samples", "100000", "--boxes", "100000", "--budget", "1000"])
    assert time.monotonic() - started < 2
    assert code == 2 and payload["error"]["type"] == "budget-exceeded"
    # 820 constraints, then each sample its 40 coordinates, each box one unit
    assert payload["error"]["needed"] == 820 + 100000 * 40 + 100000
    argv = ["decompose", "--kind", "absorb_small", "--m", "1", "--n", "2", "--depth", "3",
            "--samples", "7", "--boxes", "5"]
    needed = 1 + 2 * (3 + 3 * 2) + 7 * 4 + 5
    assert run(argv + ["--budget", str(needed)])[0] == 0
    code, payload = run(argv + ["--budget", str(needed - 1)])
    assert code == 2 and payload["error"]["needed"] == needed


def test_decompose_rejects_negative_check_counts():
    # used to exit 0 with "total": -5, "ok": false, and a lowered charge
    for flags in (["--samples", "-5"], ["--boxes", "-3"], ["--samples", "-5", "--boxes", "-3"]):
        code, payload = run(["decompose", "--kind", "classif_K", "--depth", "2", *flags])
        assert code == 1 and payload["error"]["type"] == "usage"
        assert payload["error"]["message"] == f"{flags[0][2:]} must be non-negative"


def test_clopen_preimage_counts_against_the_budget():
    # its 30!/21! placements used to be built under any budget, for well over 10 s
    started = time.monotonic()
    code, payload = run(["clopen", "preimage", "--box", "[0: F={0,1,2,3,4,5,6,7,8} G={}] @ 30",
                         "--k", "30", "--budget", "10"])
    assert time.monotonic() - started < 2
    assert code == 2 and payload["error"]["type"] == "budget-exceeded"
    assert payload["error"]["needed"] == math.perm(30, 9)


def test_avg_rejects_a_negative_ground():
    # used to answer {"type": "invalid-input", "message": "0"} from a KeyError
    code, payload = run(["avg", "build", "--k", "3", "--ground", "-3"])
    assert code == 1 and payload["error"] == {
        "type": "invalid-input", "message": "ground_size must be non-negative, got -3"}
    code, payload = run(["avg", "build", "--k", "3", "--ground", "0"])
    assert code == 0 and payload["rows"] == [{"y": [], "terms": [[[[], [], []], 1, 1]]}]


def test_each_request_charges_its_documented_count(tmp_path):
    points = tmp_path / "points.json"
    points.write_text(json.dumps([{"0": "1/3", "1": "1/4"}, {"0": "1/5"}]))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"side_g": {"100": [[], []]},
                                "side_h": {str(mu): [[], []] for mu in range(4)}}))
    family = tmp_path / "family.txt"
    family.write_text("1: {1,2}\n2: {1,3}\n")
    bits = tmp_path / "bits.json"
    bits.write_text("[[0, 0]]")
    levels = 8
    searches = [fraction_preimage_search(Fraction(v), levels)[1] for v in ("1/3", "1/4", "1/5")]
    cases = [
        # every vector v <= ks is a term of exactly one stage
        (["cb", "--ks", "2,3"], 3 * 4),
        # constraints 1 + ... + 4, then each sample its 4 coordinates, each box one
        (["decompose", "--kind", "classif_K", "--depth", "4", "--samples", "60",
          "--boxes", "8"], 10 + 60 * 4 + 8),
        # the domain (ground + 1)^k
        (["avg", "check", "--k", "2", "--ground", "3"], 4 ** 2),
        # every node of the search
        (["uec", "preimage", "--target", "1/3", "--levels", str(levels)],
         fraction_preimage_search(Fraction(1, 3), levels)[1]),
        (["uec", "bounds", "--levels", str(levels)], weight_table_charge(levels)),
        (["uec", "pipeline", "--points-file", str(points), "--levels", str(levels)],
         weight_table_charge(levels) + sum(searches)),
        # each (n + 1)-subset of the four usable labels
        (["ds", "witness", "--spec", str(spec), "--n", "1", "--k", "1"], math.comb(4, 2)),
        # each placement of F's elements: 3 * 2
        (["clopen", "preimage", "--box", "[0: F={0,1} G={}] @ 3", "--k", "3"], 6),
        # no enumeration
        (["classify", "--tau", "w,w", "--tau2", "5,w"], 0),
        (["uec", "phi", "--bits", "101"], 0),
        (["uec", "l0", "--bits-file", str(bits)], 3),  # weight_digits(0), for r_0 = 1/3
        (["ds", "extract", "--family", str(family), "--petals", "2"], 0),
        (["clopen", "reduce", "--box", "[0: F={0} G={}] @ 3"], 0),
    ]
    for argv, spent in cases:
        code, _payload, args = _invoke(argv)
        assert (code, args.budget.spent) == (0, spent), argv


def test_uec_bounds_counts_its_digits_against_the_budget():
    # the output grows as levels squared: 12 MB at 5000 levels, no end at 100000
    started = time.monotonic()
    code, payload = run(["uec", "bounds", "--levels", "100000", "--budget", "10"])
    assert time.monotonic() - started < 2
    assert code == 2 and payload["error"]["type"] == "budget-exceeded"
    for levels in (1, 2, 7, 40, 300):
        code, payload = run(["uec", "bounds", "--levels", str(levels)])
        assert code == 0 and payload["r"] == [encode.fraction(uec.level_weight(n))
                                              for n in range(levels)]
        # the charge bounds the digits of the r column from above
        digits = sum(len(w) - len("/") for w in payload["r"])
        needed = run(["uec", "bounds", "--levels", str(levels), "--budget", "1"])[1]
        assert digits <= needed["error"]["needed"] <= digits + 2 * levels
        argv = ["uec", "bounds", "--levels", str(levels), "--budget"]
        assert run(argv + [str(needed["error"]["needed"])]) == (code, payload)


def test_uec_l0_counts_its_weights_digits_against_the_budget(tmp_path):
    path = tmp_path / "bits.json"
    argv = ["uec", "l0", "--bits-file", str(path)]
    for level in (20000, 3000000, 10 ** 400):
        path.write_text(json.dumps([[0, level]]))
        started = time.monotonic()
        code, payload = run(argv + ["--budget", "10"])
        assert time.monotonic() - started < 2
        assert code == 2 and payload["error"]["needed"] == uec.weight_digits(level)
    # the weight at level 3000000 has 2.3 million digits, past the default budget
    started = time.monotonic()
    code, payload = run(argv)
    assert time.monotonic() - started < 2
    assert code == 2 and payload["error"]["type"] == "budget-exceeded"
    # each distinct level is charged once, before any weight is built
    path.write_text(json.dumps([[0, 5], [1, 5], [2, 300]]))
    needed = uec.weight_digits(5) + uec.weight_digits(300)
    assert run(argv + ["--budget", str(needed - 1)])[1]["error"]["needed"] == needed
    assert run(argv + ["--budget", str(needed)])[0] == 0
    # and the charge bounds the digits of the weight from above
    for n in range(400):
        digits = len(encode.fraction(uec.level_weight(n))) - len("/")
        assert digits <= uec.weight_digits(n) <= digits + 2


def test_a_rational_too_long_to_write_is_output_too_large(tmp_path):
    # the input is valid; the interpreter writes no int of more than 4300 digits
    code, payload = run(["uec", "bounds", "--levels", "10000", "--budget", "100000000"])
    assert code == 1 and payload["error"]["type"] == "output-too-large"
    path = tmp_path / "bits.json"
    path.write_text(json.dumps([[0, 20000]]))
    code, payload = run(["uec", "l0", "--bits-file", str(path)])
    assert code == 1 and payload["error"]["type"] == "output-too-large"
    assert f"{sys.get_int_max_str_digits()} digits" in payload["error"]["message"]


def test_clopen_subcommands():
    code, payload = run(["clopen", "empty", "--box", "[0: F={0,1} G={}] @ 1"])
    assert code == 0 and payload["empty"] is True
    code, payload = run(["clopen", "reduce", "--box", "[0: F={0} G={}] @ 3"])
    assert code == 0 and payload["descriptor"]["factors"] == [2]
    code, payload = run(["clopen", "preimage", "--box", "[0: F={0} G={}] @ 2", "--k", "2"])
    assert code == 0 and payload["count"] == 2
    # a repeated coordinate merges into one constraint, here an unsatisfiable one
    code, payload = run(["clopen", "empty", "--box", "[0: F={1} G={}; 0: F={} G={1}] @ 3"])
    assert code == 0 and payload["empty"] is True


def test_error_paths_are_structured():
    code, payload = run(["classify", "--tau", "w,x", "--tau2", ""])
    assert code == 1 and payload["error"]["type"] in ("usage", "invalid-input")
    code, payload = run(["nosuchcommand"])
    assert code == 1 and "error" in payload
    code, payload = run([])
    assert code == 1 and "error" in payload
    code, payload = run(["avg", "check", "--k", "5", "--ground", "5", "--budget", "10"])
    assert code == 2 and payload["error"]["type"] == "budget-exceeded"
    code, payload = run(["clopen", "reduce", "--box", "[0: F={0,1} G={}] @ 1"])
    assert code == 1  # reducing an empty box is a precondition failure
    code, payload = run(["cb", "--ks", "2,3", "--json"])
    assert code == 1 and payload["error"]["type"] == "usage"
    # deep enough to overflow a recursive search before the budget runs out
    code, payload = run(["uec", "preimage", "--target", "1/2", "--levels", "2000",
                         "--budget", "10000"])
    assert code == 2 and payload["error"]["type"] == "budget-exceeded"
    # a negative limit used to slice off the last solutions
    code, payload = run(["uec", "preimage", "--target", "1/2", "--levels", "4",
                         "--limit", "-1"])
    assert code == 1 and payload["error"] == {"type": "usage",
                                              "message": "limit must be non-negative"}


def test_command_without_action_names_the_actions():
    expected = {
        "avg": "avg needs one of: build, check, apply",
        "uec": "uec needs one of: phi, preimage, l0, bounds, pipeline",
        "ds": "ds needs one of: extract, witness",
        "clopen": "clopen needs one of: empty, reduce, preimage",
    }
    for command, message in expected.items():
        code, payload = run([command])
        assert code == 1
        assert payload["error"] == {"type": "usage", "message": message}


def test_help_is_returned_as_a_payload(capsys):
    for argv in (["--help"], ["cb", "-h"], ["avg", "build", "--help"]):
        code, payload = dispatch(argv)
        assert code == 0 and set(payload) == {"help"}
        assert payload["help"].startswith("usage: sigmaprod")
    assert capsys.readouterr().out == ""
    assert dispatch(["--help"])[1]["help"] == build_parser().format_help()
    assert "--ks KS" in dispatch(["cb", "--help"])[1]["help"]


def test_main_prints_help_as_plain_text(capsys):
    for argv in (["--help"], ["cb", "--help"]):
        assert main(argv) == 0
        assert capsys.readouterr().out == dispatch(argv)[1]["help"]


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_flags_do_not_leak_between_dispatches():
    preimage = ["uec", "preimage", "--target", "1/2", "--levels", "12"]
    assert run(preimage + ["--budget", "10"])[0] == 2
    assert run(["--budget", "10"] + preimage)[0] == 2
    assert run(preimage)[0] == 0
    decompose = ["decompose", "--kind", "classif_K", "--depth", "3",
                 "--samples", "20", "--boxes", "4"]
    assert run(decompose + ["--seed", "3"])[1]["seed"] == 3
    assert run(["--seed", "3"] + decompose)[1]["seed"] == 3
    assert run(decompose)[1]["seed"] == 0


def test_fuzz_malformed_inputs_never_crash():
    rng = random.Random(10)
    base = [
        ["classify", "--tau", "w,w", "--tau2", "5,w"],
        ["cb", "--ks", "2,3"],
        ["uec", "phi", "--bits", "101"],
        ["clopen", "empty", "--box", "[0: F={0} G={}] @ 2"],
        ["ds", "extract", "--family", "/nonexistent", "--petals", "3"],
        ["avg", "check", "--k", "2", "--ground", "2"],
    ]
    junk = ["", "w,", "{", "}", "--", "NaN", "1/0", "[0:", "@", "w w", ",", "-1",
            "tail=", "x^w", "()", "1x", "zzz"]
    for trial in range(200):
        argv = list(rng.choice(base))
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(len(argv))
            argv[pos] = rng.choice(junk)
        code, payload = run(argv)
        assert code in (0, 1, 2)
        text = render(payload)
        assert json.loads(text) == payload


def test_cli_determinism_byte_identical():
    corpus = [
        ["classify", "--tau", "w,w,2", "--tau2", "5,w,2"],
        ["decompose", "--kind", "absorb_small", "--m", "1", "--n", "2",
         "--depth", "4", "--samples", "40", "--boxes", "6", "--seed", "3"],
        ["uec", "preimage", "--target", "4/7", "--levels", "10"],
        ["ds", "witness", "--spec", "/nonexistent", "--n", "1", "--k", "1"],
        ["avg", "build", "--k", "3", "--ground", "2"],
    ]
    for argv in corpus:
        first = render(dispatch(argv)[1])
        second = render(dispatch(argv)[1])
        assert first == second


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sigmaprod", "cb", "--ks", "2,3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["index"] == 6 and payload["last_cardinality"] == 1


def test_out_flag_writes_file(tmp_path):
    out = tmp_path / "result.json"
    from sigmaprod.cli import main

    code = main(["cb", "--ks", "1,1", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["index"] == 3


def test_out_flag_with_equals_sign_writes_file(tmp_path, capsys):
    out = tmp_path / "result.json"
    from sigmaprod.cli import main

    code = main(["cb", "--ks", "1,1", f"--out={out}"])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["index"] == 3
