import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from sigmaprod import classification, deltasystem, encode, uec
from sigmaprod.cli import SCHEMA, _invoke, build_parser, dispatch, main, render
from sigmaprod.ground import (DEFAULT_BUDGET, EMPTY, Budget, BudgetExceeded, Point,
                              ProductDescriptor)
from test_uec import split_charge, weight_table_charge


LONG = "9" * 5000  # an integer past the interpreter's 4,300-digit limit for int()


def run(argv):
    code, payload = dispatch(argv)
    return code, payload


def test_classify_homeomorphic():
    code, payload = run(["classify", "--tau", "w,w", "--tau2", "5,w"])
    assert code == 0
    assert payload["outcome"] == "HOMEOMORPHIC"
    assert payload["schema"] == SCHEMA
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


def test_json_numbers_with_a_fraction_part_are_read_exactly(tmp_path):
    # avg apply read 0.1 as the float 3602879701896397/36028797018963968,
    # while uec pipeline read the same 0.1 as 1/10
    path = tmp_path / "f.json"
    path.write_text('[[[[]], 0.1], [[[0]], 2.50]]')
    code, payload = run(["avg", "apply", "--k", "1", "--ground", "1", "--f", str(path)])
    assert code == 0 and payload["values"] == [{"y": [], "value": "1/10"},
                                               {"y": [0], "value": "5/2"}]
    path.write_text('[{"0": 0.1}]')
    code, payload = run(["uec", "pipeline", "--levels", "4", "--points-file", str(path)])
    assert code == 0 and payload["points"][0]["vector"] == {"0": "1/10"}


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
    costs = [split_charge(Fraction(v), levels) for v in values]
    path = tmp_path / "points.json"
    path.write_text(json.dumps([dict(zip("012", values))]))
    argv = ["uec", "pipeline", "--points-file", str(path), "--levels", str(levels)]
    assert run(argv + ["--budget", str(table + sum(costs))])[0] == 0
    # the table with any one coordinate fits the budget, with all three it
    # does not; the first coordinate costs the most, so the second runs out
    # at its first charge, its 2^4 tail table entries
    assert costs[0] == max(costs)
    code, payload = run(argv + ["--budget", str(table + max(costs))])
    assert code == 2 and payload["error"]["type"] == "budget-exceeded"
    assert payload["error"]["needed"] == table + max(costs) + 2 ** 4


def test_avg_charges_its_power_without_computing_it():
    # (10^6 + 1)^800 has 4801 digits: the error could not be written
    # ("invalid-input"), and at k = 3000000 the power took 33 s to build
    for k in ("800", "3000000"):
        started = time.monotonic()
        code, payload = run(["avg", "build", "--k", k, "--ground", "1000000"])
        assert time.monotonic() - started < 1
        assert code == 2 and payload["error"]["type"] == "budget-exceeded"
        # the power is multiplied up only until it passes the room left
        assert payload["error"]["needed"] == 1000001 ** 2
    code, payload = run(["avg", "build", "--k", "3", "--ground", "3", "--budget", "63"])
    assert code == 2 and payload["error"]["needed"] == 4 ** 3
    assert run(["avg", "build", "--k", "3", "--ground", "3", "--budget", "64"])[0] == 0


def test_avg_charges_the_mask_words_of_its_domain_tuples():
    # each domain tuple is keyed by a mask of one bit per ground element:
    # ground 30000 peaked at 213 MB, and k = 2 at ground 600 ran 7.2 s
    for k, ground in (("1", "30000"), ("2", "600")):
        started = time.process_time()
        code, payload = run(["avg", "check", "--k", k, "--ground", ground])
        assert time.process_time() - started < 1, (k, ground)
        assert code == 2 and payload["error"]["type"] == "budget-exceeded", (k, ground)
    # one unit per tuple and one per 64-bit word of its mask
    _code, _payload, args = _invoke(["avg", "build", "--k", "1", "--ground", "64"])
    assert args.budget.spent == 65 * (1 + 64 // 64)
    assert run(["avg", "check", "--k", "1", "--ground", "10000"])[1]["rao_axioms"] == "pass"


def test_a_budget_error_too_long_to_write_drops_its_count():
    ground = "9" * sys.get_int_max_str_digits()  # the longest int --ground takes
    code, payload = run(["avg", "build", "--k", "2", "--ground", ground])
    assert code == 2 and payload["error"] == {
        "type": "budget-exceeded", "needed": None, "budget": 2000000,
        "message": f"enumeration of size over {sys.get_int_max_str_digits()} digits "
                   "exceeds budget 2000000"}
    render(payload)


def test_ds_extract_counts_its_search_against_the_budget(tmp_path):
    # the exact search ran under any budget: this exited 0 under --budget 1
    path = tmp_path / "family.txt"
    path.write_text("".join(f"{i}: {{{i % 3},{10 + i}}}\n" for i in range(20)))
    argv = ["ds", "extract", "--family", str(path), "--petals", "2"]
    code, payload = run(argv + ["--budget", "1"])
    assert code == 2 and payload["error"]["type"] == "budget-exceeded"
    code, _payload, args = _invoke(argv)
    assert code == 0
    spent = args.budget.spent
    assert run(argv + ["--budget", str(spent)])[0] == 0
    code, payload = run(argv + ["--budget", str(spent - 1)])
    assert code == 2 and payload["error"]["needed"] == spent


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


def test_uec_preimage_memory_is_bounded_under_the_default_budget():
    # the head search streams its leaves: keeping them took 235 MB here
    code = (
        "import resource, subprocess, sys\n"
        "proc = subprocess.run([sys.executable, '-m', 'sigmaprod', 'uec', 'preimage',\n"
        "                       '--target', '1/2', '--levels', '2000'], capture_output=True)\n"
        "print(proc.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    returncode, peak_kb = map(int, proc.stdout.split())
    assert returncode == 2
    assert peak_kb < 100 * 1024


def test_uec_preimage_with_a_huge_level_count_is_bounded():
    # each head node works on ints of about 1.6·L bits: this ran past 60 s
    started = time.monotonic()
    code, payload = run(["uec", "preimage", "--target", "1/2", "--levels", "100000"])
    assert time.monotonic() - started < 1
    assert code == 2 and payload["error"]["type"] == "budget-exceeded"


def test_uec_preimage_charges_a_head_path_before_scaling_the_target():
    # 3 ** levels was built before any charge that grows with the levels:
    # 10**7 exited 2 after 10 s, 30 digits answered "internal: OverflowError"
    for levels in (10 ** 7, 10 ** 8, 10 ** 29 + 7):
        started = time.monotonic()
        code, payload = run(["uec", "preimage", "--target", "1/2", "--levels", str(levels)])
        assert time.monotonic() - started < 1
        assert code == 2 and payload["error"]["type"] == "budget-exceeded"
        t = min(levels // 2, uec._MAX_TAIL_LEVELS)
        assert payload["error"]["needed"] == 2 ** t + (1 + levels // 64) * (levels - t + 1)


def test_uec_phi_counts_its_weights_digits_against_the_budget():
    # 30000 one-bits used to run 40 s and then answer output-too-large
    started = time.monotonic()
    code, payload = run(["uec", "phi", "--bits", "1" * 30000])
    assert time.monotonic() - started < 1
    assert code == 2
    assert payload["error"]["needed"] == sum(map(uec.weight_digits, range(30000)))
    # the sum is scaled by the highest set level, not by the level count
    started = time.monotonic()
    code, payload = run(["uec", "phi", "--bits", "1", "--levels", "1000000000"])
    assert time.monotonic() - started < 1
    assert code == 0 and payload["value"] == "1/3"
    argv = ["uec", "phi", "--bits", "101", "--budget"]
    needed = uec.weight_digits(0) + uec.weight_digits(2)
    assert run(argv + [str(needed - 1)])[1]["error"]["needed"] == needed
    code, payload = run(argv + [str(needed)])
    assert code == 0 and payload["value"] == "13/27"


def test_ds_witness_charges_its_petal_search_to_the_request(tmp_path):
    # the petal search ran on a meter of its own: 2,613 nodes under --budget 7,
    # and the request exited 2 only at its subset charge
    side_h = {mu: Point((200 + mu % 3, 300 + mu)) for mu in range(20)}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"side_g": {"100": [[], []]},
                                "side_h": {str(mu): [[], list(s)] for mu, s in side_h.items()}}))
    argv = ["ds", "witness", "--spec", str(path), "--n", "1", "--k", "1"]
    family = deltasystem.SetFamily.from_pairs(side_h.items())
    with pytest.raises(BudgetExceeded) as info:
        deltasystem.extract_delta_system(family, 2, 7)
    code, payload = run(argv + ["--budget", "7"])
    assert code == 2 and payload["error"]["needed"] == info.value.needed
    # the whole request: the petal search, then each 2-subset of the usable labels
    search = Budget(10 ** 6)
    deltasystem.extract_delta_system(family, 2, search)
    code, payload, args = _invoke(argv)
    assert code == 0
    assert args.budget.spent == search.spent + math.comb(len(payload["s_labels"]), 2)


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
    # the closed-form constraint count and the elements of the distinct
    # constraints, n(n + 1)/2 + n + m, charged before any piece is built
    assert payload["error"]["needed"] == 1 + 2 * (999 * 1000 // 2 + 2 * 1000) + (3 + 2 + 1)
    code, payload = run(["cb", "--ks", "12,12,12,12,12", "--budget", "10"])
    assert code == 2 and payload["error"]["type"] == "budget-exceeded"
    assert time.monotonic() - started < 2


def test_cb_charges_the_entries_of_each_derivative_before_building_it():
    # each stage used to be charged its term count only, then built len(ks)
    # entries per positive coordinate of each term: 24 ones exited 2 after
    # 39 s at 633 MB, and 300 ones ended in a MemoryError
    for n in (24, 60, 300):
        started = time.process_time()
        code, payload = run(["cb", "--ks", ",".join(["1"] * n)])
        assert time.process_time() - started < 1, n
        assert code == 2 and payload["error"]["type"] == "budget-exceeded", n


def test_classify_writes_a_long_tau_in_linear_time():
    # format_tau read value_at, a linear scan, once per index: 5.8 s here;
    # timed in CPU seconds, which a busy host does not stretch
    started = time.process_time()
    code, payload = run(["classify", "--tau", ",".join(["1"] * 20000), "--tau2", "1"])
    assert time.process_time() - started < 1
    assert code == 0 and payload["tau"]["text"] == ",".join(["1"] * 20000) + " tail=0"


def test_decompose_checks_count_against_the_budget():
    # --samples and --boxes used to be unbounded: this ran for about 10 s
    started = time.monotonic()
    code, payload = run(["decompose", "--kind", "classif_K", "--depth", "40",
                         "--samples", "100000", "--boxes", "100000", "--budget", "1000"])
    assert time.monotonic() - started < 2
    assert code == 2 and payload["error"]["type"] == "budget-exceeded"
    # 820 constraints and their 2 distinct elements, then each sample its 40
    # coordinates, each box one unit
    assert payload["error"]["needed"] == 820 + 2 + 100000 * 40 + 100000
    argv = ["decompose", "--kind", "absorb_small", "--m", "1", "--n", "2", "--depth", "3",
            "--samples", "7", "--boxes", "5"]
    # then the disjointness comparisons, (g - 1)·Σ(|F| + |G|) over the g
    # distinct constraints of each coordinate: 1·2, 2·5, 2·5, 1·3
    needed = 1 + 2 * (3 + 3 * 2) + (3 + 2 + 1) + 7 * 4 + 5 + (2 + 10 + 10 + 3)
    assert run(argv + ["--budget", str(needed)])[0] == 0
    code, payload = run(argv + ["--budget", str(needed - 1)])
    assert code == 2 and payload["error"]["needed"] == needed


def test_decompose_charges_its_disjointness_comparisons():
    # charged only its 1,000 constraints, this compared every pair of them
    # and ran for more than 60 s
    argv = ["decompose", "--kind", "absorb_small", "--m", "0", "--n", "1000", "--depth", "1",
            "--samples", "0", "--boxes", "0"]
    started = time.monotonic()
    code, payload = run(argv)
    assert time.monotonic() - started < 1
    assert code == 2 and payload["error"]["type"] == "budget-exceeded"
    # piece i constrains the one coordinate by F of i elements and G of one;
    # the 1,000 constraints, their elements and the full set, then the pairs
    elements = sum(i + 1 for i in range(1000))
    assert payload["error"]["needed"] == 1000 + (elements + 1000) + 999 * elements


def test_decompose_refuses_its_disjointness_charge_before_building_any_piece(monkeypatch):
    # the comparisons were charged only once all 1,999 pieces and their
    # index were built, and the request exited 2 after 0.9 s
    built = []
    partition_pieces = classification._partition_pieces

    def spy(*args):
        pieces = partition_pieces(*args)
        built.extend(pieces)
        return pieces

    monkeypatch.setattr(classification, "_partition_pieces", spy)
    spy_checked_constructor(monkeypatch, built)
    argv = ["decompose", "--kind", "classif_K", "--depth", "1999", "--samples", "0",
            "--boxes", "0"]
    code, payload = run(argv)
    assert code == 2 and payload["error"]["type"] == "budget-exceeded"
    # 1,999,002 units to build, then 2 per coordinate but the last to compare
    assert payload["error"]["needed"] == 1999002 + 2 * 1998 == 2002998
    assert built == []
    assert run(argv[:4] + ["3"] + argv[5:])[0] == 0  # the spy sees a request that builds
    assert [piece.label for piece in built] == ["K(1)", "K(2)", "K(3)"]
    built.clear()
    hand_built_piece()  # and the other spy a piece built by hand
    assert [piece.label for piece in built] == ["hand"]


def spy_checked_constructor(monkeypatch, built):
    """Record in ``built`` each piece the checked constructor returns."""
    checked = classification.DecompositionPiece.__new__

    def spy(cls, *args, **kwargs):
        piece = checked(cls, *args, **kwargs)
        built.append(piece)
        return piece

    monkeypatch.setattr(classification.DecompositionPiece, "__new__", spy)


def hand_built_piece():
    ambient = ProductDescriptor((), 1)
    return classification.DecompositionPiece("hand", ambient, ((0, EMPTY, Point.of(0)),),
                                             ambient)


@pytest.mark.parametrize("argv", [
    ["decompose", "--kind", "absorb_small", "--m", "2", "--n", "3", "--depth", "12"],
    ["decompose", "--kind", "classif_K", "--depth", "9", "--samples", "40"],
])
def test_a_decompose_request_never_reaches_the_checked_constructor(monkeypatch, argv):
    # the request checks its pieces constraint by constraint and fills them
    # directly: the checked constructor, which reduces each box, is never reached
    built = []
    spy_checked_constructor(monkeypatch, built)
    code, payload = run(argv)
    assert code == 0 and payload["checks"]["membership"]["ok"]
    assert built == []
    # the spy sees a piece built by hand
    piece = hand_built_piece()
    assert built == [piece] and piece.label == "hand"


def library_charge(m, n, depth, samples, boxes, words):
    """What building the partition and checking its disjointness charge a
    meter, plus ``words`` units per coordinate of each widest sampled point
    and one per box."""
    meter = Budget(10 ** 12)
    dec = classification.decompose_absorb_small(m, n, depth, budget=meter)
    classification.check_pairwise_disjoint(dec, meter)
    return meter.spent + samples * (dec.ambient.explicit_len + depth) * words + boxes


@pytest.mark.parametrize("m, n, words", [(0, 1, 1), (1, 3, 1), (2, 61, 1), (0, 62, 2),
                                         (1, 100, 2)])
def test_decompose_charges_each_sampled_code_by_its_64_bit_words(m, n, words):
    # a coordinate's code holds G + 1 bits over the n witnesses and 2 more
    # ground elements: one word up to n = 61, two from n = 62 on
    needed = library_charge(m, n, 2, 5, 3, words)
    argv = ["decompose", "--kind", "absorb_small", "--m", str(m), "--n", str(n),
            "--depth", "2", "--samples", "5", "--boxes", "3"]
    assert run(argv + ["--budget", str(needed)])[0] == 0
    code, payload = run(argv + ["--budget", str(needed - 1)])
    assert code == 2 and payload["error"]["needed"] == needed


def test_decompose_charges_as_many_units_as_the_library_calls():
    # the charges tried before building are the ones made after it
    rng = random.Random(8)
    for _ in range(12):
        n = rng.randint(1, 4)
        m, depth = rng.randrange(n), rng.randint(1, 9)
        samples, boxes = rng.randint(0, 50), rng.randint(0, 9)
        needed = library_charge(m, n, depth, samples, boxes, 1)
        argv = ["decompose", "--kind", "absorb_small", "--m", str(m), "--n", str(n),
                "--depth", str(depth), "--samples", str(samples), "--boxes", str(boxes)]
        assert run(argv + ["--budget", str(needed)])[0] == 0
        assert run(argv + ["--budget", str(needed - 1)])[1]["error"]["needed"] == needed


def test_decompose_charges_its_witness_elements():
    # charged its 6,000 constraints only, this built their 18 million witness
    # elements and exited 2 after 2.0 s at 228 MB
    argv = ["decompose", "--kind", "absorb_small", "--m", "0", "--n", "6000", "--depth", "1"]
    started = time.monotonic()
    code, payload = run(argv)
    assert time.monotonic() - started < 1
    assert code == 2 and payload["error"]["needed"] == 6000 + (6000 * 6001 // 2 + 6000)


def test_decompose_charges_before_building_its_witnesses():
    # tuple(range(n)) came before the charge: 30 digits answered
    # "internal: OverflowError", and 20,000,000 exited 2 after about 4 s
    for n in ("1" * 30, "20000000"):
        argv = ["decompose", "--kind", "absorb_small", "--m", "0", "--n", n, "--depth", "1"]
        started = time.monotonic()
        code, payload = run(argv)
        assert time.monotonic() - started < 1
        assert code == 2 and payload["error"]["type"] == "budget-exceeded"
        count = int(n)
        assert payload["error"]["needed"] == count + count * (count + 1) // 2 + count


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
    assert payload["error"]["needed"] == math.perm(30, 9) * 30


def test_clopen_preimage_charges_the_coordinates_it_builds():
    # one placement, but its box has a constraint at each of the k coordinates;
    # charged 1 unit, k = 10**6 used to run for 9 s at 766 MB and write 62 MB
    k = DEFAULT_BUDGET + 1
    started = time.monotonic()
    code, payload = run(["clopen", "preimage", "--box", f"[0: F={{}} G={{1}}] @ {k}",
                         "--k", str(k)])
    assert time.monotonic() - started < 1
    assert code == 2 and payload["error"]["needed"] == k


def test_clopen_reduce_charges_its_explicit_factors():
    # one explicit factor per coordinate up to the last constrained one: this
    # ran 0.57 s at 275 MB, and at coordinate 10**8 it was killed
    started = time.monotonic()
    code, payload = run(["clopen", "reduce", "--box", "[3000000: F={1} G={}] @ 2^w"])
    assert time.monotonic() - started < 1
    assert code == 2 and payload["error"]["needed"] == 3_000_001


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
    searches = [split_charge(Fraction(v), levels) for v in ("1/3", "1/4", "1/5")]
    cases = [
        # every vector v <= ks is a term of exactly one stage, and each of its
        # positive coordinates builds len(ks) entries; the first coordinate is
        # positive in 2 * 4 vectors, the second in 3 * 3
        (["cb", "--ks", "2,3"], 2 * (2 * 4 + 3 * 3)),
        # constraints 1 + ... + 4 and the elements of ({}, {0}) and {0}, then
        # each sample its 4 coordinates, each box one, then the disjointness
        # comparisons: two constraints of one element each at the first three
        # coordinates
        (["decompose", "--kind", "classif_K", "--depth", "4", "--samples", "60",
          "--boxes", "8"], 10 + 2 + 60 * 4 + 8 + 3 * (1 * 2)),
        # the domain (ground + 1)^k
        (["avg", "check", "--k", "2", "--ground", "3"], 4 ** 2),
        # the tail table, the head nodes and the listed solutions, all 27 here
        (["uec", "preimage", "--target", "1/3", "--levels", str(levels)],
         split_charge(Fraction(1, 3), levels, listed=27)),
        (["uec", "bounds", "--levels", str(levels)], weight_table_charge(levels)),
        (["uec", "pipeline", "--points-file", str(points), "--levels", str(levels)],
         weight_table_charge(levels) + sum(searches)),
        # the petal search under the one root {} (the five nodes taking all four
        # empty petals, four pruned skips), then each (n + 1)-subset of the
        # four usable labels
        (["ds", "witness", "--spec", str(spec), "--n", "1", "--k", "1"], 9 + math.comb(4, 2)),
        # each placement of F's elements, 3 * 2, builds a box over 3 coordinates
        (["clopen", "preimage", "--box", "[0: F={0,1} G={}] @ 3", "--k", "3"], 18),
        # no enumeration
        (["classify", "--tau", "w,w", "--tau2", "5,w"], 0),
        # weight_digits(0) + weight_digits(2), the digits of r_0 and r_2
        (["uec", "phi", "--bits", "101"], 3 + 5),
        (["uec", "l0", "--bits-file", str(bits)], 3),  # weight_digits(0), for r_0 = 1/3
        # the nodes of the petal search under the one root {1}
        (["ds", "extract", "--family", str(family), "--petals", "2"], 5),
        # the explicit factors up to the last constrained coordinate
        (["clopen", "reduce", "--box", "[0: F={0} G={}] @ 3"], 1),
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


def test_greedy_extraction_charges_its_passes(tmp_path):
    # one pass over the 21 sets per root element: this ran 1.3 s charged nothing
    family = tmp_path / "family.txt"
    members = "{" + ",".join(map(str, range(1200))) + "}"
    family.write_text("".join(f"{label}: {members}\n" for label in range(21)))
    started = time.monotonic()
    code, payload = run(["ds", "extract", "--family", str(family), "--petals", "2"])
    assert time.monotonic() - started < 1
    assert code == 2 and payload["error"]["type"] == "budget-exceeded"
    assert payload["error"]["needed"] > DEFAULT_BUDGET


def test_a_file_flag_that_cannot_be_read_is_a_usage_error(tmp_path):
    # a directory or an empty path used to answer "internal: IsADirectoryError"
    missing = tmp_path / "missing.txt"
    cases = [
        (["ds", "extract", "--petals", "2", "--family", ""], "cannot read : Is a directory"),
        (["uec", "pipeline", "--levels", "1", "--points-file="], "cannot read : Is a directory"),
        (["ds", "witness", "--n", "1", "--k", "1", "--spec", str(tmp_path)],
         f"cannot read {tmp_path}: Is a directory"),
        (["ds", "extract", "--petals", "2", "--family", str(missing)], f"no such file: {missing}"),
        (["uec", "l0", "--bits-file", str(missing)], f"no such file: {missing}"),
    ]
    for argv, message in cases:
        assert run(argv) == (1, {"schema": SCHEMA, "error": {"type": "usage", "message": message}})


@pytest.mark.parametrize("argv, content, message", [
    (["avg", "apply", "--k", "2", "--ground", "3", "--f", "FILE"], "[5]",
     "malformed function file; expected [[coords…], rational] pairs"),
    (["avg", "apply", "--k", "2", "--ground", "3", "--f", "FILE"], "[]",
     "function file misses 16 domain points"),
    (["uec", "l0", "--bits-file", "FILE"], "[[0]]",
     "malformed bits file; expected [[element, level], …]"),
    (["uec", "pipeline", "--levels", "2", "--points-file", "FILE"], "[5]",
     "malformed points file; expected [{label: rational}, …]"),
    (["ds", "extract", "--petals", "2", "--family", "FILE"], "1: {1}\n2 {2}\n",
     "FILE:2: expected 'label: {e1,e2}'"),
    (["ds", "witness", "--n", "1", "--k", "1", "--spec", "FILE"], "{}",
     "malformed spec file; expected side_g / side_h objects"),
    # used to answer "internal: AttributeError"
    (["ds", "witness", "--n", "1", "--k", "1", "--spec", "FILE"], '{"side_g": 5, "side_h": {}}',
     "malformed spec file; expected side_g / side_h objects"),
    (["cb", "--ks", "1", "--budget", "0"], "", "budget must be positive"),
    # a non-integer element or level used to be truncated: member, total 5/9
    (["uec", "l0", "--bits-file", "FILE"], "[[0, 1.5], [2.7, 0]]",
     "malformed bits file; expected [[element, level], …]"),
    (["avg", "apply", "--k", "1", "--ground", "1", "--f", "FILE"],
     '[[[[]], "1"], [[[0.5]], "1"]]',
     "malformed function file; expected [[coords…], rational] pairs"),
    (["ds", "witness", "--n", "1", "--k", "1", "--spec", "FILE"],
     '{"side_g": {"1": [[], [2.5]]}, "side_h": {}}',
     "malformed spec file; expected side_g / side_h objects"),
    # Fraction reads exponent notation by building 10^|exponent|
    (["uec", "preimage", "--levels", "4", "--target", "1e-10000000"], "",
     "malformed rational '1e-10000000'"),
    (["uec", "pipeline", "--levels", "2", "--points-file", "FILE"], '[{"0": "1E-9"}]',
     "malformed rational '1E-9'"),
    (["uec", "pipeline", "--levels", "2", "--points-file", "FILE"], '[{"0": 1e-9}]',
     "malformed rational '1e-9'"),
    (["avg", "apply", "--k", "1", "--ground", "1", "--f", "FILE"],
     '[[[[]], "1e3"], [[[0]], "1"]]', "malformed rational '1e3'"),
    # JSON booleans used to pass as the ints 1 and 0
    (["avg", "apply", "--k", "1", "--ground", "1", "--f", "FILE"],
     "[[[[]], true], [[[0]], 1]]",
     "malformed function file; expected [[coords…], rational] pairs"),
    (["avg", "apply", "--k", "1", "--ground", "1", "--f", "FILE"],
     "[[[[]], 1], [[[true]], 1]]",
     "malformed function file; expected [[coords…], rational] pairs"),
    (["uec", "l0", "--bits-file", "FILE"], "[[0, true]]",
     "malformed bits file; expected [[element, level], …]"),
    (["ds", "witness", "--n", "1", "--k", "1", "--spec", "FILE"],
     '{"side_g": {"1": [[], [true]]}, "side_h": {}}',
     "malformed spec file; expected side_g / side_h objects"),
    # used to answer "internal: RecursionError"
    (["uec", "l0", "--bits-file", "FILE"], "[" * 100_000 + "]" * 100_000,
     "JSON nested too deeply in FILE"),
    # a file that is not UTF-8 used to answer "invalid-input"
    (["uec", "l0", "--bits-file", "FILE"], b"\xff\xfe[[0,1]]",
     "cannot read FILE: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (["ds", "extract", "--petals", "2", "--family", "FILE"], b"1: {1}\n\xff2: {2}\n",
     "cannot read FILE: 'utf-8' codec can't decode byte 0xff in position 7: invalid start byte"),
    # "0" and "00" are both label 0: the last value silently won
    (["uec", "pipeline", "--levels", "2", "--points-file", "FILE"], '[{"0": "1/2", "00": "1/4"}]',
     "malformed points file; expected [{label: rational}, …]"),
    # a bad point used to answer "invalid-input" without its line
    (["ds", "extract", "--petals", "2", "--family", "FILE"], "1: {1}\n2: {a}\n",
     "FILE:2: malformed point '{a}': elements must be integers"),
    # int() read these labels: an Arabic-Indic digit as label 1, " 1_0 " as 10,
    # and "+1" as a second label 1
    (["uec", "pipeline", "--levels", "2", "--points-file", "FILE"], '[{"\u0661": "1/2"}]',
     "malformed points file; expected [{label: rational}, …]"),
    (["uec", "pipeline", "--levels", "2", "--points-file", "FILE"], '[{" 1_0 ": "1/4"}]',
     "malformed points file; expected [{label: rational}, …]"),
    (["ds", "witness", "--n", "1", "--k", "1", "--spec", "FILE"],
     '{"side_g": {"1": [[], []], "+1": [[], []]}, "side_h": {}}',
     "malformed spec file; expected side_g / side_h objects"),
], ids=["function", "domain", "bits", "points", "family", "spec", "spec-side", "budget",
        "bits-fraction", "function-coordinate", "spec-element", "target-exponent",
        "points-exponent", "points-float-exponent", "function-exponent", "function-boolean",
        "function-coordinate-boolean", "bits-boolean", "spec-boolean", "bits-nesting",
        "bits-not-utf8", "family-not-utf8", "points-duplicate-label", "family-point",
        "points-non-ascii-label", "points-underscore-label", "spec-plus-label"])
def test_malformed_input_is_a_usage_error(tmp_path, argv, content, message):
    path = tmp_path / "input"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    code, payload = run([str(path) if token == "FILE" else token for token in argv])
    assert code == 1 and payload["error"] == {
        "type": "usage", "message": message.replace("FILE", str(path))}


@pytest.mark.parametrize("argv, kind, message", [
    (["clopen", "empty", "--box", "[a: F={} G={}] @ 2"], "invalid-input",
     "malformed box constraint 'a: F={} G={}'"),
    (["clopen", "empty", "--box", "[0: F={} G={}; ] @ 2"], "invalid-input",
     "malformed box constraint ''"),
    (["clopen", "empty", "--box", "[0: F={} G={}] @ 2x ^w"], "invalid-input",
     "malformed descriptor '2x ^w'"),
    (["clopen", "empty", "--box", "[0: F={} G={}] @ \u00b2"], "invalid-input",
     "malformed descriptor '\u00b2'"),
    (["clopen", "empty", "--box", "[0: F={\u0661} G={}] @ 2"], "invalid-input",
     "malformed point '{\u0661}': elements must be integers"),
    (["classify", "--tau", "\u00b2", "--tau2", "1"], "invalid-input",
     "bad tau entry '\u00b2' (expected digits or 'w')"),
    (["classify", "--tau", "\u0661", "--tau2", "1"], "invalid-input",
     "bad tau entry '\u0661' (expected digits or 'w')"),
    (["cb", "--ks", "\u0661,\u0662"], "usage", "malformed bounds list '\u0661,\u0662'"),
    (["cb", "--ks", "+1"], "usage", "malformed bounds list '+1'"),
    # past the interpreter's 4,300-digit limit for int()
    (["classify", "--tau", LONG, "--tau2", "1"], "invalid-input",
     f"bad tau entry '{LONG}' (expected digits or 'w')"),
    (["clopen", "empty", "--box", f"[{LONG}: F={{}} G={{}}] @ 2"], "invalid-input",
     f"malformed box constraint '{LONG}: F={{}} G={{}}'"),
    (["clopen", "reduce", "--box", f"[0: F={{}} G={{1}}] @ {LONG}x2"], "invalid-input",
     f"malformed descriptor '{LONG}x2'"),
    (["clopen", "reduce", "--box", f"[0: F={{}} G={{1}}] @ 2x{LONG}^w"], "invalid-input",
     f"malformed descriptor '2x{LONG}^w'"),
    (["cb", "--ks", f"1,{LONG}"], "usage", f"malformed bounds list '1,{LONG}'"),
    # an int flag's value, which int() read
    (["cb", "--ks", "2", "--budget", "1_000_000"], "usage",
     "argument --budget: invalid int value: '1_000_000'"),
    (["decompose", "--kind", "classif_K", "--depth", "\u0663"], "usage",
     "argument --depth: invalid int value: '\u0663'"),
    (["decompose", "--kind", "classif_K", "--boxes", "+0"], "usage",
     "argument --boxes: invalid int value: '+0'"),
    (["--seed", " 5", "cb", "--ks", "1"], "usage", "argument --seed: invalid int value: ' 5'"),
], ids=["box-coordinate", "box-empty-constraint", "descriptor-empty-tail",
        "descriptor-superscript", "point-arabic-indic", "tau-superscript", "tau-arabic-indic",
        "ks-arabic-indic", "ks-plus", "tau-long", "box-coordinate-long",
        "descriptor-factor-long", "descriptor-tail-long", "ks-long", "budget-underscore",
        "depth-arabic-indic", "boxes-plus", "seed-space"])
def test_an_inline_integer_is_ascii_digits(argv, kind, message):
    # int() answered "invalid literal for int() with base 10", naming neither
    # the flag nor the text, or read other scripts' digits and exited 0; past
    # its digit limit it answered "Exceeds the limit (4300 digits) …"
    assert run(argv) == (1, {"schema": SCHEMA, "error": {"type": kind, "message": message}})


def test_a_family_label_that_is_not_ascii_digits_stays_text(tmp_path):
    # "²" passed str.isdigit, and "--4" lost both signs to lstrip("-"): each
    # answered int()'s "invalid literal" error
    path = tmp_path / "family.txt"
    path.write_text("²: {1}\n-3: {2}\n--4: {3}\n", encoding="utf-8")
    code, payload = run(["ds", "extract", "--family", str(path), "--petals", "3"])
    assert code == 0 and payload["petal_labels"] == ["²", "-3", "--4"]


def test_a_family_label_past_the_digit_limit_stays_text(tmp_path):
    # int() failed on it, and the line answered "Exceeds the limit (4300 digits) …"
    path = tmp_path / "family.txt"
    path.write_text(f"{LONG}: {{1}}\n2: {{2}}\n", encoding="utf-8")
    code, payload = run(["ds", "extract", "--family", str(path), "--petals", "2"])
    assert code == 0 and payload["petal_labels"] == [LONG, "2"]


def test_a_json_integer_past_the_digit_limit_is_a_usage_error(tmp_path):
    # json.loads raises a plain ValueError here, which answered "invalid-input"
    path = tmp_path / "bits.json"
    path.write_text(f"[[{'9' * 5000}, 0]]")
    code, payload = run(["uec", "l0", "--bits-file", str(path)])
    assert code == 1 and payload["error"]["type"] == "usage"
    assert payload["error"]["message"].startswith(
        f"unreadable number in {path}: Exceeds the limit")


def test_an_out_path_that_cannot_be_written_is_a_usage_error(tmp_path, capsys):
    # used to raise IsADirectoryError / FileNotFoundError out of main
    for out, reason in [(tmp_path, "Is a directory"),
                        (tmp_path / "missing" / "result.json", "No such file or directory")]:
        assert main(["cb", "--ks", "1,1", "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().out) == {"schema": SCHEMA, "error": {
            "type": "usage", "message": f"cannot write {out}: {reason}"}}
