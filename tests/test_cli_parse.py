"""The CLI's argv parser against argparse as the oracle.

``cli._parse`` reads argv straight from ``cli._COMMANDS``; ``build_parser()``
is the argparse parser that writes the -h/--help text.  On a seeded corpus of
valid argvs and of their mutations, both must give the same namespace, or
both a usage error.  They differ on purpose in three ways only, each named
below: ``_parse`` takes no abbreviated flag, it takes the token after a
flag as its value even when that token starts with "-", and it reads an int
flag's value as ASCII digits after an optional "-", as ``ground.read_int``
reads every integer in inline text.
"""

import contextlib
import io
import random
import subprocess
import sys

from sigmaprod.cli import _COMMANDS, _GLOBAL_FLAGS, CliError, _parse, build_parser, dispatch
from sigmaprod.ground import DEFAULT_BUDGET

GLOBAL_DEFAULTS = {"budget": DEFAULT_BUDGET, "seed": 0, "out": None}
LEAVES = [(command, action) for command, actions in _COMMANDS.items() for action in actions]
VALUES = ["w,w", "5,w tail=1", "1/2", "2,3", "", "a b", "x=y", "[0: F={0} G={}] @ 2", "0110"]


def argparse_parse(argv):
    """vars of argparse's namespace with the CLI's defaults filled in, or
    "usage" where argparse or the CLI's missing-command checks reject argv."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args = build_parser().parse_args(argv)
    except SystemExit:
        return "usage"
    if args.command is None or getattr(args, "action", "") is None:
        return "usage"
    return {**GLOBAL_DEFAULTS, **vars(args)}


def our_parse(argv):
    try:
        return vars(_parse(argv))
    except CliError:
        return "usage"


def leaf_flags(command, action):
    return dict(_COMMANDS[command][action])


def draw_value(rng, options):
    if "choices" in options:
        return rng.choice(options["choices"])
    if options.get("type") is int:
        return str(rng.randint(-3, 40))  # "-1" and the like are values to both
    return rng.choice(VALUES)


# An argv is built from items: a str is a positional token, a (flag, value,
# joined) triple a flag with its value, written "--flag=value" when joined.

def render(items):
    argv = []
    for item in items:
        if isinstance(item, str):
            argv.append(item)
        else:
            flag, value, joined = item
            argv += [f"{flag}={value}"] if joined else [flag, value]
    return argv


def valid_items(rng, command, action):
    flags = leaf_flags(command, action)
    chosen = [flag for flag, options in flags.items()
              if options.get("required") or rng.random() < 0.5]
    rng.shuffle(chosen)
    after = [(flag, draw_value(rng, flags[flag]), rng.random() < 0.2) for flag in chosen]
    before = []
    for flag, options in _GLOBAL_FLAGS.items():
        if rng.random() < 0.4:
            side = before if rng.random() < 0.5 else after
            side.insert(rng.randint(0, len(side)), (flag, draw_value(rng, options),
                                                    rng.random() < 0.2))
    return [*before, command, *([action] if action else []), *after]


def flag_positions(items):
    return [i for i, item in enumerate(items) if not isinstance(item, str)]


def prefixes(flag, flags):
    """(unique, ambiguous) prefixes of flag among flags and --help, as
    argparse matches them."""
    names = [*flags, "--help"]
    unique, ambiguous = [], []
    for end in range(3, len(flag)):
        prefix = flag[:end]
        if prefix in names:
            continue
        hits = sum(name.startswith(prefix) for name in names)
        (unique if hits == 1 else ambiguous).append(prefix)
    return unique, ambiguous


def mutations(rng, items, command, action):
    """(name, mutated items, named difference, twin) for each mutation that
    applies to items; the twin of a named difference is the argv that
    argparse reads as _parse reads the mutated one, or the other way round."""
    flags = {**leaf_flags(command, action), **_GLOBAL_FLAGS}
    at = flag_positions(items)
    out = []

    def replaced(i, item):
        return [*items[:i], item, *items[i + 1:]]

    required = [i for i in at if flags[items[i][0]].get("required")]
    if required:
        i = rng.choice(required)
        out.append(("dropped-required", items[:i] + items[i + 1:], None, None))
    ints = [i for i in at if flags[items[i][0]].get("type") is int]
    if ints:
        i = rng.choice(ints)
        flag, _value, joined = items[i]
        out.append(("bad-int", replaced(i, (flag, rng.choice(["x", "1.5", "1e3"]), joined)),
                    None, None))
    choices = [i for i in at if "choices" in flags[items[i][0]]]
    if choices:
        i = rng.choice(choices)
        flag, _value, joined = items[i]
        out.append(("bad-choice", replaced(i, (flag, "nosuch", joined)), None, None))
    i = rng.randint(0, len(items))
    out.append(("unknown-flag", [*items[:i], ("--bogus", "3", rng.random() < 0.5),
                                 *items[i:]], None, None))
    if at:
        flag, _value, joined = items[rng.choice(at)]
        again = (flag, draw_value(rng, flags[flag]), not joined)
        out.append(("repeated-flag", [*items, again], None, None))
        i = rng.choice(at)
        flag, value, joined = items[i]
        # a flag before the command is matched against the global flags only
        unique, ambiguous = prefixes(flag, _GLOBAL_FLAGS if i < items.index(command) else flags)
        if unique:
            # argparse reads the prefix as the full flag
            out.append(("abbreviation", replaced(i, (rng.choice(unique), value, joined)),
                        "abbreviation", items))
        if ambiguous:
            out.append(("ambiguous-prefix", replaced(i, (rng.choice(ambiguous), value, joined)),
                        None, None))
        i = rng.choice(at)
        flag, _value, joined = items[i]
        dash = rng.choice(["-x", "-1/2", "--tau"])
        # _parse reads "--flag -x" as argparse reads "--flag=-x"
        out.append(("dash-value", replaced(i, (flag, dash, joined)),
                    None if joined else "dash-value", replaced(i, (flag, dash, True))))
    place = items.index(command)
    if action:
        rest = items[place + 2:]
        out.append(("action-last", [*items[:place + 1], *rest, action], None, None))
        out.append(("unknown-action", replaced(place + 1, "nosuch"), None, None))
        moved = flag_positions(rest)
        if moved:
            j = place + 2 + rng.choice(moved)
            out.append(("flag-before-action",
                        [*items[:place + 1], items[j], action,
                         *items[place + 2:j], *items[j + 1:]], None, None))
    else:
        stray = rng.choice([a for _c, a in LEAVES if a is not None])
        out.append(("stray-action", [*items[:place + 1], stray, *items[place + 1:]],
                    None, None))
    out.append(("unknown-command", replaced(place, "nosuch"), None, None))
    for token in ("--", "-1"):
        argv = render(items)
        i = rng.randint(0, len(argv))
        out.append((f"token {token}", [*argv[:i], token, *argv[i:]], None, None))
    return out


def corpus(seed=41, rounds=12):
    """(name, argv, named difference or None, twin argv or None) per case."""
    rng = random.Random(seed)
    cases = []
    for _ in range(rounds):
        for command, action in LEAVES:
            items = valid_items(rng, command, action)
            cases.append(("valid", render(items), None, None))
            for name, mutated, difference, twin in mutations(rng, items, command, action):
                cases.append((name, render(mutated), difference, twin and render(twin)))
    return cases


def test_parser_agrees_with_argparse_on_a_seeded_corpus():
    cases = corpus()
    seen = {name for name, *_ in cases}
    assert {"valid", "dropped-required", "bad-int", "bad-choice", "unknown-flag",
            "repeated-flag", "abbreviation", "ambiguous-prefix", "dash-value", "action-last",
            "unknown-action", "flag-before-action", "stray-action", "unknown-command",
            "token --", "token -1"} <= seen
    argvs = [argv for _name, argv, _difference, _twin in cases]
    # the corpus holds every placement of a global flag and the "=" form
    assert any(argv[0] in _GLOBAL_FLAGS for argv in argvs)
    assert any(argv[-2] in _GLOBAL_FLAGS for argv in argvs)
    assert any("=" in token and token.startswith("--") for argv in argvs for token in argv)
    agreed = 0
    for name, argv, difference, twin in cases:
        ours, theirs = our_parse(argv), argparse_parse(argv)
        if difference == "abbreviation":
            # argparse expands a unique prefix; _parse rejects it
            assert ours == "usage" and theirs == our_parse(twin), (name, argv)
        elif difference == "dash-value":
            # argparse takes "-x" for a flag, so the flag before it lacks its value
            assert theirs == "usage" and ours == argparse_parse(twin), (name, argv)
        else:
            assert ours == theirs, (name, argv)
            agreed += ours != "usage"
    assert agreed > 200  # not every case is a usage error


DECOMPOSE_DEFAULTS = {"command": "decompose", "kind": "classif_K", "m": 0, "n": 2, "element": 0,
                      "depth": 6, "samples": 200, "boxes": 20}
# The three ways the parsers differ on purpose: argv -> (argparse, _parse)
DIFFERENCES = {
    # argparse expands a unique prefix of a flag name; _parse rejects it
    ("uec", "bounds", "--lev", "12"): (
        {**GLOBAL_DEFAULTS, "command": "uec", "action": "bounds", "levels": 12}, "usage"),
    ("cb", "--ks", "1", "--bud=5"): (
        {**GLOBAL_DEFAULTS, "command": "cb", "ks": "1", "budget": 5}, "usage"),
    # argparse reads a token that starts with "-", unless it looks like a
    # negative number, as a flag; _parse takes it as the value
    ("classify", "--tau", "-x", "--tau2", "1"): (
        "usage", {**GLOBAL_DEFAULTS, "command": "classify", "tau": "-x", "tau2": "1",
                  "gamma": "uncountable"}),
    ("cb", "--ks", "--"): ("usage", {**GLOBAL_DEFAULTS, "command": "cb", "ks": "--"}),
    # and argparse before Python 3.13 drops "--" even after "=" (ks []), while
    # 3.13's keeps it (ks "--", as _parse reads it): a list holds both answers
    ("cb", "--ks=--"): ([{**GLOBAL_DEFAULTS, "command": "cb", "ks": []},
                         {**GLOBAL_DEFAULTS, "command": "cb", "ks": "--"}],
                        {**GLOBAL_DEFAULTS, "command": "cb", "ks": "--"}),
    # argparse's int() also reads "_" between digits, a "+", surrounding
    # whitespace and other scripts' digits; _parse refuses them
    ("cb", "--ks", "2", "--budget", "1_0"): (
        {**GLOBAL_DEFAULTS, "command": "cb", "ks": "2", "budget": 10}, "usage"),
    ("decompose", "--kind", "classif_K", "--boxes", "+1"): (
        {**GLOBAL_DEFAULTS, **DECOMPOSE_DEFAULTS, "boxes": 1}, "usage"),
    ("--seed", " 5", "cb", "--ks", "1"): (
        {**GLOBAL_DEFAULTS, "command": "cb", "ks": "1", "seed": 5}, "usage"),
    ("decompose", "--kind", "classif_K", "--depth", "\u0663"): (
        {**GLOBAL_DEFAULTS, **DECOMPOSE_DEFAULTS, "depth": 3}, "usage"),
}


def test_named_differences_from_argparse():
    for argv, (theirs, ours) in DIFFERENCES.items():
        assert argparse_parse(list(argv)) in (theirs if type(theirs) is list else [theirs]), argv
        assert our_parse(list(argv)) == ours, argv


def test_edge_cases_agree_with_argparse():
    cases = [
        ["uec", "preimage", "--target", "1/2", "--levels", "-1"],
        ["uec", "preimage", "--target", "1/2", "--levels", "4", "--limit", "-1"],
        ["--budget", "5", "cb", "--ks", "1", "--budget", "7"],
        ["--budget=5", "--seed=2", "cb", "--ks=1", "--out=x.json"],
        ["cb", "--ks", "1", "--"],
        ["cb", "--", "--ks", "1"],
        ["--", "cb", "--ks", "1"],
        ["avg", "--budget", "5", "build", "--k", "1", "--ground", "1"],
        ["avg", "build", "--k", "1", "--ground", "1", "--budget=5"],
        ["avg", "--bogus"],
        ["avg"],
        [],
        ["--seed", "3"],
        ["cb", "--ks"],
        ["cb", "-1"],
        ["-1"],
        ["decompose", "--kind", "classif_K", "--depth", "x", "--depth", "3"],
        ["classify", "--tau=", "--tau2", ""],
        ["classify", "--tau", "1", "--tau2", "2", "--gamma=countable"],
        ["ds", "witness", "--spec", "s.json", "--n", "1", "--k", "1", "--k", "2"],
    ]
    for argv in cases:
        assert our_parse(argv) == argparse_parse(argv), argv


def test_abbreviated_flags_are_rejected():
    code, payload = dispatch(["uec", "bounds", "--lev", "12"])
    assert code == 1 and payload["error"] == {
        "type": "usage", "message": "unrecognized arguments: --lev 12"}
    # and so is an abbreviated -h/--help
    assert dispatch(["cb", "--he"])[1]["error"]["type"] == "usage"


def test_a_value_may_start_with_a_dash():
    # argparse called these usage errors; now the library checks the value
    code, payload = dispatch(["uec", "preimage", "--target", "-1/2", "--levels", "4"])
    assert code == 1 and payload["error"]["type"] == "invalid-input"
    code, payload = dispatch(["classify", "--tau", "-x", "--tau2", "1"])
    assert code == 1 and payload["error"]["type"] == "invalid-input"
    # a flag name after a flag is its value too, so the request stays malformed
    code, payload = dispatch(["cb", "--ks", "--budget", "5"])
    assert code == 1 and payload["error"] == {
        "type": "usage", "message": "unrecognized arguments: 5"}
    # and -h there is a value, not a request for help
    code, payload = dispatch(["cb", "--ks", "-h"])
    assert code == 1 and payload["error"]["type"] == "usage"


def test_help_after_a_stray_token_still_answers():
    # argparse reports stray tokens only once the scan is over, so help wins
    for argv, path in ((["cb", "--bogus", "-h"], ["cb"]),
                       (["avg", "--bogus", "--help"], ["avg"]),
                       (["--bogus", "--help"], [])):
        code, payload = dispatch(argv)
        assert code == 0 and payload == dispatch([*path, "--help"])[1], argv


def test_argparse_stays_off_the_request_path():
    code = (
        "import sys\n"
        "from sigmaprod import cli\n"
        "requests = [\n"
        "    ['classify', '--tau', 'w,w', '--tau2', '5,w'],\n"
        "    ['cb', '--ks', '2,3'],\n"
        "    ['decompose', '--kind', 'classif_K', '--depth', '3', '--samples', '5'],\n"
        "    ['avg', 'check', '--k', '2', '--ground', '2'],\n"
        "    ['uec', 'bounds', '--levels', '4'],\n"
        "    ['ds', 'extract', '--family', '/nonexistent', '--petals', '2'],\n"
        "    ['clopen', 'empty', '--box', '[0: F={0} G={}] @ 2'],\n"
        "    ['cb', '--ks', '2', '--bogus'],\n"
        "]\n"
        "codes = [cli.dispatch(argv)[0] for argv in requests]\n"
        "assert codes == [0, 0, 0, 0, 0, 1, 0, 1], codes\n"
        "assert 'argparse' not in sys.modules\n"
        "text = cli.dispatch(['--help'])[1]['help']\n"
        "assert 'argparse' in sys.modules\n"
        "assert text == cli.build_parser().format_help()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
