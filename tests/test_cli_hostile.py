"""Hostile input over the command table, in the style of QuickCheck (Claessen
and Hughes, ICFP 2000) with a fixed seed: the golden requests with their
flags, as ``_COMMANDS`` lists them, set to tokens a user may mistype, and
their file flags given malformed files.  No request may answer "internal",
exit with a code other than 0, 1 or 2, or run past a wall cap.
"""

import random
import time

from sigmaprod import cli
from test_cli_contract import CASES

BUDGET = ["--budget", "100000"]
WALL_CAP_S = 2
TOKENS = ["9" * 30, "-" + "9" * 30, "-1", "", "w", "1/0", "1e3"]
FILE_FLAGS = ("--f", "--bits-file", "--points-file", "--family", "--spec")
BIG = "9" * 5000
FILES = [
    b"\xff\xfe[[0,1]]", b"1: {1}\n\xff2: {2}\n",
    "true", "[true, false]", "[[true, 0]]", "[[[[true]], 1]]", '[{"0": true}]',
    '{"side_g": {"1": [[true]]}, "side_h": {}}',
    f"[[{BIG}, 0]]", f'[{{"0": {BIG}}}]', f"[[[[{BIG}]], 1]]", f"1: {{{BIG}}}\n", f"{BIG}: {{1}}\n",
    "[[0.5, 1.5]]", "[[[[0.5]], 1]]", '[{"0": 0.5e1}]', '{"side_g": {"1": [[0.5]]}, "side_h": {}}',
    "[[[0, 1]]]", "[[0, [1]]]", "[[[0], 1]]", '[["0", "1/2"]]', '{"side_g": [[]], "side_h": []}',
    '{"side_g": {"1": [[[0]]]}, "side_h": {}}', "[{}]", "{}", "[]", "[[]]", "null", '"x"',
    '[{"0": "1/2", "00": "1/4"}]', '{"side_g": {"1": [[], []], "01": [[], []]}, "side_h": {}}',
    "1: {1}\n01: {2}\n", "1: {a}\n", "²: {1}\n", "x\n", "1: {1,1}\n", "[" * 100_000,
]


def leaf_flags(argv) -> list:
    """The flags ``_COMMANDS`` lists for the subcommand ``argv`` names, or []
    when it names none; the global --seed too, but not --budget or --out."""
    actions = cli._COMMANDS.get(argv[0] if argv else None, {})
    flags = actions.get(None) or actions.get(argv[1] if len(argv) > 1 else None) or []
    return [flag for flag, _options in flags] + ["--seed"] if flags else []


def with_value(argv, flag, value) -> list:
    if flag in argv:
        at = argv.index(flag) + 1
        return [*argv[:at], value, *argv[at + 1:]]
    return [*argv, flag, value]


def hostile_requests(tmp, rng):
    """``(argv, {file path: content})`` for each request: every flag of every
    golden request set to each token, every file flag given each file, then
    seeded requests that change two to four flags and the file at once."""
    cases = []
    for name, (argv, files) in CASES.items():
        argv = [arg.replace("{tmp}", str(tmp)) for arg in argv]
        if "--budget" in argv:  # every request runs under BUDGET
            at = argv.index("--budget")
            argv = argv[:at] + argv[at + 2:]
        files = {tmp / file_name: content for file_name, content in files.items()}
        cases.append((argv, files, leaf_flags(argv)))
    for argv, files, flags in cases:
        for flag in flags:
            for token in TOKENS:
                yield with_value(argv, flag, token), files
        for path in files:
            for content in FILES:
                yield argv, {path: content}
    leaves = [case for case in cases if case[2]]
    for _ in range(100):
        argv, files, flags = rng.choice(leaves)
        for flag in rng.sample(flags, min(len(flags), rng.randint(2, 4))):
            if flag not in FILE_FLAGS:
                argv = with_value(argv, flag, rng.choice(TOKENS + [str(rng.randint(-3, 40))]))
        yield argv, {path: rng.choice(FILES) for path in files}


def test_no_hostile_request_is_an_internal_error(tmp_path):
    failures = []
    seen = set()
    started = time.monotonic()
    for argv, files in hostile_requests(tmp_path, random.Random(17)):
        if (key := (tuple(argv), tuple(files.items()))) in seen:
            continue
        seen.add(key)
        for path, content in files.items():
            path.write_bytes(content if isinstance(content, bytes) else content.encode())
        begun = time.monotonic()
        code, payload = cli.dispatch(argv + BUDGET)
        seconds = time.monotonic() - begun
        error = payload.get("error", {})
        if error.get("type") == "internal" or code not in (0, 1, 2) or seconds > WALL_CAP_S:
            failures.append(f"{argv} files={files!r:.300}: exit {code} after {seconds:.2f} s, "
                            f"{error}")
    assert not failures, "\n".join(failures)
    assert time.monotonic() - started < 3
