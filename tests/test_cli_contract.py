"""The command line contract under seeded random argument lists, run in process through cli.main:
every run exits 0 or 2 (1 only from verify and bounds), an exit 2 outside argparse's usage
errors writes one line to stderr, and nothing ends in a traceback."""

import contextlib
import io
import random

from snchar.cli import main

HUGE = "1" + "0" * 30
# numbers in every spelling the parsers meet: small, negative, zero, huge, Unicode digits, junk
NUMBERS = ["-7", "0", "1", "3", "5", "8", HUGE, "٣", "５", "3.5", "x", ""]
COUNTS = NUMBERS + ["15", "23", "30"]  # --n also reaches min-degree (15..) and tail (23..)
PARTITIONS = ["3,2", "2^2,1", "4,4", "3,1^2", "5", "1", "2,1", "6,3,1", "", "3,,2", "a", "3,-1", "2^0", "2^",
              "^2", "1,2", "0", "٣,٢", "２^2,1", HUGE, f"2^{HUGE}"]
SHAPES = ["2^2 1^1", "5^1", "3^1 1^2", "1^5", "2^3", "3^2", "4^2", "2^2,1^1", "x", "", "5^-1", "0^3", "５^1",
          f"{HUGE}^1", f"2^{HUGE}"]
# partitions and classes of one size, so that some queries get past the size check
PAIRS = [("3,2", "2^2 1^1"), ("3,2", "5^1"), ("3,1^2", "5^1"), ("4,4", "2^4"), ("2^2,1", "3^1 1^2"),
         ("6,3,1", "5^2"), ("3,3", "3^2"), ("5", "1^5"), ("4,2,1", "7^1")]
BITS = ["-7", "7", "8", "64", "4096", "65536", "65537", "100000000"]
CHECKS = ["fomin-lulov", "estimate", "robbins", "tail", "min-degree", "sweep-fomin-lulov", "sweep-estimate",
          "sweep-robbins", "sweep-tail", "nope"]
QUERY = {"--lambda": PARTITIONS, "--n": COUNTS, "--shape": SHAPES, "--group": ["sn", "an", "x"],
         "--variant": ["restricted", "plus", "minus", "x"], "--format": ["text", "json", "csv"]}
VERBS = {
    "char": QUERY,
    "degree": {k: QUERY[k] for k in ("--lambda", "--n", "--format")},
    "table": {"--n": NUMBERS, "--format": ["text", "json", "csv", "x"]},
    "spectrum": QUERY,
    "minpoly": QUERY,
    "fixdim": {k: QUERY[k] for k in ("--lambda", "--n", "--shape", "--format")},
    "bounds": {"--check": CHECKS, "--lambda": PARTITIONS, "--shape": SHAPES, "--n": COUNTS, "--max-n": NUMBERS,
               "--precision-bits": BITS, "--format": ["text", "json", "x"]},
    "verify": {"--max-n": NUMBERS, "--min-n": NUMBERS, "--threads": ["1", "0", "-2", "x"],
               "--format": ["text", "json"]},
}


def _argv(rng: random.Random) -> list[str]:
    verb = rng.choice(list(VERBS) + ["nope"])
    argv = [verb]
    if verb == "verify":
        argv.append(rng.choice(["minpoly-sn", "minpoly-an", "eigenvalue-one", "nope"]))
    options = {}
    for option, values in VERBS.get(verb, {}).items():
        if rng.random() < 0.8:
            options[option] = rng.choice(values)
    if "--shape" in VERBS.get(verb, {}) and rng.random() < 0.5:
        options["--lambda"], options["--shape"] = rng.choice(PAIRS)
    if rng.random() < 0.05:
        options["--bogus"] = "1"
    # a check at more than 4 096 bits runs only where it is refused: min-degree takes no precision
    if int(options.get("--precision-bits", "0")) in range(4097, 65537):
        options["--check"] = "min-degree"
    # sweeps stop at --max-n 8; a huge one is refused by its cap in MAX_SWEEP_N
    for option, value in options.items():
        argv += [option, value]
    return argv


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors exit 2, --help 0
            code = exc.code
    return code, err.getvalue()


def test_random_argv_keep_the_exit_code_contract():
    rng = random.Random(20191114)
    seen = set()
    for _ in range(600):
        argv = _argv(rng)
        code, err = _run(argv)  # a traceback is an exception out of main, and fails the test here
        seen.add((argv[0], code))
        assert code in (0, 2) or (code == 1 and argv[0] in ("verify", "bounds")), (argv, code, err)
        if code == 2 and not err.startswith("usage:"):
            assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
    # the lists reach past the parsers: every verb answers some of them, and refuses some
    assert {verb for verb, code in seen if code == 0} == set(VERBS)
    assert {verb for verb, code in seen if code == 2} == set(VERBS) | {"nope"}


def test_unicode_digits_are_read_as_digits():
    # int() and the parsers' \d take any Unicode decimal digit, as README says
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["degree", "--lambda", "٣,٢"]) == 0
    assert out.getvalue() == "5\n"
