"""Golden output corpus: one SHA-256 digest of default JSON stdout per group.

Each group renders its invocations through the CLI's own handlers and
`json.dumps(payload, sort_keys=True, indent=2)`, exactly as `cli.main`
writes stdout, with the parser built once.  The `errors` group runs
`cli.main` itself on invocations that fail, and digests each one's argv,
exit code and stderr.  A failing test names the group whose output
changed.  A deliberate output change rewrites the digests with

    PYTHONPATH=src python tests/test_golden.py --write

and says in CHANGES.md which group changed and why.
"""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from cyclecert import arith
from cyclecert.cli import build_parser, main

DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "golden_digests.json")


def _primes(limit):
    return [p for p in range(2, limit + 1) if arith.is_prime(p)]


def _pullback_cases():
    # every valid (N, 4N*m0, r1) with N <= 10 and 4N*m0 <= 200
    for n in range(1, 11):
        four_n = 4 * n
        for scaled in range(1, 201):
            for r1 in range(2 * n):
                if (scaled + r1 * r1) % four_n == 0:
                    yield {"N": n, "m0": Fraction(scaled, four_n), "r": r1}


def _heegner_cases():
    # every r for N <= 300 at six discriminants (weight-1/3 and weight-1/2
    # classes, and D sharing a prime with N), then two large levels
    for n in range(1, 301):
        for d in (-3, -4, -7, -23, -84, -311):
            yield {"N": n, "D": d, "r": None}
    yield {"N": 9998, "D": -7, "r": None}
    yield {"N": 30030, "D": -1559, "r": 599}


# computation errors, each refused with one "error:" line: the level rule,
# the prime-level curve, the discriminant and r checks, the pullback target
# and levels above the factoring bound (argparse's own usage errors are left
# out, since their wording differs between Python versions)
ERROR_ARGVS = (
    ["genus", "0"],
    ["certify", "0"],
    ["lattice", "0"],
    ["newforms", "0"],
    ["pullback", "0", "--m0", "1", "--r", "0"],
    ["genus", "6", "--curve", "x0star"],
    ["heegner", "7", "-5"],
    ["heegner", "1", "0"],
    ["heegner", "5", "-4", "3"],
    ["pullback", "1", "--m0", "1/3", "--r", "0"],
    ["pullback", "1", "--m0", "0", "--r", "0"],
    ["genus", "1000000000027999999999571"],
    ["heegner", "1000000000027999999999571", "-3"],
)


# the settings that could point an offline newform read elsewhere than the bundled snapshot
_NEWFORM_SETTINGS = ("BASE_URL", "CACHE_DIR", "TIMEOUT_MS")


def _handler_outputs(argv, cases):
    """Default JSON stdout of each case, from `argv` parsed once with the case's attributes set."""

    def outputs(parser):
        args = parser.parse_args(argv)
        for case in cases():
            for key, value in case.items():
                setattr(args, key, value)
            payload, _ = args.func(args)
            yield json.dumps(payload, sort_keys=True, indent=2) + "\n"

    return outputs


def _error_outputs(parser):
    """Argv, exit code and stderr of each error invocation, run through `cli.main`."""
    for argv in ERROR_ARGVS:
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
        err = stderr.getvalue()
        assert (code, stdout.getvalue()) == (1, "") and err.startswith("error: ") and err.count("\n") == 1, argv
        yield json.dumps({"argv": argv, "exit": code, "stderr": err}, sort_keys=True) + "\n"


def _offline_newforms(parser):
    """`newforms M` offline for every M <= 400, with `_NEWFORM_SETTINGS` unset.

    That is every level of the bundled snapshot, the largest 343, and the
    levels around them that it does not cover, which print no records.
    """
    saved = {name: os.environ.pop(name) for name in _NEWFORM_SETTINGS if name in os.environ}
    try:
        yield from _handler_outputs(["newforms", "1"], lambda: ({"M": m} for m in range(1, 401)))(parser)
    finally:
        os.environ.update(saved)


# group -> the text of its invocations, given the parser built once
GROUPS = {
    "genus_x0": _handler_outputs(["genus", "1", "--curve", "x0"], lambda: ({"N": n} for n in range(1, 3001))),
    "genus_xn": _handler_outputs(["genus", "1", "--curve", "xn"], lambda: ({"N": n} for n in range(1, 3001))),
    "genus_x0star": _handler_outputs(["genus", "2", "--curve", "x0star"], lambda: ({"N": p} for p in _primes(2000))),
    "heegner": _handler_outputs(["heegner", "1", "-3"], _heegner_cases),
    "pullback": _handler_outputs(["pullback", "1", "--m0", "1/4", "--r", "1"], _pullback_cases),
    "certify": _handler_outputs(["certify", "1"], lambda: ({"N": n} for n in range(1, 2001))),
    "lattice": _handler_outputs(["lattice", "1"], lambda: ({"N": n} for n in range(1, 1001))),
    "errors": _error_outputs,
    "newforms": _offline_newforms,
    "selftest": _handler_outputs(["selftest"], lambda: ({},)),
}


def group_digest(parser, name):
    digest = hashlib.sha256()
    for text in GROUPS[name](parser):
        digest.update(text.encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def parser():
    return build_parser()


@pytest.fixture(scope="module")
def golden():
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_groups_are_pinned(golden):
    assert sorted(golden) == sorted(GROUPS)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_golden_group(parser, golden, name):
    assert group_digest(parser, name) == golden[name], "output of group %r changed" % name


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    shared = build_parser()
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump({name: group_digest(shared, name) for name in sorted(GROUPS)}, fh, indent=2, sort_keys=True)
        fh.write("\n")
