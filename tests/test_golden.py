"""Golden output corpus: one SHA-256 digest of default JSON stdout per group.

Each group renders its invocations through the CLI's own handlers and
`json.dumps(payload, sort_keys=True, indent=2)`, exactly as `cli.main`
writes stdout, with the parser built once.  A failing test names the group
whose output changed.  A deliberate output change rewrites the digests with

    PYTHONPATH=src python tests/test_golden.py --write

and says in CHANGES.md which group changed and why.
"""

import hashlib
import json
import os
import sys
from fractions import Fraction

import pytest

from cyclecert import arith
from cyclecert.cli import build_parser

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


# group -> (argv parsed once, the attribute values of each invocation)
GROUPS = {
    "genus_x0": (["genus", "1", "--curve", "x0"], lambda: ({"N": n} for n in range(1, 3001))),
    "genus_xn": (["genus", "1", "--curve", "xn"], lambda: ({"N": n} for n in range(1, 3001))),
    "genus_x0star": (["genus", "2", "--curve", "x0star"], lambda: ({"N": p} for p in _primes(2000))),
    "heegner": (["heegner", "1", "-3"], _heegner_cases),
    "pullback": (["pullback", "1", "--m0", "1/4", "--r", "1"], _pullback_cases),
    "certify": (["certify", "1"], lambda: ({"N": n} for n in range(1, 2001))),
    "lattice": (["lattice", "1"], lambda: ({"N": n} for n in range(1, 1001))),
}


def group_digest(parser, name):
    argv, cases = GROUPS[name]
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    for case in cases():
        for key, value in case.items():
            setattr(args, key, value)
        payload, _ = args.func(args)
        digest.update((json.dumps(payload, sort_keys=True, indent=2) + "\n").encode())
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
