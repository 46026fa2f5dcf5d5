"""Workload definitions: seeded passes of inputs, the timed operation, rendering and checks.

A run is a sequence of passes.  Each pass runs in a fresh interpreter, so no
library cache outlives it (per-level caches start cold, as for a user
sweeping levels), and no input repeats within a pass.  Every pass of a
workload has the same composition: the inputs whose cost varies most (the
smallest prime of a trial-division semiprime, the length of a long pullback
ladder, the reduced-form count of a discriminant, the level of a large genus
call) are drawn from fixed bands, so two seeds, or two passes, cost nearly
the same.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import refcheck

HERE = os.path.dirname(os.path.abspath(__file__))


def primes_upto(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if refcheck.is_prime(p)]


SMOOTH_PRIMES = primes_upto(71)


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    """A prime drawn from [lo, hi) by walking up from a uniform start."""
    while True:
        p = rng.randrange(lo, hi) | 1
        while p < hi and not refcheck.is_prime(p):
            p += 2
        if p < hi:
            return p


def band(lo: int, hi: int, i: int, bands: int) -> tuple[int, int]:
    width = (hi - lo) / bands
    return lo + int(width * (i % bands)), lo + int(width * (i % bands + 1))


def fraction_str(x) -> str:
    return str(Fraction(x))


class Workload:
    name = ""
    # busy seconds of one pass on the reference machine (a 2-vCPU Xeon VM,
    # CPython 3.11); with --seconds it fixes how many passes a run makes
    pass_seconds = 1.0
    # untraced runs of every pass; each operation reports its fastest run
    replicas = 2

    def pass_inputs(self, rng: random.Random) -> list[dict]:
        """The inputs of one pass, all distinct."""
        raise NotImplementedError

    def run(self, lib, inp):
        """The timed operation; returns what `render` turns into JSON."""
        raise NotImplementedError

    def render(self, result) -> object:
        return result

    def check(self, inp, out, ctx) -> list[str]:
        raise NotImplementedError


def distinct(inputs, key=lambda inp: json.dumps(inp, sort_keys=True)) -> list[dict]:
    """The inputs in order, without repeated keys."""
    seen = set()
    out = []
    for inp in inputs:
        k = key(inp)
        if k not in seen:
            seen.add(k)
            out.append(inp)
    return out


# -- certify-sweep -----------------------------------------------------------

def render_certificate(cert) -> dict:
    p = cert.curve_profile
    return {
        "level": cert.level,
        "verdict": cert.verdict,
        "clause": cert.clause,
        "witnesses": [dict(sorted(w.items())) for w in cert.witnesses],
        "curve_profile": None if p is None else {
            "label": p.label, "level": p.level, "index": p.index, "nu2": p.nu2,
            "nu3": p.nu3, "cusps": p.cusps, "genus": p.genus,
        },
        "justification": cert.justification,
    }


def factored(factors: dict[int, int]) -> dict:
    return {"n": refcheck.product(factors), "factors": sorted(factors.items())}


class CertifySweep(Workload):
    """certify(n), the paper's end product: factoring, per-call fixture reads in
    newforms and the cover profile; no Heegner enumeration, no pullback."""

    name = "certify-sweep"
    pass_seconds = 1.25
    replicas = 3
    SMALL = 120
    ROUNDS = 16
    RANDOM_PER_ROUND = 3

    def level_shapes(self, rng: random.Random, i: int):
        """The levels of round i besides the small ones, each with its factorization."""
        shapes = []
        for _ in range(self.RANDOM_PER_ROUND):
            shapes.append(("random", refcheck.trial_factor(rng.randrange(self.SMALL + 1, 10**9))))
        # both primes below 10**6: the smallest sets the trial-division cost
        lo, hi = band(73, 990000, i, 16)
        p = random_prime(rng, lo, hi)
        q = random_prime(rng, p + 1, 10**6)
        shapes.append(("semiprime-trial", {p: 1, q: 1}))
        p = random_prime(rng, 10**6, 10**7)
        q = random_prime(rng, 10**6, 10**7)
        shapes.append(("semiprime-large", {p: 1, q: 1} if p != q else {p: 2}))
        smooth = {}
        for p in rng.sample(SMOOTH_PRIMES, rng.randrange(4, 9)):
            smooth[p] = rng.randrange(1, 3)
        shapes.append(("smooth", smooth))
        shapes.append(("above-bound", self.above_bound(rng)))
        return shapes

    def above_bound(self, rng: random.Random) -> dict[int, int]:
        """A level above large_level_bound(): a prime, two primes above 10**11, or smooth times prime."""
        bound = refcheck.large_level_bound()
        kind = rng.randrange(3)
        if kind == 0:
            return {random_prime(rng, bound + 1, 2 * bound): 1}
        if kind == 1:
            p = random_prime(rng, 10**11, 10**12)
            return {p: 1, random_prime(rng, bound // p + 1, 2 * bound // p): 1}
        smooth = {p: 1 for p in rng.sample(SMOOTH_PRIMES, 5)}
        s = refcheck.product(smooth)
        smooth[random_prime(rng, bound // s + 1, 2 * bound // s)] = 1
        return smooth

    def pass_inputs(self, rng):
        shapes = [("small", refcheck.trial_factor(n)) for n in range(1, self.SMALL + 1)]
        for i in range(self.ROUNDS):
            shapes += self.level_shapes(rng, i)
        rng.shuffle(shapes)
        return distinct((dict(factored(factors), shape=shape) for shape, factors in shapes),
                        key=lambda inp: inp["n"])

    def run(self, lib, inp):
        return lib.certify(inp["n"])

    def render(self, cert):
        return render_certificate(cert)

    def check(self, inp, out, ctx):
        factors = {p: e for p, e in inp["factors"]}
        problems, unknown_provable = refcheck.check_certificate(out, factors, ctx.fixtures)
        ctx.unknown_provable += unknown_provable
        return problems


# -- heegner-enum ------------------------------------------------------------

class HeegnerEnum(Workload):
    """enumerate_heegner_divisor at a dozen levels up to 250: per-form transforms
    dominate at small N, cold coset representatives at N >= 180."""

    name = "heegner-enum"
    # fixed levels keep the cold coset-representative cost the same for every seed
    LEVELS = (1, 5, 11, 17, 23, 37, 47, 60, 89, 120, 180, 250)
    pass_seconds = 3.4
    replicas = 3
    MAX_ABS_DISC = 5000
    ROUNDS = 6

    def pairs(self, level: int) -> list[tuple[int, int]]:
        """All (D, r) with r in [0, 2N), D = r^2 mod 4N, -5000 <= D < 0, gcd(D, N) = 1."""
        out = []
        for r in range(2 * level):
            d = r * r - 4 * level * ((r * r) // (4 * level) + 1)
            while d >= -self.MAX_ABS_DISC:
                if gcd(d, level) == 1:
                    out.append((d, r))
                d -= 4 * level
        return out

    def pass_inputs(self, rng):
        # an operation costs about (reduced forms of |D|) x (cosets at N), so each
        # level's pairs are split into bands by reduced-form count and the pass
        # takes ROUNDS pairs per level, one from the middle of each band (ranked
        # by form count, then |D|, which sets the cost of reducing the forms):
        # the seed picks D, not the cost.  Rounds run from the cheapest band
        # up, so the first operation at a level, which pays for the coset
        # representatives, is always a cheap one.
        counts = refcheck.form_counts(self.MAX_ABS_DISC)
        rounds = []
        for n in self.LEVELS:
            ranked = sorted(self.pairs(n), key=lambda dr: (counts[-dr[0]], -dr[0], dr[1]))
            size = len(ranked) / self.ROUNDS
            picks = []
            for b in range(self.ROUNDS):
                lo, hi = int(b * size), int((b + 1) * size)
                mid = (lo + hi) // 2
                picks.append(rng.choice(ranked[max(lo, mid - 2):min(hi, mid + 3)]))
            rounds.append(picks)
        inputs = []
        for j in range(self.ROUNDS):
            batch = [{"level": n, "disc": picks[j][0], "r": picks[j][1]}
                     for n, picks in zip(self.LEVELS, rounds)]
            rng.shuffle(batch)
            inputs += batch
        return distinct(inputs)

    def run(self, lib, inp):
        return lib.enumerate_heegner_divisor(lib.HeegnerIndex(inp["level"], inp["disc"], inp["r"]))

    def render(self, div):
        return {
            "r": div.index.r,
            "degree": fraction_str(div.degree),
            "self_paired": div.self_paired,
            "classes": [[f.a, f.b, f.c, fraction_str(w)] for f, w in div.classes],
        }

    def check(self, inp, out, ctx):
        return check_heegner_block(inp["level"], inp["disc"], inp["r"], out, out["classes"])


def check_heegner_block(level, disc, r, out, classes) -> list[str]:
    problems = []
    expected = refcheck.hurwitz(-disc)
    if Fraction(out["degree"]) != expected:
        problems.append("degree %s != H(%d) = %s" % (out["degree"], -disc, expected))
    total = Fraction(0)
    for a, b, c, w in classes:
        total += Fraction(w)
        if a % level or (b - r) % (2 * level) or b * b - 4 * a * c != disc:
            problems.append("form [%d, %d, %d] is not a level-%d form of disc %d, r %d"
                            % (a, b, c, level, disc, r))
    if total != Fraction(out["degree"]):
        problems.append("class weights sum to %s, degree says %s" % (total, out["degree"]))
    if out["r"] != r % (2 * level) or out["self_paired"] != ((2 * r) % (2 * level) == 0):
        problems.append("index fields %s do not match r %d" % ((out["r"], out["self_paired"]), r))
    return problems


# -- pullback-ladder ---------------------------------------------------------

def ladder_key(rng: random.Random, level: int, lo: Fraction, hi: Fraction) -> tuple[Fraction, int]:
    """A random valid (m0, r1) at this level with lo <= m0 < hi."""
    r1 = rng.randrange(2 * level)
    four_n = 4 * level
    first = (-r1 * r1) % four_n or four_n  # smallest k > 0 with k = -r1^2 mod 4N
    k_lo = max(first, first + four_n * -(-(int(lo * four_n) - first) // four_n))
    k_hi = int(hi * four_n)
    steps = (k_hi - k_lo) // four_n
    k = k_lo + four_n * rng.randrange(max(steps, 1))
    return Fraction(k, four_n), r1


class PullbackLadder(Workload):
    """decompose + verify + chow over short and long ladders: the round trip is
    quadratic in the ladder length; heegner and modcurves without enumeration."""

    name = "pullback-ladder"
    pass_seconds = 1.3
    replicas = 4
    # one short ladder (m0 < 10) at every level, so each pass pays the same
    # cold cover-profile costs in chow_heegner_divisor
    SHORT_LEVELS = range(1, 31)
    # a long ladder at level N <= 3 has about m0/N rungs and costs about the
    # square of that in the round trip; each pass has one ladder per
    # (level, rungs) pair here, give or take 3 rungs, so the seed picks r1 and
    # m0 but not the cost.  With three passes the tail latency (ten samples
    # beyond it) is then the middle one of the nine 50-rung ladders.
    LONG_LADDERS = ((1, 240), (2, 160), (1, 50), (2, 50), (3, 50))

    def pass_inputs(self, rng):
        keys = [(n,) + ladder_key(rng, n, Fraction(0), Fraction(10)) for n in self.SHORT_LEVELS]
        for n, rungs in self.LONG_LADDERS:
            keys.append((n,) + ladder_key(rng, n, Fraction(rungs * n), Fraction((rungs + 4) * n)))
        rng.shuffle(keys)
        return distinct({"level": n, "m0": str(m0), "r1": r1} for n, m0, r1 in keys)

    def run(self, lib, inp):
        n = inp["level"]
        decomp = lib.decompose_heegner(n, Fraction(inp["m0"]), inp["r1"])
        residual = lib.verify_decomposition(decomp)
        chow = lib.chow_heegner_divisor(n, decomp)
        return decomp, residual, chow

    def render(self, result):
        decomp, residual, chow = result
        return {
            "terms": [[fraction_str(g.m), g.mu.r1, g.mu.r2, fraction_str(c)] for g, c in decomp.terms],
            "residual": [[fraction_str(m), r, fraction_str(c)] for (m, r), c in sorted(residual.items())],
            "chow": {
                "heeg": [[fraction_str(m), r, fraction_str(c)] for (m, r), c in sorted(chow.heeg_coeffs.items())],
                "omega": fraction_str(chow.omega_coeff),
                "cusp": fraction_str(chow.cusp_coeff),
                "cusp_ambiguous": chow.cusp_ambiguous,
            },
        }

    def check(self, inp, out, ctx):
        n, m0, r1 = inp["level"], Fraction(inp["m0"]), inp["r1"]
        problems = check_ladder(n, m0, r1, out["terms"])
        if out["residual"]:
            problems.append("round-trip residual %s" % out["residual"][:3])
        degree = 2 * refcheck.cover_degree(n) * refcheck.hurwitz(int(4 * n * m0))
        expected_chow = {"heeg": [[str(m0), r1 % (2 * n), "1"]], "omega": "0",
                         "cusp": fraction_str(-degree), "cusp_ambiguous": False}
        if out["chow"] != expected_chow:
            problems.append("chow divisor %s != %s" % (out["chow"], expected_chow))
        return problems


def check_ladder(level, m0, r1, terms) -> list[str]:
    expected = [list(t) for t in refcheck.expected_ladder(level, m0, r1)]
    got = [list(t) for t in terms]
    if not got or got[0] != [str(m0), r1 % (2 * level), 0, "1"]:
        return ["leading term %s is not Z*(m0, r1) with coefficient 1" % (got[:1],)]
    if got != expected:
        diff = next(i for i in range(min(len(got), len(expected)) + 1)
                    if i >= min(len(got), len(expected)) or got[i] != expected[i])
        return ["ladder differs from 1/theta(q^N) at term %d: %s vs %s"
                % (diff, got[diff:diff + 1], expected[diff:diff + 1])]
    return []


# -- cli-oneshot -------------------------------------------------------------

class CliOneshot(Workload):
    """One `python -m cyclecert.cli` process per call over all seven subcommands,
    with large-N genus calls: import cost, the cli layer and x0_profile at large N."""

    name = "cli-oneshot"
    pass_seconds = 3.4

    def pass_inputs(self, rng):
        fixture_levels = (1, 2, 11, 37, 43, 53, 61, 64, 89, 101, 128, 131)
        batch = [["selftest"], ["lattice", str(rng.randrange(1, 1000))]]
        n = rng.randrange(1, 31)
        d = -rng.randrange(3, 500)
        # a discriminant with at least one r, so that the call enumerates
        while gcd(d, n) != 1 or all((r * r - d) % (4 * n) for r in range(2 * n)):
            d -= 1
        batch.append(["heegner", str(n), str(d)])
        n = rng.randrange(1, 11)
        m0, r1 = ladder_key(rng, n, Fraction(0), Fraction(20))
        batch.append(["pullback", str(n), "--m0", str(m0), "--r", str(r1)])
        # x0_profile is linear in N: one call from each half of [10**6, 10**7)
        for i in range(2):
            lo, hi = band(10**6, 10**7, i, 2)
            batch.append(["genus", str(rng.randrange(lo, hi)), "--curve", "x0"])
        batch.append(["genus", str(random_prime(rng, 1000, 10**5)), "--curve", "x0star"])
        batch.append(["genus", str(rng.randrange(1, 61)), "--curve", "xn"])
        batch.append(["newforms", str(rng.choice(fixture_levels))])
        batch.append(["certify", str(rng.randrange(1, 200))])
        batch.append(["certify", str(rng.randrange(200, 10**9))])
        rng.shuffle(batch)
        return distinct({"argv": argv} for argv in batch)

    def run(self, lib, inp):
        """`lib` here is the process runner; the op is one whole CLI process."""
        return lib(inp["argv"])

    def check(self, inp, out, ctx):
        argv = inp["argv"]
        cmd = argv[0]
        try:
            payload = json.loads(out["stdout"])
        except ValueError:
            return ["%s: stdout is not JSON (exit %d): %r" % (argv, out["code"], out["stdout"][:200])]
        expected_code = 0
        problems = []
        if cmd == "certify":
            n = int(argv[1])
            problems, unknown_provable = refcheck.check_certificate(payload, refcheck.trial_factor(n), ctx.fixtures)
            ctx.unknown_provable += unknown_provable
            expected_code = 0 if payload.get("verdict") == "proven_nontrivial" else 2
        elif cmd == "lattice":
            n = int(argv[1])
            problems = (refcheck.check_lattice(payload["trace_zero"], 3, 2 * n, (1, 2))
                        + refcheck.check_lattice(payload["full"], 4, (2 * n) ** 2, (2, 2)))
        elif cmd == "heegner":
            n, d = int(argv[1]), int(argv[2])
            rs = [r for r in range(2 * n) if (r * r - d) % (4 * n) == 0]
            if payload["r_values"] != rs:
                problems.append("r values %s != %s" % (payload["r_values"], rs))
            for block in payload["divisors"]:
                classes = [[c["a"], c["b"], c["c"], c["weight"]] for c in block["class_representatives"]]
                problems += check_heegner_block(n, d, block["r"], block, classes)
        elif cmd == "pullback":
            n, m0, r1 = int(argv[1]), Fraction(argv[3]), int(argv[5])
            terms = [[t["m"], t["r1"], t["r2"], t["coeff"]] for t in payload["terms"]]
            problems = check_ladder(n, m0, r1, terms)
            if payload["round_trip_residual"] or payload["round_trip_ok"] is not True:
                problems.append("round trip not exact")
        elif cmd == "genus":
            n, curve = int(argv[1]), argv[3]
            got = {k: v for k, v in payload.items() if k != "kind"}
            if curve == "x0":
                expected = refcheck.x0_profile(n)
            elif curve == "xn":
                expected = refcheck.cover_profile(n)
            else:
                expected = {"label": "x0star", "level": n, "index": None, "nu2": None,
                            "nu3": None, "cusps": None, "genus": refcheck.fricke_genus(n)}
            if got != expected:
                problems.append("genus payload %s != %s" % (got, expected))
        elif cmd == "newforms":
            m = int(argv[1])
            expected = [dict(r, source="fixture") for r in
                        sorted(ctx.fixtures.records.get(m, []), key=lambda r: r["label"])]
            if payload["records"] != expected:
                problems.append("records %s != fixture %s" % (payload["records"], expected))
        elif cmd == "selftest":
            if payload.get("ok") is not True or any(s["fail"] for s in payload["suites"].values()):
                problems.append("selftest reports failures: %s" % payload)
        if out["code"] != expected_code:
            problems.append("%s exited %d, expected %d" % (argv, out["code"], expected_code))
        return problems


def run_cli_process(src: str, env: dict, trace_summary: str | None = None):
    """Runner for cli-oneshot: one child interpreter per call, waited for before returning."""
    def run(argv):
        if trace_summary is None:
            cmd = [sys.executable, "-m", "cyclecert.cli"] + argv
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), trace_summary] + argv
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=120, check=False)
        return {"code": proc.returncode, "stdout": proc.stdout.decode("utf-8", "replace"),
                "stderr": proc.stderr.decode("utf-8", "replace")}
    return run


WORKLOADS = {w.name: w for w in (CertifySweep(), HeegnerEnum(), PullbackLadder(), CliOneshot())}


def pass_inputs(name: str, seed: int, index: int) -> list[dict]:
    """Inputs of pass `index` of a run; the same (name, seed, index) always gives the same inputs."""
    return WORKLOADS[name].pass_inputs(random.Random("%s:%d:%d" % (name, seed, index)))
