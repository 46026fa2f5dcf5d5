"""Tests of the benchmark's own code: input generation, statistics, span arithmetic, references.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m unittest discover -s bench -p 'test_*.py'

Only the last test class imports cyclecert; the rest is pure benchmark code.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
import textwrap
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import refcheck  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class InputsTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first = workloads.pass_inputs(name, 7, 1)
                self.assertEqual(first, workloads.pass_inputs(name, 7, 1))
                self.assertNotEqual(first, workloads.pass_inputs(name, 8, 1))
                self.assertNotEqual(first, workloads.pass_inputs(name, 7, 2))

    def test_no_input_repeats_within_a_pass(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                inputs = workloads.pass_inputs(name, 3, 0)
                keys = [json.dumps(i, sort_keys=True) for i in inputs]
                self.assertEqual(len(keys), len(set(keys)))

    def test_certify_levels_carry_their_factorization(self):
        for inp in workloads.pass_inputs("certify-sweep", 5, 0):
            factors = dict(inp["factors"])
            self.assertEqual(refcheck.product(factors), inp["n"])
            self.assertTrue(all(refcheck.is_prime(p) for p in factors))
        shapes = {inp["shape"] for inp in workloads.pass_inputs("certify-sweep", 5, 0)}
        self.assertIn("semiprime-large", shapes)

    def test_heegner_inputs_are_coprime_indices(self):
        for inp in workloads.pass_inputs("heegner-enum", 2, 0):
            n, d, r = inp["level"], inp["disc"], inp["r"]
            self.assertEqual((r * r - d) % (4 * n), 0)
            self.assertTrue(-workloads.HeegnerEnum.MAX_ABS_DISC <= d < 0)
            self.assertEqual(math.gcd(d, n), 1)

    def test_pass_count_is_fixed_by_seconds(self):
        wl = workloads.WORKLOADS["certify-sweep"]
        self.assertEqual(run.pass_count(wl, 2 * 3 * wl.pass_seconds, 3), 2)
        self.assertEqual(run.pass_count(wl, 0.01, 3), 1)


class StatisticsTest(unittest.TestCase):
    def test_tail_has_ten_samples_beyond_it(self):
        value, pct, samples = run.tail_latency([float(x) for x in range(100, 0, -1)])
        self.assertEqual((value, pct, samples), (90.0, 90.0, 100))
        value, pct, samples = run.tail_latency([float(x) for x in range(1, 41)])
        self.assertEqual((value, pct, samples), (30.0, 75.0, 40))
        self.assertEqual(sum(1 for x in range(1, 41) if x > value), 10)

    def test_tail_below_eleven_samples_is_the_maximum(self):
        self.assertEqual(run.tail_latency([3.0, 1.0, 2.0]), (3.0, 100.0, 3))

    def test_speed_factor_is_the_median_loop_time_over_the_reference(self):
        ref = calib.REFERENCE_S
        self.assertEqual(calib.speed_factor([3 * ref, ref, 2 * ref]), 2.0)
        self.assertGreater(calib.loop_time(), 0.0)
        # a pass that slowed down halfway: the first five samples at 1x, the rest at 2x
        samples = [[0.1 * i, ref if i < 5 else 2 * ref] for i in range(12)]
        self.assertEqual(calib.local_factor(samples, 0.15), 1.0)
        self.assertEqual(calib.local_factor(samples, 0.95), 2.0)

    def test_spread_slots(self):
        self.assertEqual(run.spread_slots(2, 8), {2, 6})
        self.assertEqual(run.spread_slots(9, 4), {0, 1, 2, 3})

    def test_output_digest_is_canonical(self):
        ops = [{"input": {"b": 1, "a": 2}, "output": {"y": "1/2", "x": [1]}}]
        same = [{"input": {"a": 2, "b": 1}, "output": {"x": [1], "y": "1/2"}}]
        other = [{"input": {"a": 2, "b": 1}, "output": {"x": [1], "y": "1/3"}}]
        self.assertEqual(run.output_digest(ops), run.output_digest(same))
        self.assertNotEqual(run.output_digest(ops), run.output_digest(other))


class SpansTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        # root [0, 10] with children [1, 4] and [5, 9]; the second has a child [6, 7]
        start = [0.0, 1.0, 5.0, 6.0]
        end = [10.0, 4.0, 9.0, 7.0]
        parent = [-1, 0, 0, 2]
        selfs = spans.self_times(start, end, parent)
        self.assertEqual(selfs, [3.0, 3.0, 3.0, 1.0])
        self.assertEqual(sum(selfs), 10.0)

    def test_summary_attributes_self_time_to_layers(self):
        ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 10.0])
        tracer = spans.Tracer(clock=lambda: next(ticks))
        root = tracer.begin(tracer.intern(spans.ROOT))
        outer = tracer.begin(tracer.intern("certify.certify"))
        inner = tracer.begin(tracer.intern("newforms.fetch_newforms"))
        tracer.finish(inner)
        tracer.finish(outer)
        tracer.finish(root)
        summary = spans.summarize(tracer, None)
        self.assertEqual(summary["self_s"], {"bench": 5.0, "certify": 2.0, "newforms": 3.0})
        self.assertEqual(summary["calls"]["certify.certify"], 1)

    def test_errors_count_once_at_the_innermost_layer(self):
        tracer = spans.Tracer()
        exc = ValueError("x")
        outer = tracer.begin(tracer.intern("certify.certify"))
        inner = tracer.begin(tracer.intern("modcurves.cover_profile"))
        tracer.finish(inner, exc)
        tracer.finish(outer, exc)
        self.assertEqual(tracer.errors, {"ValueError@modcurves": 1})

    def test_missing_sources_report_none(self):
        summary = dict(spans.EMPTY_SUMMARY, layers=["heegner"], traced=[],
                       counters={"pullback.divisor_classes_built": None})
        metrics = spans.layer_metrics(summary)
        self.assertEqual(metrics["heegner.self_s"], 0.0)
        for key in ("pullback.self_s", "pullback.decompose_s", "pullback.divisor_classes_built",
                    "heegner.enumerate_p50_ms", "heegner.hurwitz_hit_ratio", "newforms.fetches",
                    "modcurves.level_bound_errors", "certify.factorization_incomplete"):
            self.assertIsNone(metrics[key], key)

    def test_merge_keeps_none(self):
        a = dict(spans.EMPTY_SUMMARY, counters={"x": 2, "y": 1}, cache={"f": [1, 2]})
        b = dict(spans.EMPTY_SUMMARY, counters={"x": None, "y": 3}, cache={"f": None})
        merged = spans.merge(a, b)
        self.assertEqual(merged["counters"], {"x": None, "y": 4})
        self.assertEqual(merged["cache"], {"f": None})

    def test_install_tolerates_a_refactored_package(self):
        # a package where DivisorClass, decompose_heegner and every lru_cache are gone
        sources = {
            "__init__.py": "from .heegner import hurwitz_class_number\n",
            "heegner.py": "def hurwitz_class_number(n):\n    return n\n",
            "pullback.py": "from .heegner import hurwitz_class_number\n"
                           "def verify_decomposition(d):\n    return hurwitz_class_number(d)\n",
        }
        with tempfile.TemporaryDirectory() as tmp:
            pkg = os.path.join(tmp, "refactoredcc")
            os.mkdir(pkg)
            for name, text in sources.items():
                with open(os.path.join(pkg, name), "w", encoding="utf-8") as fh:
                    fh.write(textwrap.dedent(text))
            sys.path.insert(0, tmp)
            try:
                tracer = spans.Tracer()
                inst = spans.install(tracer, "refactoredcc")
                import refactoredcc.pullback as pb
                self.assertEqual(pb.verify_decomposition(4), 4)
                metrics = spans.layer_metrics(spans.summarize(tracer, inst))
            finally:
                sys.path.remove(tmp)
                for mod in [m for m in sys.modules if m.startswith("refactoredcc")]:
                    del sys.modules[mod]
        self.assertIsNone(metrics["pullback.divisor_classes_built"])
        self.assertIsNone(metrics["pullback.decompose_s"])
        self.assertIsNone(metrics["heegner.hurwitz_hit_ratio"])
        self.assertIsNone(metrics["certify.self_s"])
        self.assertGreater(metrics["pullback.verify_s"], 0.0)
        self.assertEqual(metrics["repcount.calls"], None)


class ReferenceTest(unittest.TestCase):
    def test_hurwitz_class_numbers(self):
        # H(3) = 1/3, H(4) = 1/2, H(12) = h(-12) + H(3) = 4/3, H(23) = h(-23) = 3
        cases = {3: Fraction(1, 3), 4: Fraction(1, 2), 12: Fraction(4, 3), 23: Fraction(3), 5: Fraction(0)}
        for n, h in cases.items():
            self.assertEqual(refcheck.hurwitz(n), h, n)
        self.assertEqual(refcheck.class_number(23), 3)
        self.assertEqual(refcheck.class_number(12), 1)
        counts = refcheck.form_counts(30)
        self.assertEqual([counts[n] for n in (3, 4, 12, 23)], [1, 1, 2, 3])

    def test_inverse_theta(self):
        # 1/(1 + 2q + 2q^4 + ...) = 1 - 2q + 4q^2 - 8q^3 + 14q^4 - 24q^5 + ...
        self.assertEqual(refcheck.inverse_theta(1, 6), [1, -2, 4, -8, 14, -24])
        self.assertEqual(refcheck.inverse_theta(2, 5), [1, 0, -2, 0, 4])

    def test_ladder_at_level_one(self):
        # Heeg(2, 0) = Z*(2) - 2 Z*(1) + 2 Z*(0, 0): the Omega parts of the
        # two rungs at squares (m = 1) cancel against Z*(0, 0)
        terms = refcheck.expected_ladder(1, Fraction(2), 0)
        self.assertEqual(terms, [("2", 0, 0, "1"), ("1", 0, 0, "-2"), ("0", 0, 0, "2")])
        self.assertEqual(workloads.check_ladder(1, Fraction(2), 0, [list(t) for t in terms]), [])
        wrong = [["2", 0, 0, "1"], ["1", 0, 0, "-1"], ["0", 0, 0, "2"]]
        self.assertTrue(workloads.check_ladder(1, Fraction(2), 0, wrong))

    def test_curve_profiles(self):
        x0_11 = refcheck.x0_profile(11)
        self.assertEqual((x0_11["index"], x0_11["cusps"], x0_11["genus"]), (12, 2, 1))
        self.assertEqual(refcheck.x0_profile(37)["genus"], 2)
        self.assertEqual(refcheck.fricke_genus(37), 1)
        self.assertEqual(refcheck.fricke_genus(11), 0)
        # level 1: the cover group is conjugate to Gamma_0(4)
        cover = refcheck.cover_profile(1)
        self.assertEqual((cover["index"], cover["cusps"], cover["genus"]), (6, 3, 0))

    def test_lattice_signature(self):
        self.assertEqual(refcheck.signature_and_det([[2, 1], [1, 2]]), ((2, 0), 3))
        self.assertEqual(refcheck.signature_and_det([[0, 1], [1, 0]]), ((1, 1), -1))

    def test_certificate_checks(self):
        fixtures = refcheck.Fixtures(os.path.join(HERE, os.pardir, "src", "cyclecert", "fixtures"))
        a1 = {"level": 37, "verdict": "proven_nontrivial", "clause": "A1_prime",
              "witnesses": [{"clause": "A1_prime", "prime": 37}]}
        analytic = fixtures.witness(37)
        if analytic is not None:
            a1["witnesses"].append(analytic)
        a1["curve_profile"] = refcheck.cover_profile(37)
        a1_factors = {37: 1}
        self.assertEqual(refcheck.check_certificate(a1, a1_factors, fixtures), ([], False))
        forged = dict(a1, witnesses=[{"clause": "A1_prime", "prime": 43}] + a1["witnesses"][1:])
        self.assertTrue(refcheck.check_certificate(forged, a1_factors, fixtures)[0])
        gap = {"level": 1000003 * 1000033, "verdict": "unknown", "clause": "none",
               "witnesses": [], "curve_profile": None}
        self.assertEqual(refcheck.check_certificate(gap, {1000003: 1, 1000033: 1}, fixtures), ([], True))
        missing_profile = dict(a1, curve_profile=None)
        self.assertTrue(refcheck.check_certificate(missing_profile, a1_factors, fixtures)[0])


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_names_what_run_reports(self):
        with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER_UNITS)


class LibraryAgreementTest(unittest.TestCase):
    """The references agree with the library on a few hand-checked cases."""

    @classmethod
    def setUpClass(cls):
        try:
            import cyclecert
        except ImportError as exc:  # pragma: no cover - depends on PYTHONPATH
            raise unittest.SkipTest("cyclecert not importable: %s" % exc)
        cls.lib = cyclecert

    def test_ladder_matches_decomposition(self):
        lib = self.lib
        for n, m0, r1 in ((1, Fraction(2), 0), (2, Fraction(7, 8), 1), (5, Fraction(19, 20), 1)):
            decomp = lib.decompose_heegner(n, m0, r1)
            render = workloads.WORKLOADS["pullback-ladder"].render
            chow = lib.chow_heegner_divisor(n, decomp)
            out = render((decomp, lib.verify_decomposition(decomp), chow))
            inp = {"level": n, "m0": str(m0), "r1": r1}
            self.assertEqual(workloads.WORKLOADS["pullback-ladder"].check(inp, out, None), [])

    def test_cover_profile_matches_reference(self):
        for n in (1, 2, 3, 6, 12, 30, 60):
            p = self.lib.cover_profile(n)
            got = {k: getattr(p, k) for k in ("label", "level", "index", "nu2", "nu3", "cusps", "genus")}
            self.assertEqual(got, refcheck.cover_profile(n), n)

    def test_heegner_degree_matches_reference(self):
        lib = self.lib
        wl = workloads.WORKLOADS["heegner-enum"]
        for n, d in ((11, -7), (5, -31), (1, -23), (6, -95)):
            r = next(r for r in range(2 * n) if (r * r - d) % (4 * n) == 0)
            out = wl.render(wl.run(lib, {"level": n, "disc": d, "r": r}))
            self.assertEqual(wl.check({"level": n, "disc": d, "r": r}, out, None), [])


if __name__ == "__main__":
    unittest.main()
