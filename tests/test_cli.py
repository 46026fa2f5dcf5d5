import argparse
import json
import os
import subprocess
import sys
import time

import jsonschema
import pytest

from cyclecert.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    build_parser,
    main,
    schema_text,
)

SCHEMA = json.loads(schema_text())
# the schema is checked once, in test_schema_is_valid, not on every payload
VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)


def test_schema_is_valid():
    type(VALIDATOR).check_schema(SCHEMA)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    payload = json.loads(out)
    VALIDATOR.validate(payload)
    return code, payload


def test_certify_proven(capsys):
    code, payload = run_json(capsys, "certify", "74")
    assert code == EXIT_OK
    assert payload["kind"] == "certificate"
    assert payload["clause"] == "A1_prime"
    assert payload["verdict"] == "proven_nontrivial"


def test_certify_unknown_exit_code(capsys):
    code, payload = run_json(capsys, "certify", "1")
    assert code == EXIT_UNKNOWN
    assert payload["verdict"] == "unknown"


def test_genus_x0(capsys):
    code, payload = run_json(capsys, "genus", "37", "--curve", "x0")
    assert code == EXIT_OK
    assert payload["genus"] == 2


def test_genus_x0star_and_xn(capsys):
    code, payload = run_json(capsys, "genus", "37", "--curve", "x0star")
    assert code == EXIT_OK
    assert payload["genus"] == 1 and payload["index"] is None
    code, payload = run_json(capsys, "genus", "1", "--curve", "xn")
    assert payload["index"] == 6 and payload["cusps"] == 3 and payload["genus"] == 0
    code, payload = run_json(capsys, "genus", "97", "--curve", "xn")
    assert code == EXIT_OK
    assert payload == {"kind": "genus", "label": "xn", "level": 97, "index": 28224,
                       "nu2": 0, "nu3": 0, "cusps": 288, "genus": 2209}


def test_heegner_degree(capsys):
    code, payload = run_json(capsys, "heegner", "1", "-3", "1")
    assert code == EXIT_OK
    assert payload["divisors"][0]["degree"] == "1/3"


def test_heegner_at_a_level_with_two_large_primes_is_fast(capsys):
    # N = 2 * 4999 * 10007: the r values come from three prime powers, not from 2N residues
    start = time.perf_counter()
    code, payload = run_json(capsys, "heegner", "100049986", "-7")
    elapsed = time.perf_counter() - start
    assert code == EXIT_OK
    rs = payload["r_values"]
    assert rs == [12698983, 35154491, 64895495, 87351003, 112748969, 135204477, 164945481, 187400989]
    assert all((r * r + 7) % (4 * 100049986) == 0 for r in rs)
    assert [d["r"] for d in payload["divisors"]] == rs
    assert elapsed < 1.0


def test_heegner_all_r(capsys):
    code, payload = run_json(capsys, "heegner", "5", "-4")
    assert code == EXIT_OK
    assert payload["r_values"] == [4, 6]
    assert len(payload["divisors"]) == 2


def test_pullback_round_trip(capsys):
    code, payload = run_json(capsys, "pullback", "1", "--m0", "1", "--r", "0")
    assert code == EXIT_OK
    assert payload["round_trip_ok"] is True
    assert payload["round_trip_residual"] == []
    assert {t["coeff"] for t in payload["terms"]} == {"1", "-1"}


def test_lattice(capsys):
    code, payload = run_json(capsys, "lattice", "3")
    assert code == EXIT_OK
    assert payload["trace_zero"]["disc_group_order"] == 6
    assert payload["full"]["disc_group_order"] == 36


def test_newforms(capsys):
    code, payload = run_json(capsys, "newforms", "37")
    assert code == EXIT_OK
    assert any(r["analytic_rank"] == 1 for r in payload["records"])


def test_selftest(capsys):
    code, payload = run_json(capsys, "selftest")
    assert code == EXIT_OK
    assert payload["ok"] is True
    assert all(suite["fail"] == 0 for suite in payload["suites"].values())


def test_deterministic_output(capsys):
    _, first = run(capsys, "certify", "128")
    _, second = run(capsys, "certify", "128")
    assert first == second
    _, third = run(capsys, "heegner", "2", "-23", "1")
    _, fourth = run(capsys, "heegner", "2", "-23", "1")
    assert third == fourth


def test_usage_error_exit_code(capsys):
    assert main(["bogus"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    assert main(["pullback", "1", "--m0", "x", "--r", "0"]) == EXIT_USAGE


def test_computation_error_exit_code(tmp_path, capsys):
    # congruence-violating pullback input parses but fails validation
    assert main(["pullback", "1", "--m0", "1/2", "--r", "0"]) == EXIT_ERROR
    assert main(["lattice", "0"]) == EXIT_ERROR
    capsys.readouterr()
    # a LevelBoundError: two 13-digit primes, a product above the factoring bound
    assert main(["genus", "1000000000100000000002379"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: level 1000000000100000000002379 has a composite factor")
    # a PayloadError: a malformed fixture
    (tmp_path / "level_37.json").write_text('{"records": [{"label": "37.2.a.a"}]}', encoding="utf-8")
    assert main(["newforms", "37", "--fixtures", str(tmp_path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: record 0 malformed")


def test_text_format(capsys):
    code, out = run(capsys, "--format", "text", "genus", "37", "--curve", "x0")
    assert code == EXIT_OK
    assert "genus: 2" in out


def test_format_flag_after_subcommand(capsys):
    code, out = run(capsys, "genus", "37", "--curve", "x0", "--format", "text")
    assert code == EXIT_OK
    assert "genus: 2" in out
    code, out = run(capsys, "genus", "37")
    assert code == EXIT_OK
    assert out.lstrip().startswith("{")


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cache_dir": str(tmp_path)}), encoding="utf-8")
    code, payload = run_json(capsys, "--config", str(cfg), "newforms", "37")
    assert code == EXIT_OK


@pytest.mark.parametrize(
    "cfg,argv",
    [
        ({"rate_limit_per_sec": 0}, ["newforms", "37", "--online"]),
        ({"timeout_ms": "abc", "base_url": "http://localhost:9/"}, ["newforms", "37", "--online"]),
        (["cache_dir"], ["newforms", "37"]),
        ({"cache_dir": 5}, ["certify", "74"]),
    ],
)
def test_malformed_config_is_one_error_line(tmp_path, capsys, cfg, argv):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code = main(["--config", str(path), *argv])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def _cli_process(*argv, **settings):
    # a process of its own, whose environment holds exactly the newform settings given
    import cyclecert

    src = os.path.dirname(os.path.dirname(cyclecert.__file__))
    env = {k: v for k, v in os.environ.items() if k not in ("BASE_URL", "CACHE_DIR", "TIMEOUT_MS")}
    env.update(settings, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "cyclecert.cli", *argv], env=env, capture_output=True, text=True)


def test_a_malformed_online_setting_fails_only_an_online_call():
    malformed = {"TIMEOUT_MS": "soon", "BASE_URL": "ftp://nowhere.invalid"}
    for argv in (["certify", "128"], ["newforms", "37"]):
        plain, offline = _cli_process(*argv), _cli_process(*argv, **malformed)
        assert plain.returncode == EXIT_OK and plain.stdout
        assert (offline.returncode, offline.stdout, offline.stderr) == (EXIT_OK, plain.stdout, "")
    # with no BASE_URL a fetch could not start, and TIMEOUT_MS is refused before any
    online = _cli_process("certify", "128", "--online", TIMEOUT_MS="soon")
    assert (online.returncode, online.stdout) == (EXIT_ERROR, "")
    assert online.stderr.startswith("error: ") and online.stderr.count("\n") == 1


def test_every_fixture_level_serves_valid_json(capsys):
    from cyclecert.newforms import fixture_levels

    for level in sorted(fixture_levels()):
        code, payload = run_json(capsys, "newforms", str(level))
        assert code == EXIT_OK


@pytest.mark.parametrize(
    "name,content",
    [
        ("level_1.json", '{"records": [{"label": "1.2.a.a", "analytic_rank": 1}]}'),
        ("level_1.json", "{not json"),
        ("level_abc.json", '{"records": []}'),
    ],
)
def test_certify_survives_malformed_fixture_override(tmp_path, capsys, name, content):
    (tmp_path / name).write_text(content, encoding="utf-8")
    code, payload = run_json(capsys, "certify", "74", "--fixtures", str(tmp_path))
    assert code == EXIT_OK
    assert payload["clause"] == "A1_prime"
    code, payload = run_json(capsys, "certify", "35", "--fixtures", str(tmp_path))
    assert code == EXIT_UNKNOWN
    malformed = name == "level_1.json"
    assert ("analytic clause not evaluated" in payload["justification"]) == malformed


@pytest.mark.parametrize("where", ["fixtures", "cache"])
def test_certify_survives_a_directory_in_place_of_a_newform_file(tmp_path, capsys, monkeypatch, where):
    argv = ["certify", "74"]
    if where == "fixtures":
        (tmp_path / "level_1.json").mkdir()
        argv += ["--fixtures", str(tmp_path)]
    else:
        (tmp_path / "newforms" / "level_1.json").mkdir(parents=True)
        monkeypatch.setenv("CACHE_DIR", str(tmp_path))
    code, payload = run_json(capsys, *argv)
    assert code == EXIT_OK
    assert payload["clause"] == "A1_prime"
    assert payload["verdict"] == "proven_nontrivial"


# each exported name and its user: a subcommand, `certify`, `selftest`, an acceptance criterion, a README
# section or a bench layer.  A new export adds a row; a name whose last user goes leaves with its row.
PUBLIC_USERS = {
    "AmbientGenerator": ("subcommand", "pullback"),
    "BQForm": ("subcommand", "heegner"),
    "Certificate": ("subcommand", "certify"),
    "CongruenceError": ("subcommand", "pullback"),
    "CurveProfile": ("subcommand", "genus"),
    "DiscElement": ("subcommand", "pullback"),
    "DivisorClass": ("bench layer", "pullback"),
    "GramLattice": ("subcommand", "lattice"),
    "HeegnerDivisor": ("subcommand", "heegner"),
    "HeegnerIndex": ("subcommand", "heegner"),
    "LevelBoundError": ("subcommand", "genus"),
    "NewformClient": ("subcommand", "newforms"),
    "NewformRecord": ("subcommand", "newforms"),
    "PayloadError": ("subcommand", "newforms"),
    "PullbackDecomposition": ("acceptance criterion", 4),
    "TransientFetchError": ("subcommand", "newforms"),
    "WitnessIndeterminate": ("certify",),
    "certify": ("subcommand", "certify"),
    "chow_heegner_divisor": ("bench layer", "pullback"),
    "class_number": ("subcommand", "genus"),
    "cover_degree_over_x0": ("bench layer", "modcurves"),
    "cover_profile": ("subcommand", "genus"),
    "decompose_heegner": ("subcommand", "pullback"),
    "eichler_relation_sides": ("selftest",),
    "enumerate_heegner_divisor": ("subcommand", "heegner"),
    "fricke_quotient_genus": ("subcommand", "genus"),
    "full_matrix_lattice": ("subcommand", "lattice"),
    "heegner_r_values": ("subcommand", "heegner"),
    "hurwitz_class_number": ("acceptance criterion", 5),
    "large_level_bound": ("certify",),
    "minus_newspace_dim": ("acceptance criterion", 1),
    "pullback_divisor": ("README section", "Library example"),
    "scalar_rep_count": ("bench layer", "repcount"),
    "special_divisor_index": ("subcommand", "pullback"),
    "trace_zero_lattice": ("subcommand", "lattice"),
    "verify_decomposition": ("subcommand", "pullback"),
    "witness_minus_rank1": ("certify",),
    "x0_profile": ("subcommand", "genus"),
}


def test_public_surface_is_pinned():
    import cyclecert

    assert sorted(PUBLIC_USERS) == sorted(cyclecert.__all__) and len(PUBLIC_USERS) == 38
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sections = {}
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                heading = line.lstrip("#").strip()
                sections[heading] = ""
            else:
                sections[heading] += line
    with open(os.path.join(root, "tests", "test_acceptance.py"), encoding="utf-8") as fh:
        acceptance = fh.read()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        layers = {metric["name"].split(".")[0] for metric in json.load(fh)["per_layer"]}
    for name, user in PUBLIC_USERS.items():
        kind = user[0]
        if kind == "subcommand":
            assert user[1] in subparsers.choices, name
        elif kind == "acceptance criterion":
            assert "def test_criterion_%d_" % user[1] in acceptance, name
        elif kind == "README section":
            assert name in sections[user[1]], name
        elif kind == "bench layer":
            assert user[1] in layers, name
        else:
            assert user in (("certify",), ("selftest",)), name
    assert len(set(cyclecert.__all__)) == len(cyclecert.__all__)
    for name in cyclecert.__all__:
        assert getattr(cyclecert, name) is not None, name
