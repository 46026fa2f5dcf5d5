"""Command-line interface: every operation as a subcommand with JSON or text output.

Exit codes: 0 success (including a proven certificate), 1 computation error,
2 certificate verdict "unknown", 64 usage error.  JSON output is deterministic
(sorted keys, stable ordering) and validates against the shipped schema.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import heegner as heegner_mod
from . import modcurves
from . import newforms as newforms_mod
from . import pullback as pullback_mod
from .certify import VERDICT_PROVEN, certify as run_certify
from .lattices import full_matrix_lattice, trace_zero_lattice

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(EXIT_USAGE)


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError("not a rational number: %r" % text) from exc


def schema_text() -> str:
    with open(os.path.join(os.path.dirname(__file__), "schemas", "output.schema.json"), encoding="utf-8") as fh:
        return fh.read()


def _lattice_payload(lat) -> dict:
    return {
        "rank": lat.rank,
        "gram": [list(row) for row in lat.gram],
        "signature": list(lat.signature),
        "disc_group_order": lat.disc_group_order(),
        "elementary_divisors": list(lat.elementary_divisors()),
    }


def _profile_payload(profile) -> dict:
    return {name: getattr(profile, name) for name in profile._fields}


def _cmd_lattice(args) -> tuple[dict, int]:
    out = {
        "kind": "lattice",
        "level": args.N,
        "trace_zero": _lattice_payload(trace_zero_lattice(args.N)),
        "full": _lattice_payload(full_matrix_lattice(args.N)),
    }
    return out, EXIT_OK


def _heegner_block(idx: heegner_mod.HeegnerIndex) -> dict:
    div = heegner_mod.enumerate_heegner_divisor(idx)
    return {
        "r": idx.r,
        "self_paired": div.self_paired,
        "degree": str(div.degree),
        "class_representatives": [
            {"a": f.a, "b": f.b, "c": f.c, "weight": str(w)} for (f, w) in div.classes
        ],
    }


def _cmd_heegner(args) -> tuple[dict, int]:
    rs = heegner_mod.heegner_r_values(args.N, args.D)
    out = {"kind": "heegner", "level": args.N, "disc": args.D, "r_values": rs}
    out["divisors"] = [
        _heegner_block(heegner_mod.HeegnerIndex(level=args.N, disc=args.D, r=r))
        for r in ([args.r] if args.r is not None else rs)
    ]
    return out, EXIT_OK


def _cmd_pullback(args) -> tuple[dict, int]:
    decomp = pullback_mod.decompose_heegner(args.N, args.m0, args.r)
    residual = pullback_mod.verify_decomposition(decomp)
    out = {
        "kind": "pullback",
        "level": args.N,
        "m0": str(decomp.target[0]),
        "r1": decomp.target[1],
        "terms": [
            {
                "m": str(gen.m),
                "r1": gen.mu.r1,
                "r2": gen.mu.r2,
                "coeff": str(coeff),
            }
            for gen, coeff in decomp.terms
        ],
        "residual_cusp_ambiguous": decomp.residual_cusp_ambiguous,
        "round_trip_residual": [
            {"m0": str(m0), "r1": r1, "coeff": str(c)}
            for (m0, r1), c in sorted(residual.items())
        ],
        "round_trip_ok": not residual,
    }
    return out, EXIT_OK


def _cmd_genus(args) -> tuple[dict, int]:
    if args.curve == "x0":
        payload = _profile_payload(modcurves.x0_profile(args.N))
    elif args.curve == "xn":
        payload = _profile_payload(modcurves.cover_profile(args.N))
    else:
        payload = dict.fromkeys(modcurves.CurveProfile._fields)
        payload.update(label="x0star", level=args.N, genus=modcurves.fricke_quotient_genus(args.N))
    payload["kind"] = "genus"
    return payload, EXIT_OK


def _client_from_args(args) -> tuple[newforms_mod.NewformClient, str]:
    """The client and mode of `newforms` and `certify`: the one place that reads settings.

    --config first, then a nonempty CACHE_DIR, BASE_URL or TIMEOUT_MS over its key; only --online passes the
    online settings, so an offline client is built from the cache dir and --fixtures alone."""
    settings = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            settings = json.load(fh)
        if not isinstance(settings, dict):
            raise ValueError("config must be a JSON object")
    keys = ("cache_dir", "base_url", "timeout_ms", "rate_limit_per_sec") if args.online else ("cache_dir",)
    env = (("cache_dir", "CACHE_DIR", str), ("base_url", "BASE_URL", str), ("timeout_ms", "TIMEOUT_MS", int))
    settings.update((key, parse(os.environ[name])) for key, name, parse in env if key in keys and os.environ.get(name))
    kwargs = {key: settings[key] for key in keys if key in settings}
    return newforms_mod.NewformClient(fixtures_dir=args.fixtures, **kwargs), ("online" if args.online else "offline")


def _cmd_newforms(args) -> tuple[dict, int]:
    client, mode = _client_from_args(args)
    records = client.fetch_newforms(args.M, mode=mode)
    out = {
        "kind": "newforms",
        "level": args.M,
        "mode": mode,
        "records": [{name: getattr(r, name) for name in r._fields} for r in records],
    }
    return out, EXIT_OK


def _cmd_certify(args) -> tuple[dict, int]:
    client, mode = _client_from_args(args)
    cert = run_certify(args.N, newform_source=client, mode=mode)
    out = {
        "kind": "certificate",
        "level": cert.level,
        "verdict": cert.verdict,
        "clause": cert.clause,
        "witnesses": [dict(sorted(w.items())) for w in cert.witnesses],
        "curve_profile": (
            _profile_payload(cert.curve_profile) if cert.curve_profile else None
        ),
        "justification": cert.justification,
    }
    code = EXIT_OK if cert.verdict == VERDICT_PROVEN else EXIT_UNKNOWN
    return out, code


def _cmd_selftest(args) -> tuple[dict, int]:
    suites: dict[str, dict] = {}

    count = {"pass": 0, "fail": 0}
    for n in range(1, 201):
        lhs, rhs = heegner_mod.eichler_relation_sides(n)
        count["pass" if lhs == rhs else "fail"] += 1
    suites["class_number_relation"] = count

    count = {"pass": 0, "fail": 0}
    genus_one = {37, 43, 53, 61, 79, 83, 89, 101, 131}
    genus_two_plus = {67, 73, 97, 103, 107, 109, 113, 127}
    for p in sorted(genus_one | genus_two_plus):
        g = modcurves.fricke_quotient_genus(p)
        ok = (g == 1) if p in genus_one else (g >= 2)
        count["pass" if ok else "fail"] += 1
    count["pass" if modcurves.x0_profile(37).genus == 2 else "fail"] += 1
    prof = modcurves.cover_profile(1)
    ok = (prof.index, prof.cusps, prof.genus, prof.nu2, prof.nu3) == (6, 3, 0, 0, 0)
    count["pass" if ok else "fail"] += 1
    suites["genus_tables"] = count

    count = {"pass": 0, "fail": 0}
    for n in (1, 2, 3):
        for r1 in range(2 * n):
            for scaled in range(1, 61):
                if (scaled + r1 * r1) % (4 * n) != 0:
                    continue
                decomp = pullback_mod.decompose_heegner(n, Fraction(scaled, 4 * n), r1)
                residual = pullback_mod.verify_decomposition(decomp)
                count["pass" if not residual else "fail"] += 1
    suites["pullback_round_trip"] = count

    ok = all(c["fail"] == 0 for c in suites.values())
    return {"kind": "selftest", "suites": suites, "ok": ok}, (EXIT_OK if ok else EXIT_ERROR)


def build_parser() -> _Parser:
    # --format/--config are accepted both before and after the subcommand;
    # the subparser copies use SUPPRESS so they never clobber values parsed
    # ahead of the subcommand
    top = argparse.ArgumentParser(add_help=False)
    top.add_argument("--format", choices=("json", "text"), default="json")
    top.add_argument("--config", default=None, help="path to a JSON config file")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
    common.add_argument("--config", default=argparse.SUPPRESS, help="path to a JSON config file")
    # the newform source options of `newforms` and `certify`
    source = argparse.ArgumentParser(add_help=False, parents=[common])
    source.add_argument("--online", action="store_true")
    source.add_argument("--fixtures", default=None, help="override the bundled fixture directory")

    parser = _Parser(prog="cyclecert", parents=[top])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("lattice", parents=[common],
                       help="Gram matrices and discriminant groups at level N")
    p.add_argument("N", type=int)
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("heegner", parents=[common],
                       help="Heegner divisor classes and degree")
    p.add_argument("N", type=int)
    p.add_argument("D", type=int)
    p.add_argument("r", type=int, nargs="?", default=None)
    p.set_defaults(func=_cmd_heegner)

    p = sub.add_parser("pullback", parents=[common],
                       help="pullback decomposition of a Heegner divisor")
    p.add_argument("N", type=int)
    p.add_argument("--m0", type=_frac, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_pullback)

    p = sub.add_parser("genus", parents=[common], help="curve profile at level N")
    p.add_argument("N", type=int)
    p.add_argument("--curve", choices=("x0", "x0star", "xn"), default="x0")
    p.set_defaults(func=_cmd_genus)

    p = sub.add_parser("newforms", parents=[source], help="newform records for a level")
    p.add_argument("M", type=int)
    p.set_defaults(func=_cmd_newforms)

    p = sub.add_parser("certify", parents=[source],
                       help="nontriviality certificate for level N")
    p.add_argument("N", type=int)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("selftest", parents=[common],
                       help="run the built-in verification suites")
    p.set_defaults(func=_cmd_selftest)
    return parser


def _render_text(payload: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.append("%s%s:" % (pad, key))
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, list):
            lines.append("%s%s:" % (pad, key))
            for item in value:
                if isinstance(item, dict):
                    lines.append(_render_text(item, indent + 1))
                else:
                    lines.append("%s  - %s" % (pad, item))
        else:
            lines.append("%s%s: %s" % (pad, key, value))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        payload, code = args.func(args)
    # LevelBoundError and PayloadError are ValueErrors
    except (ValueError, OSError, newforms_mod.TransientFetchError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_ERROR
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(_render_text(payload) + "\n")
    return code


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
