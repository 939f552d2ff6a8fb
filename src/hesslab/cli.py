"""Command surface: analyze one Hessenberg function, sweep-verify the
theorem-level invariants over all functions of a given size, or run the
Kahler-package checks on the moment-graph model.

Reports are canonical JSON (sorted keys, compact separators, trailing
newline) so a fixed seed and version produce identical bytes; CSV and a
human table mode render the same data.  Exit codes: 0 success, 1 any other
hesslab error, 2 usage error, 3 any theorem violation.

The commands test no theorem themselves, and analyze and verify run the
same per-function checks (_checks): the support criterion, whose convention
lives in springer.support_check, palindromic regular Betti rows, unimodal
content and isotypic rows, the boundary Betti numbers of an indecomposable
h, and the Morse cross-check; analyze reaches n up to 12, verify up to 9.
Only analyze reads the cache, and it holds one kind of entry, the
multiplicity table ("dotchar"), keyed without the seed.  A table read from
the cache passes the checks of a computed one before analyze reads it;
every kahler verdict is computed in the run that reports it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
import time
from functools import cache

from . import __version__
from .dotchar import (  # regular_betti stays importable from here: hessbench's analyze trace wraps cli.regular_betti
    dot_action_multiplicities,
    multiplicities_from_json,
    multiplicities_json,
    regular_betti,
)
from .errors import ConsistencyError, HesslabError, TheoremViolation
from .gkm import DEFAULT_SEED, GRAPH_MAX_N, _pairing, build_gkm, kahler_report, morse_betti
from .hessenberg import MAX_FUNCTIONS_N, enumerate_hessenberg, hessenberg_str, is_indecomposable, parse_hessenberg
from .linalg import det_exact
from .partitions import MAX_ENUMERATION_N, Partition, partition_str, partitions_of, young_subgroup_content
from .springer import generic_jordan_type, support_check

CACHE_ENV = "HESSLAB_CACHE"


def canonical_json(obj) -> str:
    """Sorted keys, compact separators, trailing newline; tuples become
    lists.  Every value must be JSON already: a rational is written as its
    string where a report records it, and anything else (a Fraction, a set)
    raises TypeError.  Dict keys must be strings: json would sort other keys
    by value, not by their strings."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _jstr(J) -> str:
    return ",".join(str(j) for j in sorted(J))


def _parse_h(text: str):
    try:
        return parse_hessenberg(text)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_J(text: str):
    text = text.strip()
    if not text:
        return ()
    try:
        J = tuple(sorted(set(int(p) for p in text.split(","))))
    except ValueError:
        raise argparse.ArgumentTypeError(f"J must be comma-separated integers, got {text!r}")
    if any(j < 1 for j in J):
        raise argparse.ArgumentTypeError(f"J entries must be >= 1, got {text!r}")
    return J


def _parse_lambda(text: str):
    try:
        lam = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"lambda must be comma-separated integers, got {text!r}")
    return lam


def all_parabolic_subsets(n: int):
    """All subsets of the simple reflections 1..n-1, shortlex order."""
    out = [()]
    for size in range(1, n):
        out.extend(itertools.combinations(range(1, n), size))
    return out


# --- cache -----------------------------------------------------------------

def _cache_path(cache_dir: str, key: dict) -> str:
    digest = hashlib.sha256(canonical_json(key).encode()).hexdigest()
    return os.path.join(cache_dir, f"{digest}.json")


def cache_fetch(cache_dir: str | None, key: dict):
    if not cache_dir:
        return None
    try:
        with open(_cache_path(cache_dir, key), encoding="utf-8") as fh:
            stored = json.load(fh)
    except (OSError, ValueError):
        return None  # absent, unreadable or corrupt: a miss that cache_store overwrites
    if not isinstance(stored, dict) or stored.get("key") != json.loads(canonical_json(key)):
        return None
    return stored.get("payload")


def cache_store(cache_dir: str | None, key: dict, payload) -> None:
    if not cache_dir:
        return
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(canonical_json({"key": key, "payload": payload}))
        os.replace(tmp, _cache_path(cache_dir, key))
    except BaseException:
        os.unlink(tmp)
        raise


def _key(module: str, h) -> dict:
    return {"module": module, "n": len(h), "h": hessenberg_str(h), "version": __version__}


# --- analyze ----------------------------------------------------------------

def _is_palindromic(row: tuple[int, ...]) -> bool:
    return row == row[::-1]


def _palindromic_violations(h, named, rows: dict) -> list[dict]:
    """A violation entry for each J in named, pairs (_jstr(J), mu(J)) in
    order, whose content's Betti row in rows (mu -> row) is not palindromic.
    Each content is checked once, and entries are made only for the J of a
    content that failed."""
    failed = {mu for mu, row in rows.items() if not _is_palindromic(row)}
    return [
        {"type": "palindromic", "h": hessenberg_str(h), "J": name, "betti": list(rows[mu])}
        for name, mu in named
        if mu in failed
    ]


def _is_unimodal(row) -> bool:
    """True when row rises weakly to a maximum and then falls weakly."""
    k, end = 1, len(row)
    while k < end and row[k - 1] <= row[k]:
        k += 1
    while k < end and row[k - 1] >= row[k]:
        k += 1
    return k == end


def _unimodal_violations(h, gm) -> list[dict]:
    """A violation entry for each Betti row of a content (gm.betti_rows, mu
    -> row) and then each isotypic row (gm.table, lam -> row) that is not
    unimodal.  Hard Lefschetz on the semisimple variety commutes with the
    dot action, so every isotypic row is unimodal, and by the paper's Kahler
    package so is every invariant row."""
    failed = [("content", mu, "betti", row) for mu, row in gm.betti_rows.items() if not _is_unimodal(row)]
    failed += [("lambda", lam, "mult", row) for lam, row in gm.table.items() if not _is_unimodal(row)]
    return [
        {"type": "unimodal", "h": hessenberg_str(h), label: partition_str(lam), field: list(row)}
        for label, lam, field, row in failed
    ]


@cache
def _named_subsets(n: int) -> tuple[tuple[str, Partition], ...]:
    """(_jstr(J), mu(J)) for every J of all_parabolic_subsets(n), in its order."""
    return tuple((_jstr(J), young_subgroup_content(J, n)) for J in all_parabolic_subsets(n))


def _morse_check(h, seed: int, character: list[int]) -> tuple[list[int] | None, list[dict]]:
    """Morse Betti numbers of the moment graph of h, and a violation entry
    unless they equal the character-side Betti numbers; (None, []) where the
    moment graph does not exist (n outside 2..GRAPH_MAX_N)."""
    if not 2 <= len(h) <= GRAPH_MAX_N:
        return None, []
    morse = morse_betti(build_gkm(h, seed=seed))
    if morse == character:
        return morse, []
    return morse, [{"type": "gkm-betti", "h": hessenberg_str(h), "morse": morse, "character": character}]


def _checks(h, gm, named, *, seed: int, control: bool = False):
    """The per-function checks on the multiplicity table gm of h, shared by
    analyze and verify: (lambda_H, allowed, morse, violations).

    violations lists, in this order, a witness for each irreducible that
    appears but fails the support criterion (springer.support_check; control
    drops its conjugation), each J of named (pairs (_jstr(J), mu(J))) whose
    regular Betti row is not palindromic, each content and isotypic row that
    is not unimodal, the Betti numbers of an indecomposable h that do not
    start and end with 1, and a Morse count that disagrees with the
    character.  morse is None where the moment graph does not exist.
    """
    lam_H = generic_jordan_type(h)
    allowed, witnesses = support_check(gm, lam_H, drop_conjugate=control)
    violations = [
        {
            "type": "support",
            "h": hessenberg_str(h),
            "lambda": partition_str(w["lam"]),
            "tested": partition_str(w["tested"]),
            "lambda_H": partition_str(lam_H),
            "total_multiplicity": w["total_multiplicity"],
        }
        for w in witnesses
    ]
    violations += _palindromic_violations(h, named, gm.betti_rows)
    violations += _unimodal_violations(h, gm)
    character = gm.betti()
    if is_indecomposable(h) and (character[0] != 1 or character[-1] != 1):
        violations.append({"type": "boundary", "h": hessenberg_str(h), "betti": character})
    morse, disagreements = _morse_check(h, seed, character)
    return lam_H, allowed, morse, violations + disagreements


def analyze_report(h, *, seed: int, J=None, cache_dir=None) -> dict:
    """Assemble the full analysis of one Hessenberg function.

    The table is read from the cache or computed, and every check of _checks
    runs on it, with the palindromic check over the J reported (all J, or
    the one given); a correct convention leaves the violations list empty.
    The "gkm" section is there exactly where the moment graph exists.
    """
    n = len(h)
    # the multiplicities do not depend on the seed, so it is not part of their key
    key = _key("dotchar", h)
    doc = cache_fetch(cache_dir, key)
    if doc is None:
        gm = dot_action_multiplicities(h)
        cache_store(cache_dir, key, multiplicities_json(gm))
    else:
        gm = multiplicities_from_json(doc)  # checked like a computed table
        if gm.h != tuple(h):
            raise ConsistencyError(f"cached multiplicity table is for h={hessenberg_str(gm.h)}, not {hessenberg_str(h)}")
    named = _named_subsets(n) if J is None else ((_jstr(J), young_subgroup_content(J, n)),)
    lam_H, allowed, morse, violations = _checks(h, gm, named, seed=seed)
    rows = gm.betti_rows
    report = {
        "command": "analyze",
        "version": __version__,
        "seed": seed,
        "n": n,
        "h": hessenberg_str(h),
        "l": gm.l,
        "betti": gm.betti(),
        "mult": {partition_str(lam): list(row) for lam, row in gm.table.items()},
        "lambda_H": partition_str(lam_H),
        "allowed": [partition_str(lam) for lam in allowed],
        "regular": {name: {"betti": list(rows[mu]), "palindromic": _is_palindromic(rows[mu])} for name, mu in named},
        "violations": violations,
    }
    if morse is not None:
        report["gkm"] = {"morse_betti": morse, "agrees": morse == report["betti"]}
    return report


# --- verify -----------------------------------------------------------------

def _verify_one(h, *, seed: int, control: bool) -> dict:
    """The checks of _checks on one function, over every J, and whether the
    moment graph cross-checked it."""
    gm = dot_action_multiplicities(h)
    _, _, morse, violations = _checks(h, gm, _named_subsets(len(h)), seed=seed, control=control)
    return {"h": hessenberg_str(h), "violations": violations, "gkm_checked": morse is not None}


def verify_report(n: int, *, seed: int, indecomposable_only: bool = False, control: bool = False) -> dict:
    functions = enumerate_hessenberg(n, indecomposable_only)
    # in enumerate_hessenberg's lex order; _verify_one is read from the module
    # on each call, since hessbench's paced verify patches it there
    results = [_verify_one(h, seed=seed, control=control) for h in functions]
    violations = [v for res in results for v in res["violations"]]
    report = {
        "command": "verify",
        "version": __version__,
        "seed": seed,
        "n": n,
        "indecomposable_only": indecomposable_only,
        "functions": len(functions),
        "gkm_checked": sum(1 for res in results if res["gkm_checked"]),
        "violations": violations,
        "convention_control": control,
    }
    if control:
        report["control_expected_violation_found"] = any(
            v["type"] == "support" for v in violations
        )
    return report


# --- kahler -----------------------------------------------------------------

def kahler_payload(g, J=(), lam=None) -> dict:
    """kahler_report on g, with the determinant of each nondegenerate pairing
    for the audit trail, read off the memoized integer pairing and written
    as its string."""
    payload = kahler_report(g, J, lam)  # a new dict on every call
    J = tuple(payload["J"])
    for k_str, entry in payload["poincare"].items():
        if entry["nondegenerate"]:
            rows, den, _ = _pairing(g, int(k_str), J)
            entry["det"] = str(det_exact(rows, den))
    return payload


def kahler_cli_report(h, J, lam, *, seed: int) -> dict:
    report = kahler_payload(build_gkm(h, seed=seed), J, lam)
    report.update(
        {
            "command": "kahler",
            "version": __version__,
            "seed": seed,
            "n": len(h),
            "h": hessenberg_str(h),
            "J": _jstr(J),
            "lambda": ",".join(str(x) for x in report["lambda"]),
        }
    )
    return report


# --- rendering ---------------------------------------------------------------

def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return canonical_json(report)
    if fmt == "csv":
        return _render_csv(report)
    return _render_table(report)


def _render_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cmd = report["command"]
    if cmd == "analyze":
        writer.writerow(["row"] + [f"q{k}" for k in range(report["l"] + 1)])
        writer.writerow(["betti"] + report["betti"])
        for key in map(partition_str, partitions_of(report["n"])):
            writer.writerow([key] + report["mult"][key])
        for J, entry in sorted(report["regular"].items()):
            writer.writerow([f"J={J}"] + entry["betti"])
    elif cmd == "verify":
        writer.writerow(["n", "functions", "violations", "gkm_checked"])
        writer.writerow(
            [report["n"], report["functions"], len(report["violations"]), report["gkm_checked"]]
        )
        for v in report["violations"]:
            writer.writerow([v["type"], v.get("h", ""), json.dumps(v, sort_keys=True)])
    else:
        writer.writerow(["degree", "pairing_rank", "pairing_size", "hl_rank", "hl_dim", "hr_definite"])
        for k_str in sorted(report["poincare"], key=int):
            pairing = report["poincare"][k_str]
            hl = report["hard_lefschetz"].get(k_str, {})
            hr = report["hodge_riemann"].get(k_str, {})
            writer.writerow(
                [
                    k_str,
                    pairing.get("rank"),
                    pairing.get("size"),
                    hl.get("rank"),
                    hl.get("dim"),
                    hr.get("definite", ""),
                ]
            )
        writer.writerow(["verdicts", json.dumps(report["verdicts"], sort_keys=True)])
    return buf.getvalue()


def _render_table(report: dict) -> str:
    lines = []
    cmd = report["command"]
    if cmd == "analyze":
        lines.append(f"h = {report['h']}   n = {report['n']}   l = {report['l']}")
        lines.append(f"lambda_H = {report['lambda_H']}")
        lines.append(f"betti    = {report['betti']}")
        lines.append("multiplicities:")
        width = max(map(len, report["mult"]))
        for key in map(partition_str, partitions_of(report["n"])):
            lines.append(f"  {key:>{width}}  {report['mult'][key]}")
        lines.append("regular Betti by J:")
        for J, entry in sorted(report["regular"].items()):
            tag = "palindromic" if entry["palindromic"] else "NOT PALINDROMIC"
            lines.append(f"  J=({J})  {entry['betti']}  {tag}")
        if "gkm" in report:
            lines.append(f"gkm morse betti = {report['gkm']['morse_betti']}  agrees = {report['gkm']['agrees']}")
        lines.append(f"violations: {len(report['violations'])}")
    elif cmd == "verify":
        lines.append(
            f"n = {report['n']}   functions = {report['functions']}   "
            f"violations = {len(report['violations'])}   gkm checked = {report['gkm_checked']}"
        )
        for v in report["violations"]:
            lines.append(f"  VIOLATION {json.dumps(v, sort_keys=True)}")
        if report.get("convention_control"):
            lines.append(
                f"control run: expected violation found = {report['control_expected_violation_found']}"
            )
    else:
        lines.append(f"h = {report['h']}   J = ({report['J']})   lambda = {report['lambda']}")
        lines.append(f"invariant betti = {report['invariant_betti']}")
        for k_str in sorted(report["poincare"], key=int):
            pairing = report["poincare"][k_str]
            lines.append(
                f"  degree {k_str}: pairing rank {pairing['rank']}/{pairing['size']}"
                + (f" det {pairing['det']}" if "det" in pairing else "")
            )
        for k_str in sorted(report["hard_lefschetz"], key=int):
            hl = report["hard_lefschetz"][k_str]
            lines.append(
                f"  HL from degree {k_str}: omega^{hl['power']} rank {hl['rank']}/{hl['dim']}"
            )
        for k_str in sorted(report["hodge_riemann"], key=int):
            hr = report["hodge_riemann"][k_str]
            lines.append(
                f"  HR at degree {k_str}: dim {hr['dim_primitive']} sign {hr['sign']} "
                f"signature {tuple(hr['signature'])} definite {hr['definite']}"
            )
        lines.append(f"verdicts: {json.dumps(report['verdicts'], sort_keys=True)}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- entry point --------------------------------------------------------------

def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="hesslab",
        description="Exact graded characters, Betti numbers, and Kahler-package checks "
        "for regular Hessenberg spaces in type A.",
    )
    parser.add_argument("--version", action="version", version=f"hesslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common.add_argument("--out", default=None, help="write the report to this file")
    common.add_argument("--format", choices=["json", "csv", "table"], default="json")
    common.add_argument("--timing", action="store_true", help="include wall-clock timing")

    p_an = sub.add_parser("analyze", parents=[common], help="full report for one Hessenberg function")
    p_an.add_argument("--h", required=True, type=_parse_h, metavar="H", dest="h")
    p_an.add_argument("--J", type=_parse_J, default=None, help='simple reflections, e.g. "1,2" (default: all subsets)')
    p_an.add_argument("--cache-dir", default=None, help=f"cache directory (or ${CACHE_ENV})")

    p_ve = sub.add_parser("verify", parents=[common], help="sweep all Hessenberg functions of size n")
    p_ve.add_argument("--n", required=True, type=int)
    p_ve.add_argument("--indecomposable", action="store_true")
    p_ve.add_argument(
        "--convention-control",
        action="store_true",
        help="drop the conjugation in the support criterion; must report a violation",
    )

    p_ka = sub.add_parser("kahler", parents=[common], help="duality / Lefschetz / signed-form checks")
    p_ka.add_argument("--h", required=True, type=_parse_h, metavar="H", dest="h")
    p_ka.add_argument("--J", type=_parse_J, default=())
    p_ka.add_argument("--lambda", type=_parse_lambda, default=None, dest="lam")
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args, unknown = parser.parse_known_args(argv)
    # unknown arguments and checks made after parsing are usage errors of the subcommand
    usage_error = commands[args.command].error
    if unknown:
        usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    started = time.monotonic()
    try:
        if args.command == "analyze":
            if len(args.h) > MAX_ENUMERATION_N:
                usage_error(f"analyze supports n <= {MAX_ENUMERATION_N} (got n = {len(args.h)})")
            if args.J is not None and any(j > len(args.h) - 1 for j in args.J):
                usage_error(f"J entries must be <= n-1 = {len(args.h) - 1}")
            report = analyze_report(
                args.h,
                seed=args.seed,
                J=args.J,
                cache_dir=args.cache_dir or os.environ.get(CACHE_ENV),
            )
            failed = bool(report["violations"])
        elif args.command == "verify":
            if not 2 <= args.n <= MAX_FUNCTIONS_N:
                usage_error(f"need 2 <= n <= {MAX_FUNCTIONS_N} (got n = {args.n})")
            report = verify_report(
                args.n,
                seed=args.seed,
                indecomposable_only=args.indecomposable,
                control=args.convention_control,
            )
            if args.convention_control:
                failed = not report["control_expected_violation_found"]
            else:
                failed = bool(report["violations"])
        else:
            if not 2 <= len(args.h) <= GRAPH_MAX_N:
                usage_error(f"kahler supports 2 <= n <= {GRAPH_MAX_N} (got n = {len(args.h)})")
            if any(j > len(args.h) - 1 for j in args.J):
                usage_error(f"J entries must be <= n-1 = {len(args.h) - 1}")
            if args.lam is not None:
                if len(args.lam) != len(args.h):
                    usage_error(f"lambda must have n = {len(args.h)} entries")
                if any(a <= b for a, b in zip(args.lam, args.lam[1:])):
                    usage_error(f"lambda must be strictly decreasing, got {args.lam}")
            report = kahler_cli_report(args.h, args.J, args.lam, seed=args.seed)
            failed = not report["verdicts"]["all"]
        if args.timing:
            report["timing"] = {"seconds": round(time.monotonic() - started, 3)}
        _emit(render(report, args.format), args.out)
    except TheoremViolation as exc:
        witness = {"error": "theorem-violation", "detail": str(exc), "witness": exc.witness}
        sys.stdout.write(canonical_json(witness))
        return 3
    except (HesslabError, OSError) as exc:
        # OSError: the report or a cache entry could not be written
        print(f"hesslab: {exc}", file=sys.stderr)
        return 1
    return 3 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
