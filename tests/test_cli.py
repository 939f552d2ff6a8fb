import ast
import hashlib
import itertools
import json
import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hesslab import __version__, cli, dotchar
from hesslab.cli import canonical_json, main
from hesslab.dotchar import GradedMultiplicity, multiplicities_json
from hesslab.gkm import GRAPH_MAX_N, build_gkm, kahler_report
from hesslab.hessenberg import enumerate_hessenberg
from hesslab.partitions import MAX_ENUMERATION_N, invariant_dim, kostka_number, partition_str, partitions_of
from hesslab.springer import support_violations
import oracles
from oracles import q_factorial


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    assert out.endswith("\n")
    return json.loads(out)


def test_analyze_hexagon(capsys):
    report = run_json(capsys, "analyze", "--h", "2,3,3")
    assert report["command"] == "analyze"
    assert report["n"] == 3 and report["l"] == 2
    assert report["betti"] == [1, 4, 1]
    assert report["lambda_H"] == "2,1"
    assert report["mult"] == {"3": [1, 2, 1], "2,1": [0, 1, 0], "1,1,1": [0, 0, 0]}
    assert report["allowed"] == ["3", "2,1"]
    assert report["violations"] == []
    assert report["version"] == __version__ and report["seed"] == 1729
    assert set(report["regular"]) == {"", "1", "2", "1,2"}
    assert report["regular"]["1,2"] == {"betti": [1, 2, 1], "palindromic": True}
    assert report["gkm"] == {"morse_betti": [1, 4, 1], "agrees": True}


def test_analyze_edgeless_is_regular_rep(capsys):
    report = run_json(capsys, "analyze", "--h", "1,2,3")
    assert report["l"] == 0
    assert report["betti"] == [6]
    assert report["mult"] == {"3": [1], "2,1": [2], "1,1,1": [1]}


def test_analyze_projective_line(capsys):
    report = run_json(capsys, "analyze", "--h", "2,2")
    assert report["betti"] == [1, 1]
    assert report["mult"] == {"2": [1, 1], "1,1": [0, 0]}
    assert report["lambda_H"] == "1,1"


def test_analyze_single_J(capsys):
    report = run_json(capsys, "analyze", "--h", "2,3,3", "--J", "1")
    assert set(report["regular"]) == {"1"}
    assert report["regular"]["1"]["betti"] == [1, 3, 1]


def test_analyze_gkm_section_where_the_moment_graph_exists():
    # the Morse cross-check runs exactly where the moment graph exists,
    # 2 <= n <= GRAPH_MAX_N, and agrees with the character on every function
    # there; n = 1 (no graph) and n = 6 reports have no gkm section
    inside = [cli.analyze_report(h, seed=1729) for n in range(2, GRAPH_MAX_N + 1) for h in enumerate_hessenberg(n)]
    assert GRAPH_MAX_N == 5 and len(inside) == 63
    for report in inside:
        assert report["gkm"] == {"morse_betti": report["betti"], "agrees": True}
        assert report["violations"] == []
    outside = [(1,), *enumerate_hessenberg(GRAPH_MAX_N + 1)]
    assert not any("gkm" in cli.analyze_report(h, seed=1729) for h in outside)


def test_morse_disagreement_is_a_violation(capsys, monkeypatch):
    # a Morse count that differs from the character is reported by both
    # commands as one gkm-betti entry, and analyze's section says so
    monkeypatch.setattr(cli, "morse_betti", lambda g: [1, 3, 1])
    entry = {"type": "gkm-betti", "h": "2,3,3", "morse": [1, 3, 1], "character": [1, 4, 1]}
    rc, out, _ = run(capsys, "analyze", "--h", "2,3,3")
    report = json.loads(out)
    assert rc == 3 and report["violations"] == [entry]
    assert report["gkm"] == {"morse_betti": [1, 3, 1], "agrees": False}
    rc, out, _ = run(capsys, "verify", "--n", "3")
    assert rc == 3 and entry in json.loads(out)["violations"]


@pytest.mark.parametrize(
    "bad",
    ["3,3", "2,1,3", "0", "abc", "2,3,3,3,3,3", ""],
)
def test_analyze_usage_errors(capsys, bad):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--h", bad])
    assert exc.value.code == 2


def test_analyze_n10_two_digit_parts(capsys):
    # the Peterson function (2, ..., 10, 10): every J row palindromic, and
    # the J = {1..9} row is prod_j [h(j)-j+1]_q = (1+q)^9
    report = run_json(capsys, "analyze", "--h", "2,3,4,5,6,7,8,9,10,10")
    assert report["violations"] == []
    assert len(report["mult"]) == len(partitions_of(10)) and "10" in report["mult"]
    assert len(report["regular"]) == 2 ** 9
    assert all(entry["palindromic"] for entry in report["regular"].values())
    assert report["regular"]["1,2,3,4,5,6,7,8,9"]["betti"] == [math.comb(9, k) for k in range(10)]


def test_analyze_enumeration_ceiling():
    # n = 13 is past partitions_of: a usage error naming the limit
    h = "2,3,4,5,6,7,8,9,10,11,12,13,13"
    proc = subprocess.run([sys.executable, "-m", "hesslab", "analyze", "--h", h], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and f"n <= {MAX_ENUMERATION_N}" in proc.stderr
    assert MAX_ENUMERATION_N == 12
    assert proc.stdout == ""


def test_analyze_J_out_of_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--h", "2,3,3", "--J", "3"])
    assert exc.value.code == 2


def test_verify_n3(capsys):
    report = run_json(capsys, "verify", "--n", "3")
    assert report["functions"] == 5
    assert report["violations"] == []
    assert report["gkm_checked"] == 5
    assert report["convention_control"] is False


def test_verify_indecomposable_only(capsys):
    report = run_json(capsys, "verify", "--n", "4", "--indecomposable")
    assert report["functions"] == 5  # Catalan(3)
    assert report["violations"] == []


def test_verify_gkm_checked_where_the_moment_graph_exists(capsys):
    # every function is cross-checked at n <= GRAPH_MAX_N and none above it
    for n, checked in (("5", 42), ("6", 0)):
        report = run_json(capsys, "verify", "--n", n)
        assert report["gkm_checked"] == checked
        assert report["violations"] == []
        assert "gkm_max_n" not in report


def test_verify_convention_control(capsys):
    rc, out, _ = run(capsys, "verify", "--n", "3", "--convention-control")
    assert rc == 0
    report = json.loads(out)
    assert report["convention_control"] is True
    assert report["control_expected_violation_found"] is True
    hexagon = [v for v in report["violations"] if v["h"] == "2,3,3"]
    assert hexagon == [
        {
            "type": "support",
            "h": "2,3,3",
            "lambda": "3",
            "lambda_H": "2,1",
            "tested": "3",
            "total_multiplicity": 4,
        }
    ]


def test_palindromic_violations_entry_by_entry(monkeypatch):
    # a table that breaks palindromicity for some contents only: verify and
    # analyze list the violations the per-J construction gives, entry for
    # entry and in all_parabolic_subsets order
    h = (2, 3, 4, 4)
    gm = dotchar.dot_action_multiplicities(h)
    table = {lam: list(row) for lam, row in gm.table.items()}
    row = table[(3, 1)]
    k = next(k for k, m in enumerate(row) if m and 2 * k + 1 != gm.l)
    row[k] -= 1
    row[k + 1] += 1
    bad = GradedMultiplicity(n=gm.n, h=h, l=gm.l, table=table)
    expected, regular = [], {}
    for J in cli.all_parabolic_subsets(4):
        betti = [sum(invariant_dim(lam, J) * r[d] for lam, r in table.items()) for d in range(gm.l + 1)]
        regular[cli._jstr(J)] = {"betti": betti, "palindromic": betti == betti[::-1]}
        if betti != betti[::-1]:
            expected.append({"type": "palindromic", "h": "2,3,4,4", "J": cli._jstr(J), "betti": betti})
    assert 0 < len(expected) < 8
    monkeypatch.setattr(cli, "dot_action_multiplicities", lambda *args: bad)
    result = cli._verify_one(h, seed=1729, control=False)
    assert [v for v in result["violations"] if v["type"] == "palindromic"] == expected
    report = cli.analyze_report(h, seed=1729)
    assert report["regular"] == regular
    assert [v for v in report["violations"] if v["type"] == "palindromic"] == expected


def test_unimodal_violations_entry_by_entry(monkeypatch, capsys):
    # a palindromic isotypic row with a dip, the ends raised and the middle
    # lowered so that the n! sum holds: verify lists every content row and
    # every isotypic row that is not unimodal, contents first, each in
    # partitions_of order, and a run with them exits 3
    def unimodal(row):
        return not any(row[j] < min(row[i], row[k]) for i, j, k in itertools.combinations(range(len(row)), 3))

    h = (2, 3, 4, 5, 5)
    gm = dotchar.dot_action_multiplicities(h)
    assert cli._unimodal_violations(h, gm) == []
    table = {lam: list(row) for lam, row in gm.table.items()}
    assert table[(4, 1)] == [0, 3, 6, 3, 0]
    table[(4, 1)] = [6, 0, 0, 0, 6]
    bad = GradedMultiplicity(n=gm.n, h=h, l=gm.l, table=table)
    expected = []
    for mu in partitions_of(5):
        betti = [sum(kostka_number(lam, mu) * r[d] for lam, r in table.items()) for d in range(gm.l + 1)]
        if not unimodal(betti):
            expected.append({"type": "unimodal", "h": "2,3,4,5,5", "content": partition_str(mu), "betti": betti})
    assert [v["content"] for v in expected] == ["4,1", "3,2", "3,1,1", "2,2,1", "2,1,1,1", "1,1,1,1,1"]
    expected.append({"type": "unimodal", "h": "2,3,4,5,5", "lambda": "4,1", "mult": [6, 0, 0, 0, 6]})
    computed = dotchar.dot_action_multiplicities
    monkeypatch.setattr(cli, "dot_action_multiplicities", lambda f, *args: bad if f == h else computed(f, *args))
    result = cli._verify_one(h, seed=1729, control=False)
    assert [v for v in result["violations"] if v["type"] == "unimodal"] == expected
    assert {v["type"] for v in result["violations"]} == {"unimodal", "boundary", "gkm-betti"}
    rc, out, _ = run(capsys, "verify", "--n", "5")
    assert rc == 3
    assert [v for v in json.loads(out)["violations"] if v["type"] == "unimodal"] == expected
    # analyze runs the same checks on the same table: every entry verify
    # lists for h, in the same order, and an exit code 3
    assert cli.analyze_report(h, seed=1729)["violations"] == result["violations"]
    rc, out, _ = run(capsys, "analyze", "--h", "2,3,4,5,5")
    assert rc == 3
    assert json.loads(out)["violations"] == result["violations"]


def test_analyze_and_verify_agree_on_every_function():
    # one set of checks: on every function with n <= 7 analyze and verify
    # list the same violations, none, and analyze has a gkm section exactly
    # where verify counts the function as cross-checked
    for n in range(2, 8):
        for h in enumerate_hessenberg(n):
            report = cli.analyze_report(h, seed=1729)
            result = cli._verify_one(h, seed=1729, control=False)
            assert report["violations"] == result["violations"] == [], h
            assert ("gkm" in report) == result["gkm_checked"], h


def test_analyze_and_verify_bytes_pinned():
    # the JSON, CSV and table renderings of analyze on every function with
    # n <= 7, then of verify for n <= 8 without and with the convention
    # control, the version masked: one sha256 over them all
    digest = hashlib.sha256()
    reports = [cli.analyze_report(h, seed=1729) for n in range(2, 8) for h in enumerate_hessenberg(n)]
    reports += [cli.verify_report(n, seed=1729, control=control) for n in range(2, 9) for control in (False, True)]
    assert len(reports) == 624 + 14
    for report in reports:
        for fmt in ("json", "csv", "table"):
            digest.update(cli.render({**report, "version": ""}, fmt).encode())
    assert digest.hexdigest() == "fd9ec08b14236f93fbdd3489cd133ee3c21822573aa90e81ea2f43a0432f0850"


def test_verify_bounds(capsys):
    # past enumerate_hessenberg's range is a usage error
    for n in ("1", "10"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", n])
        assert exc.value.code == 2
        assert "n <= 9 (got" in capsys.readouterr().err


def unconjugated(n):
    """springer._with_conjugates with the conjugation dropped: each lam paired with itself."""
    return tuple((lam, lam) for lam in partitions_of(n))


def test_exit_code_3_on_violation(capsys, monkeypatch):
    # break the indexing convention in-process: the support check must fail
    # and the exit code must say so
    monkeypatch.setattr("hesslab.springer._with_conjugates", unconjugated)
    rc, out, _ = run(capsys, "analyze", "--h", "2,3,3")
    assert rc == 3
    report = json.loads(out)
    assert report["violations"] == [
        {
            "type": "support",
            "h": "2,3,3",
            "lambda": "3",
            "lambda_H": "2,1",
            "tested": "3",
            "total_multiplicity": 4,
        }
    ]
    assert report["allowed"] == ["2,1", "1,1,1"]


def test_one_support_convention_for_analyze_and_verify(capsys, monkeypatch):
    # springer owns the convention: with its conjugate broken, verify finds
    # exactly what the convention-control run finds with it intact, and
    # analyze reports the same hexagon witness, entry for entry
    rc, control, _ = run(capsys, "verify", "--n", "3", "--convention-control")
    assert rc == 0
    monkeypatch.setattr("hesslab.springer._with_conjugates", unconjugated)
    rc, out, _ = run(capsys, "verify", "--n", "3")
    assert rc == 3
    violations = json.loads(out)["violations"]
    assert violations == json.loads(control)["violations"]
    assert [v["h"] for v in violations] == ["1,3,3", "2,2,3", "2,3,3", "3,3,3"]
    (hexagon,) = [v for v in violations if v["h"] == "2,3,3"]
    assert hexagon["tested"] == "3"
    rc, out, _ = run(capsys, "analyze", "--h", "2,3,3")
    assert rc == 3
    assert json.loads(out)["violations"] == [hexagon]


def test_kahler_hexagon_full(capsys):
    report = run_json(capsys, "kahler", "--h", "2,3,3", "--J", "")
    assert report["command"] == "kahler"
    assert report["J"] == ""
    assert report["lambda"] == "2,1,0"
    assert report["invariant_betti"] == [1, 4, 1]
    assert report["verdicts"] == {
        "poincare": True,
        "hard_lefschetz": True,
        "hodge_riemann": True,
        "all": True,
    }
    assert report["poincare"]["0"]["det"] == "1"
    assert report["hodge_riemann"]["2"]["signature"] == [3, 0, 0]


def test_kahler_hexagon_invariants(capsys):
    report = run_json(capsys, "kahler", "--h", "2,3,3", "--J", "1,2")
    assert report["invariant_betti"] == [1, 2, 1]
    assert report["poincare"]["2"] == {
        "det": "-1/3",
        "nondegenerate": True,
        "rank": 2,
        "size": 2,
    }
    assert report["verdicts"]["all"] is True


def test_kahler_threefold(capsys):
    report = run_json(capsys, "kahler", "--h", "2,3,4,4", "--J", "")
    assert report["n"] == 4
    assert sum(report["invariant_betti"]) == 24
    assert report["verdicts"]["all"] is True


def test_kahler_bytes_pinned(capsys):
    # canonical kahler reports at seed 1729, pairing determinants included,
    # pinned byte for byte apart from the version field, which must be the
    # package version
    text = ""
    for h, J in (("2,3,3", ""), ("2,3,3", "1,2"), ("2,3,4,4", "1,3")):
        report = run_json(capsys, "kahler", "--h", h, "--J", J)
        assert report.pop("version") == __version__
        text += canonical_json(report)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "be256f34631cbad6e040d6318ede777186b1c582236dd1425ff32bca1fa676a4"


def test_kahler_payloads_pinned_at_other_seeds():
    # every other pin uses the default covector; each seed orients the graph
    # its own way and so builds its own flow-up basis.  The seeds include
    # 1 + k * 1000003, those of a benchmark run at seed 1, and each seed's
    # payloads, with every verdict true, hash differently from the others'
    digest = hashlib.sha256()
    per_seed = set()
    for seed in (1, 2, 3, 1000004, 2000007):
        text = ""
        for h in ((1, 4, 4, 4), (2, 3, 4, 4), (3, 3, 3, 4)):
            g = build_gkm(h, seed=seed)
            for J in cli.all_parabolic_subsets(4):
                payload = cli.kahler_payload(g, J)
                assert payload["verdicts"]["all"] is True, (seed, h, J)
                text += canonical_json(payload)
        digest.update(text.encode())
        per_seed.add(hashlib.sha256(text.encode()).hexdigest())
    assert len(per_seed) == 5
    assert digest.hexdigest() == "e012157da03b5b037ff32526f478cc5ba44b8ef6846b7e55a7aa98c18c58c3b0"


def test_kahler_at_n5(capsys):
    # the moment graph's size limit is the only one: the Peterson function at
    # n = 5 holds the Kahler package for J = {1,2,3,4}, and the report carries
    # the payload of a fresh graph
    rc, out, _ = run(capsys, "kahler", "--h", "2,3,4,5,5", "--J", "1,2,3,4")
    report = json.loads(out)
    assert rc == 0 and all(report["verdicts"].values())
    payload = cli.kahler_payload(build_gkm((2, 3, 4, 5, 5)), (1, 2, 3, 4))
    assert {k: report[k] for k in payload} == {**payload, "h": "2,3,4,5,5", "J": "1,2,3,4", "lambda": "4,3,2,1,0"}


def test_kahler_payload_leaves_report_untouched(capsys):
    # the payload adds determinants to its own report: a report of the same
    # graph made afterwards stays free of them, and the CLI bytes do not change
    g = build_gkm((2, 3, 3))
    first = cli.kahler_payload(g, (1, 2))
    assert first["poincare"]["2"]["det"] == "-1/3"
    report = kahler_report(g, (1, 2))
    assert all("det" not in entry for entry in report["poincare"].values())
    assert cli.kahler_payload(g, (1, 2)) == first
    cli_report = run_json(capsys, "kahler", "--h", "2,3,3", "--J", "1,2")
    assert {k: cli_report[k] for k in first} == {**first, "h": "2,3,3", "J": "1,2", "lambda": "2,1,0"}


def test_kahler_custom_lambda(capsys):
    report = run_json(capsys, "kahler", "--h", "2,3,3", "--J", "", "--lambda", "5,1,-2")
    assert report["lambda"] == "5,1,-2"
    assert report["verdicts"]["all"] is True


def test_kahler_usage_errors(capsys):
    cases = [
        ["kahler", "--h", "2,3,4,5,6,6"],  # beyond the moment graph
        ["kahler", "--h", "2,3,3", "--lambda", "3,2,1,0"],
        ["kahler", "--h", "2,3,3", "--lambda", "1,1,0"],
        ["kahler", "--h", "2,3,3", "--J", "7"],
    ]
    for argv in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["kahler", "--h", "2,3,4,4", "--J", "4"],
        ["kahler", "--h", "2,3,4,4", "--lambda", "1,2,3,4"],
        ["kahler", "--h", "2,3,4,4", "--J", "0"],  # refused while parsing
        ["analyze", "--h", "2,3,3", "--J", "3"],
        ["verify", "--n", "10"],
        ["analyze", "--h", "2,3,3", "--gkm"],  # removed options are unknown arguments
        ["verify", "--n", "3", "--gkm-max-n", "3"],
        ["kahler", "--h", "2,3,4,4", "--cache-dir", "D"],  # only analyze reads the cache
        ["kahler", "--h", "2,3,3", "--force"],
        ["verify", "--n", "3", "--cache-dir", "D"],
        ["verify", "--n", "3", "--jobs", "2"],
        ["verify", "--n", "3", "--force"],
        ["analyze", "--h", "2,3,3", "--force"],
    ],
    ids=[
        "kahler-J",
        "kahler-lambda",
        "kahler-J-parse",
        "analyze-J",
        "verify-n",
        "analyze-gkm",
        "verify-gkm-max-n",
        "kahler-cache-dir",
        "kahler-force",
        "verify-cache-dir",
        "verify-jobs",
        "verify-force",
        "analyze-force",
    ],
)
def test_usage_errors_name_the_subcommand(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: hesslab {argv[0]} ")
    assert f"hesslab {argv[0]}: error:" in err


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["kahler", "--h", "1"], f"n <= {GRAPH_MAX_N}"),
        (["kahler", "--h", "2,3,4,5,6,6"], f"n <= {GRAPH_MAX_N}"),
    ],
    ids=["kahler-n1", "kahler-n6"],
)
def test_moment_graph_size_refused(argv, limit):
    # a usage error naming the limit, not a traceback from build_gkm
    proc = subprocess.run(
        [sys.executable, "-m", "hesslab", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and limit in proc.stderr
    assert proc.stdout == ""


def test_csv_format(capsys):
    rc, out, _ = run(capsys, "analyze", "--h", "2,3,3", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "row,q0,q1,q2"
    assert lines[1] == "betti,1,4,1"
    assert "3,1,2,1" in lines
    rc, out, _ = run(capsys, "kahler", "--h", "2,3,3", "--format", "csv")
    assert rc == 0
    assert out.splitlines()[0].startswith("degree,")


def test_table_format(capsys):
    rc, out, _ = run(capsys, "analyze", "--h", "2,3,3", "--format", "table")
    assert rc == 0
    assert "lambda_H = 2,1" in out
    assert "violations: 0" in out


def test_kahler_table_format(capsys):
    rc, out, _ = run(capsys, "kahler", "--h", "2,3,3", "--J", "1", "--format", "table")
    assert rc == 0
    assert out.splitlines() == [
        "h = 2,3,3   J = (1)   lambda = 2,1,0",
        "invariant betti = [1, 3, 1]",
        "  degree 0: pairing rank 1/1 det 1",
        "  degree 2: pairing rank 3/3 det 2",
        "  HL from degree 0: omega^2 rank 1/1",
        "  HL from degree 2: omega^0 rank 3/3",
        "  HR at degree 0: dim 1 sign 1 signature (1, 0, 0) definite True",
        "  HR at degree 2: dim 2 sign -1 signature (2, 0, 0) definite True",
        'verdicts: {"all": true, "hard_lefschetz": true, "hodge_riemann": true, "poincare": true}',
    ]


@pytest.mark.parametrize(
    "fmt, lines",
    [
        ("csv", ["n,functions,violations,gkm_checked", "3,5,0,5"]),
        ("table", ["n = 3   functions = 5   violations = 0   gkm checked = 5"]),
    ],
    ids=["csv", "table"],
)
def test_verify_csv_and_table_formats(capsys, fmt, lines):
    rc, out, _ = run(capsys, "verify", "--n", "3", "--format", fmt)
    assert (rc, out.splitlines()) == (0, lines)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run(capsys, "analyze", "--h", "2,3,3", "--out", str(target))
    assert rc == 0 and out == ""
    _, direct, _ = run(capsys, "analyze", "--h", "2,3,3")
    assert target.read_text() == direct


@pytest.mark.parametrize("parent", ["missing", "file"])
def test_out_file_unwritable(tmp_path, capsys, parent):
    (tmp_path / "file").write_text("")
    target = tmp_path / parent / "report.json"
    rc, out, err = run(capsys, "analyze", "--h", "2,3,3", "--out", str(target))
    assert rc == 1 and out == ""
    assert err.startswith("hesslab: ") and err.count("\n") == 1
    assert not target.exists()


def test_cache_dir_under_a_file(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    cache = tmp_path / "file" / "sub"
    rc, out, err = run(capsys, "analyze", "--h", "2,3,3", "--cache-dir", str(cache))
    assert rc == 1 and out == ""
    assert err.startswith("hesslab: ") and err.count("\n") == 1


def string_keys(obj) -> bool:
    """Whether every dict key in obj, at any depth, is a str."""
    if isinstance(obj, dict):
        return all(isinstance(k, str) and string_keys(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return all(string_keys(v) for v in obj)
    return True


def test_render_matches_the_sanitizing_walk():
    # canonical_json writes fractions as 'p/q' and tuples as lists itself; on
    # every analyze and verify report for n = 2..6 and every kahler report for
    # n <= 4 it gives the bytes of the deep walk it replaced.  json sorts int
    # keys by value where the walk sorted their strings, so every key must be
    # a str.
    reports = [cli.analyze_report(h, seed=7) for n in range(2, 7) for h in enumerate_hessenberg(n)]
    reports += [cli.verify_report(n, seed=7) for n in range(2, 7)]
    reports += [
        cli.kahler_cli_report(h, J, None, seed=7)
        for n in range(2, 5)
        for h in enumerate_hessenberg(n)
        for J in cli.all_parabolic_subsets(n)
    ]
    assert len(reports) == 336
    for report in reports:
        assert string_keys(report)
        walked = json.dumps(oracles.sanitize(report), sort_keys=True, separators=(",", ":")) + "\n"
        assert cli.render(report, "json") == walked
    assert canonical_json({"b": (1, Fraction(-2, 6)), "a": [Fraction(4, 2)]}) == '{"a":["2"],"b":[1,"-1/3"]}\n'
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        canonical_json({"a": {1}})


def test_byte_stability(capsys):
    _, first, _ = run(capsys, "analyze", "--h", "2,3,4,4")
    _, second, _ = run(capsys, "analyze", "--h", "2,3,4,4")
    assert first == second


def test_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("analyze", "--h", "2,3,3", "--J", "1", "--cache-dir", str(cache))
    rc1, cold, _ = run(capsys, *args)
    files = list(cache.rglob("*.json"))
    assert rc1 == 0 and files
    rc2, warm, _ = run(capsys, *args)
    assert rc2 == 0 and warm == cold
    _, plain, _ = run(capsys, *args[:5])
    assert plain == cold


def test_cache_corrupt_entries_are_rewritten(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("analyze", "--h", "2,3,3", "--cache-dir", str(cache))
    rc, cold, _ = run(capsys, *args)
    entries = sorted(cache.iterdir())
    assert rc == 0 and len(entries) == 1
    valid = {path: path.read_bytes() for path in entries}
    for path in entries:
        path.write_bytes(valid[path][: len(valid[path]) // 2])
    rc, warm, err = run(capsys, *args)
    assert (rc, warm, err) == (0, cold, "")
    assert sorted(cache.iterdir()) == entries
    assert {path: path.read_bytes() for path in entries} == valid


def overwrite_payload(cache, payload) -> None:
    """Replace the payload of the one entry in cache, keeping its key."""
    (path,) = cache.iterdir()
    entry = json.loads(path.read_text())
    entry["payload"] = payload
    path.write_text(json.dumps(entry))


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda payload: {"n": 3},
        lambda payload: {},
        lambda payload: {**payload, "mult": {**payload["mult"], "1,1,1": [0, 0, 5]}},
        lambda payload: multiplicities_json(dotchar.dot_action_multiplicities((3, 3, 3))),
    ],
    ids=["n-only", "empty", "count-changed", "another-h"],
)
def test_cache_bad_multiplicity_payload_is_an_error(tmp_path, capsys, corrupt):
    # a stored table that is not the checked table of the requested h fails
    # with exit 1 and one stderr line: no traceback, and no false violation
    # from a table that breaks the character checks
    args = ("analyze", "--h", "2,3,3", "--cache-dir", str(tmp_path))
    assert run(capsys, *args)[0] == 0
    (path,) = tmp_path.iterdir()
    overwrite_payload(tmp_path, corrupt(json.loads(path.read_text())["payload"]))
    rc, out, err = run(capsys, *args)
    assert (rc, out) == (1, "")
    assert err.startswith("hesslab: ") and err.count("\n") == 1


@pytest.mark.parametrize("h, field", [("2,2", "l"), ("1", "n")])
def test_cache_bool_size_is_an_error(tmp_path, capsys, h, field):
    # true equals 1 in Python, so a stored size true would pass for l = 1 or
    # n = 1 and reach the report as "l":true; it is a malformed table
    args = ("analyze", "--h", h, "--cache-dir", str(tmp_path))
    assert run(capsys, *args)[0] == 0
    (path,) = tmp_path.iterdir()
    payload = json.loads(path.read_text())["payload"]
    assert payload[field] == 1
    overwrite_payload(tmp_path, {**payload, field: True})
    rc, out, err = run(capsys, *args)
    assert (rc, out) == (1, "")
    assert err.startswith("hesslab: ") and err.count("\n") == 1 and "Traceback" not in err


def test_cache_payload_betti_is_not_read(tmp_path, capsys):
    # the report's l, betti and mult come from the checked table, so a
    # changed derived betti entry leaves the bytes of the cold report
    args = ("analyze", "--h", "2,3,3", "--cache-dir", str(tmp_path))
    rc, cold, _ = run(capsys, *args)
    assert rc == 0
    (path,) = tmp_path.iterdir()
    payload = json.loads(path.read_text())["payload"]
    overwrite_payload(tmp_path, {**payload, "betti": [1, 9, 1]})
    assert run(capsys, *args) == (0, cold, "")


def test_cache_warm_analyze_enumerates_no_colorings(tmp_path, capsys, monkeypatch):
    args = ("analyze", "--h", "2,3,4,4", "--cache-dir", str(tmp_path))
    rc, cold, _ = run(capsys, *args)
    assert rc == 0

    def refuse(*_args, **_kwargs):
        raise AssertionError("a warm analyze must not recompute the multiplicity table")

    monkeypatch.setattr(cli, "dot_action_multiplicities", refuse)
    assert run(capsys, *args) == (0, cold, "")


def test_cache_warm_analyze_at_another_seed(tmp_path, capsys, monkeypatch):
    # the multiplicity table does not depend on the seed, so one entry serves every seed
    args = ("analyze", "--h", "2,3,4,4", "--cache-dir", str(tmp_path))
    assert run(capsys, *args, "--seed", "1")[0] == 0
    rc, expected, _ = run(capsys, *args[:3], "--seed", "2")
    assert rc == 0

    def refuse(*_args, **_kwargs):
        raise AssertionError("a warm analyze must not recompute the multiplicity table")

    monkeypatch.setattr(cli, "dot_action_multiplicities", refuse)
    assert run(capsys, *args, "--seed", "2") == (0, expected, "")


def test_character_paths_reach_no_colorings(monkeypatch):
    # colorings are an oracle only: tables, the support test and both reports
    # come from closed forms and the modular law, also for functions whose
    # table is not memoized yet
    def refuse(*_args, **_kwargs):
        raise AssertionError("the character route must not enumerate colorings")

    monkeypatch.setattr(dotchar, "chromatic_qsym", refuse)
    monkeypatch.setattr(dotchar, "_chromatic_cached", refuse)
    dotchar._mult_cached.cache_clear()
    h = (3, 3, 4, 5, 5)
    assert dotchar.dot_action_multiplicities(h).betti() == [1, 17, 42, 42, 17, 1]
    assert support_violations(h) == []
    assert cli.analyze_report(h, seed=1729)["violations"] == []
    assert cli.verify_report(5, seed=1729)["violations"] == []


def test_verify_n7_clean(capsys):
    report = run_json(capsys, "verify", "--n", "7")
    assert report["functions"] == 429
    assert report["violations"] == []


def test_analyze_n9_from_cache(tmp_path, capsys):
    # the flag variety: only the trivial isotype, in every degree of [9]_q!
    h = (9,) * 9
    factorial_row = q_factorial(9).coefficient_list(36)
    table = {lam: [0] * 37 for lam in partitions_of(9)}
    table[(9,)] = factorial_row
    payload = multiplicities_json(GradedMultiplicity(n=9, h=h, l=36, table=table))
    cli.cache_store(str(tmp_path), cli._key("dotchar", h), payload)
    report = run_json(capsys, "analyze", "--h", ",".join(["9"] * 9), "--cache-dir", str(tmp_path))
    assert report["violations"] == []
    assert len(report["regular"]) == 2 ** 8
    assert all(entry["betti"] == factorial_row for entry in report["regular"].values())


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    # only analyze reads HESSLAB_CACHE: a kahler run under it writes nothing
    cache = tmp_path / "envcache"
    monkeypatch.setenv("HESSLAB_CACHE", str(cache))
    assert run(capsys, "kahler", "--h", "2,3,3", "--J", "1")[0] == 0
    assert not cache.exists()
    _, out, _ = run(capsys, "analyze", "--h", "2,3,3")
    assert list(cache.rglob("*.json"))
    monkeypatch.delenv("HESSLAB_CACHE")
    _, bare, _ = run(capsys, "analyze", "--h", "2,3,3")
    assert out == bare


def test_timing_flag(capsys):
    _, timed, _ = run(capsys, "analyze", "--h", "2,3,3", "--timing")
    report = json.loads(timed)
    assert "seconds" in report["timing"]
    del report["timing"]
    _, plain, _ = run(capsys, "analyze", "--h", "2,3,3")
    assert canonical_json(report) == plain


def test_seed_is_reported(capsys):
    report = run_json(capsys, "analyze", "--h", "2,3,3", "--seed", "7")
    assert report["seed"] == 7
    assert report["lambda_H"] == "2,1"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"hesslab {__version__}"


def test_pyproject_version_is_the_package_version():
    # read with a regex: Python 3.10 has no tomllib
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.findall(r'^version\s*=\s*"([^"]*)"', text, re.MULTILINE) == [__version__]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hesslab", "verify", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["functions"] == 2 and report["violations"] == []


def test_import_loads_only_the_standard_library():
    # modules the interpreter loads at startup (site hooks) are not counted
    code = (
        "import json, sys; before = set(sys.modules); import hesslab; "
        "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "hesslab" in loaded
    assert [m for m in loaded if m != "hesslab" and m not in sys.stdlib_module_names] == []


def test_cli_import_starts_no_process_machinery():
    # the sweep is serial: importing the command surface loads no process pool
    code = "import sys; import hesslab.cli; print(sorted({m.split('.')[0] for m in sys.modules} & {'concurrent', 'multiprocessing'}))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


PUBLIC_NAMES = [
    "ConsistencyError",
    "CostGuardError",
    "GKMGraph",
    "GradedMultiplicity",
    "HesslabError",
    "QPoly",
    "QSymPoly",
    "TheoremViolation",
    "__version__",
    "betti_rs",
    "build_gkm",
    "chromatic_qsym",
    "conjugate",
    "dim_irrep",
    "dimension",
    "dominance_leq",
    "dot_action_multiplicities",
    "enumerate_hessenberg",
    "flow_up_class",
    "generic_jordan_type",
    "hessenberg_str",
    "invariant_dim",
    "invariant_subring",
    "is_indecomposable",
    "kahler_report",
    "morse_betti",
    "multiplicities_json",
    "parse_hessenberg",
    "partitions_of",
    "poincare_pairing",
    "regular_betti",
    "support_violations",
]


def test_public_surface():
    # the exported names, pinned; a star import resolves every entry, so a
    # name left in __all__ after its definition is gone fails here
    import hesslab

    assert sorted(hesslab.__all__) == PUBLIC_NAMES
    namespace: dict = {}
    exec("from hesslab import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC_NAMES


def test_every_private_name_in_src_is_used_there():
    # a module-level name with one leading underscore is internal: if no
    # code in the package loads it outside its own definition, only the
    # tests use it, and it belongs in tests/oracles.py
    sources = {path: ast.parse(path.read_text()) for path in Path(cli.__file__).parent.glob("*.py")}
    defined = {}
    for path, tree in sources.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = (path.name, node)
    unused = []
    for name, (where, definition) in defined.items():
        inside = {id(node) for node in ast.walk(definition)}
        loaded = any(
            id(node) not in inside
            and (
                (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
            )
            for tree in sources.values()
            for node in ast.walk(tree)
        )
        if not loaded:
            unused.append(f"{where}:{name}")
    assert len(defined) > 20 and not unused
