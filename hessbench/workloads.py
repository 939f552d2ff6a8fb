"""The benchmark's workloads: inputs, one measured pass, one traced pass, checks.

Imported only by worker.py, after it has put the checkout's ``src`` first on
``sys.path``.  Every pass runs in a fresh interpreter, so the library's
``functools.cache`` memo tables start cold, as they do for every CLI call.

Correctness checks use identities that do not depend on the code path under
test: Betti numbers of a Hessenberg space of size n sum to n! (the number of
fixed points) and are palindromic; the Morse count of the moment graph equals
the character-side Betti numbers; a report served through the cache has the
same canonical bytes as the report computed without one.
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import ExitStack, contextmanager
from math import comb, factorial
from unittest import mock

from hesslab import cli, dotchar
from hesslab.dotchar import betti_rs, chromatic_qsym, dot_action_multiplicities, regular_betti
from hesslab.gkm import build_gkm, flow_up_class, invariant_subring, kahler_report, morse_betti, poincare_pairing
from hesslab.hessenberg import enumerate_hessenberg, hessenberg_str
from hesslab.springer import generic_jordan_type, support_violations

# Problem sizes.  "tiny" is the harness self-test's scale (n <= 4).
SCALES = {
    "full": {
        "verify-n6": {"n": 6},
        "analyze-n6-cache": {"n": 6},
        "kahler-n4": {"functions": [(1, 4, 4, 4), (2, 3, 4, 4), (3, 3, 3, 4)]},
    },
    "tiny": {
        "verify-n6": {"n": 4},
        "analyze-n6-cache": {"n": 4},
        "kahler-n4": {"functions": [(2, 3, 3)]},
    },
}

# Layers a workload never calls are timed on this small fixed case after the
# traced pass (see PROBES in run.py).
PROBE_H = (2, 3, 3)


def inputs(workload: str, scale: str, seed: int) -> dict:
    size = SCALES[scale][workload]
    if workload == "kahler-n4":
        functions = [tuple(h) for h in size["functions"]]
        n = len(functions[0])
    else:
        n = size["n"]
        functions = list(enumerate_hessenberg(n))
    out = {"n": n, "functions": functions, "Js": cli.all_parabolic_subsets(n)}
    if workload == "analyze-n6-cache":
        rng = random.Random(f"hessbench-prefill:{seed}")
        out["prefill"] = sorted(rng.sample(functions, len(functions) // 2))
    return out


def expected(workload: str, inp: dict) -> dict:
    n = inp["n"]
    exp = {"betti_total": factorial(n)}
    if workload == "verify-n6":
        exp["functions"] = comb(2 * n, n) // (n + 1)  # Catalan number
    return exp


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def coloring_count(X) -> int:
    """Proper colorings with colors 1..n, read off the monomial expansion.

    The coefficient of m_lam counts colorings whose usage vector is exactly
    lam padded with zeros; each rearrangement of that vector counts the same.
    """
    n = X.degree
    total = 0
    for lam, poly in X.coeffs.items():
        parts = list(lam) + [0] * (n - len(lam))
        arrangements = factorial(n)
        for value in set(parts):
            arrangements //= factorial(parts.count(value))
        total += arrangements * poly.at_one()
    return total


def _betti_ok(betti, exp) -> bool:
    return sum(betti) == exp["betti_total"] and betti == betti[::-1]


class Outcome:
    """Operations attempted and failed in one pass, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)


# --- passes ------------------------------------------------------------------
#
# With a tracer, a verify-n6 or kahler-n4 pass calls the public functions layer
# by layer in dependency order, so each call runs against the memo tables its
# predecessors filled, and a span's self time is that layer's share.  The
# workload's top-level call comes last and repeats whatever the library does
# not memoize.  An analyze-n6-cache pass makes the user's calls in both modes;
# with a tracer, watch_analyze times the library calls they make, so the cache
# hits, misses and recomputations are the library's own.  Without a tracer, a
# pass makes only the top-level calls a user makes.

def run(workload: str, inp: dict, seed: int, cache_dir: str, t=None, between=None):
    """One pass of the workload; returns its raw outputs for check().

    ``between``, if given, is called after each unit of work: one function of
    a sweep, one moment graph or one Kahler report (see calibrate.Timeline).
    """
    pace = between or (lambda: None)
    if workload == "verify-n6":
        if t is not None:
            for h in inp["functions"]:
                with t.span("case"):
                    trace_characters(t, h, inp["Js"], seed, springer=True)
            with t.span("cli.verify_report"):
                report = cli.verify_report(inp["n"], seed=seed)
        else:
            with paced_verify(pace):
                report = cli.verify_report(inp["n"], seed=seed)
        return cli.render(report, "json")
    if workload == "analyze-n6-cache":
        fetched = []
        texts = {}
        with watch_analyze(fetched, t):
            for h in inp["functions"]:
                texts[h] = _attempt(
                    lambda: cli.render(cli.analyze_report(h, seed=seed, cache_dir=cache_dir), "json")
                )
                pace()
        return texts, fetched
    results = []
    for h in inp["functions"]:
        if t is not None:
            with t.span("case"):
                trace_characters(t, h, inp["Js"], seed, springer=False)
                g, reports = trace_gkm(t, h, inp["Js"], seed)
        else:
            g = _attempt(lambda: build_gkm(h, seed=seed))
            pace()
            reports = []
            for J in inp["Js"]:
                reports.append(_attempt(lambda: kahler_report(g, J)) if not isinstance(g, str) else g)
                pace()
        results.append((h, g, reports))
    return results


@contextmanager
def paced_verify(pace):
    """Call pace after each function cli.verify_report checks.

    verify_report binds the module's _verify_one when it is called, so a
    wrapper put there for the duration sees every function; the report is
    the library's own.
    """
    one = cli._verify_one

    def paced(*args, **kwargs):
        result = one(*args, **kwargs)
        pace()
        return result

    with mock.patch.object(cli, "_verify_one", paced):
        yield


def _attempt(call):
    """Run one operation; an exception becomes a string that check() counts as failed."""
    try:
        return call()
    except Exception as exc:
        return f"error: {exc!r}"


def prefill(inp: dict, seed: int, cache_dir: str, between) -> None:
    for h in inp["prefill"]:
        cli.analyze_report(h, seed=seed, cache_dir=cache_dir)
        between()


def check(workload, inp, seed, exp, outputs, out: Outcome, cache_dir, reference):
    """Count each operation of a pass as passed or failed; returns the reference digests."""
    if workload == "verify-n6":
        report = json.loads(outputs)
        sweep_ok = report["functions"] == exp["functions"] == len(inp["functions"])
        bad = {v["h"] for v in report["violations"]}
        for h in inp["functions"]:
            name = hessenberg_str(h)
            out.record(sweep_ok and name not in bad and _betti_ok(betti_rs(h), exp), f"verify h={name}")
    elif workload == "analyze-n6-cache":
        texts, fetched = outputs
        if reference is None:
            reference = {
                hessenberg_str(h): digest(cli.render(cli.analyze_report(h, seed=seed), "json"))
                for h in inp["functions"]
            }
        for h, text in texts.items():
            name = hessenberg_str(h)
            ok = digest(text) == reference[name] and _betti_ok(json.loads(text)["betti"], exp)
            out.record(ok, f"analyze h={name}")
        out.record(_all_stored(cache_dir, fetched), "a key analyze_report fetched is not in the cache")
    else:
        for h, g, reports in outputs:
            graph_ok = not isinstance(g, str) and morse_betti(g) == betti_rs(h) and _betti_ok(betti_rs(h), exp)
            for J, report in zip(inp["Js"], reports):
                ok = graph_ok and isinstance(report, dict) and report["verdicts"]["all"] is True
                out.record(ok, f"kahler h={hessenberg_str(h)} J={J}")
    return reference


def trace_characters(t, h, Js, seed, springer: bool) -> None:
    with t.span("dotchar.chromatic_qsym"):
        X = chromatic_qsym(h)
    t.count("dotchar.colorings", coloring_count(X))
    with t.span("dotchar.dot_action_multiplicities"):
        dot_action_multiplicities(h)
    for J in Js:
        with t.span("dotchar.regular_betti"):
            regular_betti(h, J)
    if springer:
        trace_springer(t, h, seed)


def trace_springer(t, h, seed) -> None:
    with t.span("springer.generic_jordan_type"):
        generic_jordan_type(h, seed=seed)
    with t.span("springer.support_violations"):
        support_violations(h, seed=seed)


def trace_gkm(t, h, Js, seed):
    with t.span("gkm.build_gkm"):
        g = build_gkm(h, seed=seed)
    for vid in range(len(g.vertices)):
        with t.span("gkm.flow_up_class"):
            flow_up_class(g, vid)
    for J in Js:
        with t.span("gkm.invariant_subring"):
            invariant_subring(g, J)
    for J in Js:
        for k in range(0, 2 * (g.l // 2) + 1, 2):
            with t.span("gkm.poincare_pairing"):
                poincare_pairing(g, k, J)
    reports = []
    for J in Js:
        with t.span("gkm.kahler_report"):
            reports.append(kahler_report(g, J))
    return g, reports


@contextmanager
def watch_analyze(fetched: list, t=None):
    """Log the key of every cache fetch cli.analyze_report makes.

    With a tracer, the library functions analyze_report reaches are also
    replaced, for the duration, by wrappers from this file that open a span
    around each call; the fetch wrapper counts hits and misses, and the
    chromatic_qsym wrapper counts the colorings of each h the first time it
    is asked for it (the library memoizes it).  Nothing in the library changes.
    """
    fetch = cli.cache_fetch

    def logged_fetch(cache_dir, key):
        payload = fetch(cache_dir, key)
        fetched.append(key)
        if t is not None:
            t.count("cli.cache_hits" if payload is not None else "cli.cache_misses")
        return payload

    patches = [(cli, "cache_fetch", logged_fetch)]
    if t is not None:
        seen = set()

        def counted_chromatic(h, *args, **kwargs):
            X = chromatic(h, *args, **kwargs)
            if tuple(h) not in seen:
                seen.add(tuple(h))
                t.count("dotchar.colorings", coloring_count(X))
            return X

        chromatic = t.wrap("dotchar.chromatic_qsym", dotchar.chromatic_qsym)
        multiplicities = t.wrap("dotchar.dot_action_multiplicities", dotchar.dot_action_multiplicities)
        patches = [
            (cli, "cache_fetch", t.wrap("cli.cache_fetch", logged_fetch)),
            (cli, "cache_store", t.wrap("cli.cache_store", cli.cache_store)),
            (cli, "analyze_report", t.wrap("cli.analyze_report", cli.analyze_report)),
            (cli, "dot_action_multiplicities", multiplicities),
            (cli, "regular_betti", t.wrap("dotchar.regular_betti", cli.regular_betti)),
            (cli, "generic_jordan_type", t.wrap("springer.generic_jordan_type", cli.generic_jordan_type)),
            (dotchar, "dot_action_multiplicities", multiplicities),
            (dotchar, "chromatic_qsym", counted_chromatic),
        ]
    with ExitStack() as stack:
        for module, name, replacement in patches:
            stack.enter_context(mock.patch.object(module, name, replacement))
        yield


def _all_stored(cache_dir, fetched) -> bool:
    """Whether every fetched key is in the cache now, read by the library's own fetch."""
    return bool(fetched) and all(cli.cache_fetch(cache_dir, key) is not None for key in fetched)


def probe(layers, seed, out: Outcome, t, cache_dir) -> None:
    """Time the given bypassed layers on the fixed small case PROBE_H."""
    Js = cli.all_parabolic_subsets(len(PROBE_H))
    name = hessenberg_str(PROBE_H)
    for layer in layers:
        if layer == "gkm":
            _, reports = trace_gkm(t, PROBE_H, Js, seed)
            out.record(all(r["verdicts"]["all"] for r in reports), f"probe kahler h={name}")
        elif layer == "springer":
            with t.span("springer.generic_jordan_type"):
                generic_jordan_type(PROBE_H, seed=seed)
        elif layer == "support":
            with t.span("springer.support_violations"):
                violations = support_violations(PROBE_H, seed=seed)
            out.record(violations == [], f"probe support h={name}")
        else:
            fetched = []
            with watch_analyze(fetched, t):
                cold = cli.render(cli.analyze_report(PROBE_H, seed=seed, cache_dir=cache_dir), "json")
                warm = cli.render(cli.analyze_report(PROBE_H, seed=seed, cache_dir=cache_dir), "json")
            plain = cli.render(cli.analyze_report(PROBE_H, seed=seed), "json")
            ok = cold == warm == plain and _all_stored(cache_dir, fetched)
            out.record(ok, f"probe analyze cache h={name}")
