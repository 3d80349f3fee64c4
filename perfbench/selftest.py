#!/usr/bin/env python3
"""Smoke self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For each workload it runs the measuring loop once untraced and once traced
and requires every op to pass its checks.  It then perturbs one output on
purpose and requires the checks to report it.  Last, it runs the benchmark
in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` and
requires it to fail without printing a result.  Exits 0 when all hold.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

from run import OUT_DIR, ROOT, import_polyscope, measure

SEED = 3


def perturbations(cls, workdir):
    """Yield (what was perturbed, problems the checks reported); the first
    yield is the unperturbed op, which must report none."""
    from tracer import NULL
    from workloads import REFERENCE_ATOL

    wl = cls(SEED, cls.SMOKE, workdir)
    wl.setup(NULL)
    first = wl.op(0, NULL)
    first["events"] = {}
    yield "unperturbed", wl.check(0, first)
    wl.reference = wl.reference_record([first])
    if cls.name == "analytic-sweep":
        again = wl.op(0, NULL)
        again["result"]["mst_edges"][0] = [0, 0]
        yield "analytic MST edge replaced", wl.check(0, again)
        again = wl.op(0, NULL)
        again["result"]["direction_accuracy"] += 10 * REFERENCE_ATOL
        yield "polytree orientation score off the reference", wl.check(0, again)
    elif cls.name == "wide-network":
        again = wl.op(1, NULL)
        again["events"] = {}
        again["result"]["distance"][0][1] += 10 * REFERENCE_ATOL
        yield "one coherence distance moved", wl.check(1, again)
    else:
        again = wl.op(1, NULL)
        again["events"] = first["events"]
        edges = again["base"] / "analyze" / "edges.csv"
        edges.write_text(edges.read_text().replace("a_to_b", "b_to_a", 1))
        yield "analyze edges.csv orientation flipped", wl.check(1, again)
        wl.release(again)
    wl.release(first)


def bare_checkout_fails() -> str | None:
    """The benchmark must refuse to run without the package source."""
    bare = OUT_DIR / f"bare-{os.getpid()}"
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "analytic-sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return f"exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"
    return None


def main() -> int:
    error = import_polyscope()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    os.environ["POLYSCOPE_THREADS"] = str(len(os.sched_getaffinity(0)))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"selftest-{os.getpid()}"
    failures = []
    try:
        for cls in WORKLOADS.values():
            for traced in (False, True):
                runs = measure(cls, SEED, 0, traced, cls.SMOKE, workdir)[3]
                bad = [p for r in runs for p in r.problems]
                status = "ok" if not bad else "FAILED: " + "; ".join(bad[:3])
                print(f"{cls.name} trace={int(traced)}: {len(runs)} ops {status}")
                failures += bad
            for what, problems in perturbations(cls, workdir):
                if what == "unperturbed":
                    ok, verdict = not problems, "passes" if not problems else "FAILS"
                else:
                    ok, verdict = bool(problems), "caught" if problems else "NOT CAUGHT"
                print(f"{cls.name} {what}: {verdict}"
                      + (f" ({problems[0]})" if problems else ""))
                if not ok:
                    failures.append(f"{cls.name}: {what}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bare = bare_checkout_fails()
    print("bare checkout: " + ("fails as it must" if bare is None else "RAN: " + bare))
    if bare:
        failures.append("bare checkout ran")
    print("selftest " + ("passed" if not failures else f"FAILED ({len(failures)})"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
