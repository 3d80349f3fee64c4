#!/usr/bin/env python3
"""polyscope benchmark: one workload per run, checked, with metrics as JSON.

Run from the repository root:

    python3 perfbench/run.py --workload analytic-sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

``--trace 0`` measures the end-to-end metrics listed in ``BENCHMARK.json``;
``--trace 1`` runs every op twice, once traced and once not, and reports the
per-layer metrics, writing the spans to ``.perfbench/trace-*.json``.  The
last line of standard output is always the JSON result; the lines before it
are the human-readable report.  ``--write-reference`` re-records the outputs
that runs on the default seed are compared with.

The benchmark imports the package from ``src/`` next to this directory and
exits with status 2, printing no result, when that is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

# One BLAS thread: on a small shared machine a second BLAS thread waits on
# the busiest core and makes op times swing; the report records the count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: A run sets up at least this many times and for at least this long;
#: ``setup_s`` is the median set-up.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0

#: Samples the tail percentile must leave beyond it.
TAIL_BEYOND = 10


def import_polyscope() -> str | None:
    """Import the package from this checkout's ``src``; return an error."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import polyscope
    except ImportError as exc:
        return f"cannot import polyscope from {src}: {exc}"
    found = Path(polyscope.__file__).resolve().parent.parent
    if found != src:
        return f"polyscope was imported from {found}, not from {src}"
    return None


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "validate_threads": int(os.environ["POLYSCOPE_THREADS"]),
        "seed": seed,
    }


#: Probe time that reported times are scaled to (see ``measure``).
NOMINAL_PROBE_S = 0.005

_PROBE_FLAGS = [(k * 7919) % 10 < 7 for k in range(20000)]


def interpreter_probe() -> float:
    """Time pure-Python loops and small-array numpy calls."""
    import numpy as np
    start = time.perf_counter()
    best = run = 0
    for flag in _PROBE_FLAGS:
        run = run + 1 if flag else 0
        best = max(best, run)
    x = np.linspace(-1.0, 1.0, 64)
    for _ in range(500):
        x = np.abs(x * 0.5 + 1.0)
    return time.perf_counter() - start


@functools.cache
def _probe_systems():
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((32, 12, 12))
    return a @ a.transpose(0, 2, 1) + 12 * np.eye(12), rng.standard_normal((32, 12, 1))


def linear_algebra_probe() -> float:
    """Time batched small Hermitian eigen-solves and linear solves."""
    import numpy as np
    a, b = _probe_systems()
    start = time.perf_counter()
    for _ in range(20):
        np.linalg.eigvalsh(a)
        np.linalg.solve(a, b)
    return time.perf_counter() - start


#: A workload's ``probe`` names the probe that tracks its ops best.
PROBES = {"interpreter": interpreter_probe, "linear-algebra": linear_algebra_probe}


def tail(values: list[float], percentile: float) -> tuple[float, str]:
    """The workload's tail percentile, and a note naming it."""
    import numpy as np
    value = float(np.percentile(values, percentile))
    beyond = sum(1 for v in values if v > value)
    note = f"p{percentile:g} of {len(values)} ops, {beyond} beyond"
    if beyond < TAIL_BEYOND:
        note += f" (fewer than {TAIL_BEYOND}: run longer)"
    return value, note


class Execution:
    """One op run: what its checks found, and its time in segments.

    The runner probes the machine's speed between segments (before the op,
    at each ``pause`` the op makes, and after it); ``factors[j]`` scales
    segment ``j`` by the probes on either side of it.
    """

    __slots__ = ("op", "traced", "segments", "factors", "problems", "cmd_ms")

    def __init__(self, op, traced, segments, problems, cmd_ms):
        self.op, self.traced, self.segments = op, traced, segments
        self.problems, self.cmd_ms = problems, cmd_ms
        self.factors = [1.0] * len(segments)

    @property
    def seconds(self) -> float:
        return sum(self.segments)

    @property
    def scaled(self) -> float:
        return sum(s * f for s, f in zip(self.segments, self.factors))


def measure(cls, seed: int, seconds: float, traced: bool, sizes: dict,
            workdir: Path):
    """Set up repeatedly (see ``SETUP_REPEATS``), then run ops until
    ``seconds`` have passed and the current cycle of the input mix is
    complete.

    On a small shared machine the speed of identical work can drift by a
    third within a minute, and CPU time drifts with it, so raw wall times
    are not comparable between runs.  A probe of the benchmark's own fixed
    work is therefore timed around every set-up, op and ``pause`` an op
    makes between its stages; each stretch of time is scaled by
    ``NOMINAL_PROBE_S`` over the mean of the probes on either side.  Set-up
    work is interpreter-bound in every workload, so set-ups use that probe.

    In a traced run each op runs twice, traced and untraced in alternating
    order, so the tracing overhead is measured on identical work.
    """
    from polyscope import collect
    from tracer import NULL, Tracer

    tracer = Tracer() if traced else None
    around = [interpreter_probe()]
    setup_s = []
    began = time.perf_counter()
    while len(setup_s) < SETUP_REPEATS or time.perf_counter() - began < SETUP_SECONDS:
        wl = cls(seed, sizes, workdir)
        start = time.perf_counter()
        wl.setup(tracer or NULL)
        took = time.perf_counter() - start
        around.append(interpreter_probe())
        setup_s.append(took * 2 * NOMINAL_PROBE_S / (around[-2] + around[-1]))
    probe = PROBES[cls.probe]
    probes = [probe()]

    def execute(i: int, with_trace: bool) -> tuple[Execution, list[float]]:
        tr = tracer if with_trace else NULL
        if with_trace:
            tracer.op = i
        out = None
        bounds, inner = [], []

        def pause():
            with tr.span("bench.probe"):
                bounds.append(time.perf_counter())
                inner.append(probe())
                bounds.append(time.perf_counter())

        wl.pause = pause
        bounds.append(time.perf_counter())
        try:
            with tr.span("op"), (collect() if wl.collects_events
                                 else nullcontext([])) as events:
                out = wl.op(i, tr)
            bounds.append(time.perf_counter())
            if wl.collects_events:
                out["events"] = dict(Counter(e.category for e in events))
            for category, count in out["events"].items():
                tr.count(f"diagnostics.{category}", count)
            tr.count("diagnostics.events", sum(out["events"].values()))
            problems = wl.check(i, out)
        except Exception as exc:   # a failed op is counted, not fatal
            if len(bounds) % 2:
                bounds.append(time.perf_counter())
            problems = [f"op {i}: {type(exc).__name__}: {exc}"]
        finally:
            if with_trace:
                tracer.op = None
        cmd_ms = out.get("cmd_ms", {}) if out else {}
        if out is not None:
            wl.release(out)
        segments = [b - a for a, b in zip(bounds[::2], bounds[1::2])]
        return Execution(i, with_trace, segments, problems, cmd_ms), inner

    runs: list[Execution] = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or i % wl.cycle or time.perf_counter() < deadline:
        order = (True, False) if i % 2 else (False, True)
        for with_trace in (order if traced else (False,)):
            run, inner = execute(i, with_trace)
            around = [probes[-1]] + inner + [probe()]
            run.factors = [2 * NOMINAL_PROBE_S / (a + b)
                           for a, b in zip(around, around[1:])]
            probes += around[1:]
            runs.append(run)
        i += 1
    return wl, tracer, setup_s, runs, probes


def end_to_end(wl, setup_s, runs, probes) -> tuple[dict, list[str]]:
    times = [r.scaled for r in runs]
    raw = [r.seconds for r in runs]
    failed = sum(1 for r in runs if r.problems)
    p_tail, tail_note = tail(times, wl.tail_percentile)
    values = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": len(times) / sum(times),
        "op_ms_p50": statistics.median(times) * 1e3,
        "op_ms_tail": p_tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    notes = {
        "setup_s": f"median of {len(setup_s)} set-ups",
        "ops_per_s": f"{len(times)} ops in {sum(times):.3f} s of op time",
        "op_ms_p50": f"median of {len(times)} ops; unscaled "
                     f"{statistics.median(raw) * 1e3:.6g} ms",
        "op_ms_tail": tail_note,
        "peak_rss_mb": "getrusage, whole process",
    }
    lines = [f"times scaled to a {NOMINAL_PROBE_S * 1e3:g} ms probe; the probe "
             f"took {statistics.median(probes) * 1e3:.4g} ms (median of "
             f"{len(probes)}), so scaled ms = raw ms x "
             f"{statistics.median(f for r in runs for f in r.factors):.4g}"]
    lines += [f"{name:<20} {value:>14.6g}  ({notes[name]})"
              for name, value in values.items()]
    lines.append(f"{'error_rate':<20} {failed / len(runs):>14.6g}  "
                 f"({failed} of {len(runs)} ops failed or wrong)")
    commands = sorted({c for r in runs for c in r.cmd_ms})
    for command in commands:
        # a CLI op pauses after each command, so command j is segment j
        samples = [ms * r.factors[j] for r in runs
                   for j, (c, ms) in enumerate(r.cmd_ms.items()) if c == command]
        lines.append(f"{'cmd.' + command + '_ms':<20} "
                     f"{statistics.median(samples):>14.6g}  "
                     f"(median of {len(samples)} calls)")
    return values, lines


def per_layer(wl, tracer, setups: int, runs, names: list[str]
              ) -> tuple[dict, list[str]]:
    traced_ops = {r.op for r in runs if r.traced}
    first_cycle = {op for op in traced_ops if op < wl.cycle}
    self_ms = tracer.per_op_self_ms(traced_ops)
    counts = tracer.per_op_counts(first_cycle)
    t_on = sum(r.scaled for r in runs if r.traced)
    t_off = sum(r.scaled for r in runs if not r.traced)
    values = {
        "trace.overhead_pct": (t_on / t_off - 1.0) * 100.0,
        "trace.spans_per_op": sum(tracer.per_op_calls(traced_ops).values()),
        "bench.op_self_ms": self_ms.get("op", 0.0),
        "cli.main.self_ms": sum(ms for name, ms in self_ms.items()
                                if name.startswith("cli.main.")),
        "aln.draw_accept_ratio":
            counts.get("aln.accepted", 0) / counts["aln.check_identifiability.calls"]
            if counts.get("aln.check_identifiability.calls") else 0.0,
    }
    if hasattr(wl, "probe_memory"):
        values.update(wl.probe_memory())
    for kind in ("ingest", "emit"):
        ms = self_ms.get(f"cli.{kind}", 0.0)
        per_op_bytes = tracer.per_op_counts(traced_ops).get(f"cli.{kind}.bytes", 0)
        values[f"cli.{kind}.mb_per_s"] = per_op_bytes / 1e6 / (ms / 1e3) if ms else 0.0
    for name in names:
        if name in values:
            continue
        if name.startswith("cmd."):
            samples = [r.cmd_ms[name[4:-3]] for r in runs
                       if r.traced and name[4:-3] in r.cmd_ms]
            values[name] = statistics.median(samples) if samples else 0.0
        elif name.endswith(".ms"):
            values[name] = self_ms.get(name[:-3], 0.0)
        else:
            values[name] = counts.get(name, 0.0)
    op_ms = statistics.fmean(r.seconds for r in runs if r.traced) * 1e3
    calls = tracer.per_op_calls(traced_ops)
    lines = [f"{'span':<36} {'calls/op':>9} {'self ms/op':>11} {'share':>7}"]
    for span_name, ms in sorted(self_ms.items(), key=lambda kv: -kv[1]):
        lines.append(f"{span_name:<36} {calls[span_name]:>9.4g} {ms:>11.4f} "
                     f"{ms / op_ms:>7.1%}")
    setup_self = tracer.per_op_self_ms({None})
    for span_name, ms in sorted(setup_self.items()):
        lines.append(f"{'(set-up) ' + span_name:<36} {'':>9} "
                     f"{ms / setups:>11.4f} per set-up")
    return {name: values[name] for name in names}, lines


def write_reference(cls, workdir: Path) -> None:
    from tracer import NULL
    from workloads import DEFAULT_SEED
    wl = cls(DEFAULT_SEED, cls.FULL, workdir)
    wl.reference = None
    wl.setup(NULL)
    outs = [wl.op(i, NULL) for i in range(wl.cycle)]
    record = wl.reference_record(outs)
    for out in outs:
        wl.release(out)
    wl.reference_path.parent.mkdir(exist_ok=True)
    wl.reference_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.reference_path.relative_to(ROOT)}")


def run_one(args, bench: dict) -> int:
    error = import_polyscope()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    cls = WORKLOADS[args.workload]
    os.environ["POLYSCOPE_THREADS"] = str(len(os.sched_getaffinity(0)))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        if args.write_reference:
            write_reference(cls, workdir)
            return 0
        info = machine(args.seed)
        wl, tracer, setup_s, runs, probes = measure(cls, args.seed, args.seconds,
                                            bool(args.trace), cls.FULL, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [r for r in runs if r.problems]
    print(f"perfbench {cls.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("machine: " + json.dumps(info, sort_keys=True))
    for r in failed[:5]:
        print(f"FAILED op {r.op}: " + "; ".join(r.problems[:3]))
    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values, lines = per_layer(wl, tracer, len(setup_s), runs, names)
        trace_path = OUT_DIR / f"trace-{cls.name}-seed{args.seed}.json"
        tracer.write(trace_path, {"machine": info, "workload": cls.name,
                                  "metrics": values})
        lines.append(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values, lines = end_to_end(wl, setup_s, runs, probes)
    for line in lines:
        print(line)
    if args.trace:
        for name, value in values.items():
            print(f"{name:<40} {value:>14.6g} {units[name]}")
    result = {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args, bench: dict) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]) + "\n")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    choices = [w["name"] for w in bench["workloads"]] + ["all"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=choices, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the default-seed outputs of --workload")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, bench)
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
