"""The benchmark's workloads: set-up, one op, and the checks on its output.

Each workload is a closed loop with one caller.  Inputs come only from the
run seed.  The workloads call the public functions of ``polyscope`` and
``polyscope.cli.main``; every call is timed from outside through the tracer.

A workload object offers:

* ``setup(tracer)``: everything the ops need, repeated for ``setup_s``;
* ``op(i, tracer)``: op ``i``, returning a dict of raw outputs;
* ``check(i, out)``: problems found in those outputs (empty when correct);
* ``release(out)``: drop files the op left behind;
* ``cycle``: ops that together cover the workload's input mix once.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

from polyscope import (
    FrequencyGrid,
    WelchConfig,
    analytic_spectra,
    build_polytree,
    causal_distance_matrix,
    check_identifiability,
    distance_matrix,
    generate_polytree_aln,
    minimum_spanning_tree,
    miso_blanket_topology,
    orthogonal_least_squares,
    run_recovery,
    simulate,
    spectral_matrix,
)
from polyscope import cli

#: Seed the reference outputs in ``reference/`` were recorded with.
DEFAULT_SEED = 0

#: Absolute tolerance on real numbers compared against the reference.
REFERENCE_ATOL = 1e-9

#: Draws allowed before a network counts as unidentifiable (as ``validate``).
DRAW_ATTEMPTS = 100

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Seed streams, so set-up draws, op draws and simulated noise never coincide.
_OPS, _SETUP, _NOISE = 0, 1, 2


def _seed(*words: int) -> int:
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


def _plain(value):
    """JSON round trip: tuples become lists, keys become strings."""
    return json.loads(json.dumps(value))


def mismatches(actual, expected, atol: float, where: str = "") -> list[str]:
    """Differences between two JSON-like values; floats may differ by atol."""
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(actual, (int, float)) and isinstance(expected, (int, float)) \
                and abs(actual - expected) <= atol:
            return []
        return [f"{where or 'value'}: {actual!r} != {expected!r}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if actual.keys() != expected.keys():
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [m for k in expected
                for m in mismatches(actual[k], expected[k], atol, f"{where}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        return [m for k, (a, e) in enumerate(zip(actual, expected))
                for m in mismatches(a, e, atol, f"{where}[{k}]")]
    return [] if actual == expected else [f"{where}: {actual!r} != {expected!r}"]


def draw_identifiable(tracer, n: int, grid: FrequencyGrid, *stream: int):
    """First identifiable network of ``n`` nodes on the seeded stream."""
    for attempt in range(DRAW_ATTEMPTS):
        spec = tracer.call("aln.generate", generate_polytree_aln, n,
                           _seed(*stream, attempt))
        report = tracer.call("aln.check_identifiability",
                             check_identifiability, spec, grid)
        tracer.count("aln.check_identifiability.calls")
        if report.passed:
            tracer.count("aln.accepted")
            return spec, attempt + 1
    raise RuntimeError(f"no identifiable {n}-node network in "
                       f"{DRAW_ATTEMPTS} draws")


class _Workload:
    cycle = 1
    #: Percentile reported as ``op_ms_tail``: the highest that leaves at
    #: least ten ops beyond it in a default-length run, fixed per workload
    #: so that a faster program does not move it to another percentile.
    tail_percentile = 50
    #: Probe whose speed tracks the ops' speed (see ``run.PROBES``).
    probe = "interpreter"
    #: Whether the runner gathers diagnostics with ``polyscope.collect``.
    collects_events = True

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.first = None          # summary of op 0, for determinism checks
        self.reference = None
        self.reference_path = REFERENCE_DIR / f"{self.name}.json"
        if seed == DEFAULT_SEED and sizes == self.FULL and self.reference_path.is_file():
            self.reference = json.loads(self.reference_path.read_text())

    def release(self, out: dict) -> None:
        pass

    def pause(self) -> None:
        """Called between an op's stages; the runner probes the machine's
        speed here, outside the op's time."""

    def summary(self, out: dict):
        return _plain(out["result"])

    def _against_first(self, summary) -> list[str]:
        if self.first is None:
            self.first = summary
            return []
        return [f"not deterministic: {m}"
                for m in mismatches(summary, self.first, 0.0)[:3]]


class AnalyticSweep(_Workload):
    """One op is one trial: draw an identifiable network (n from 4 to 16),
    then recover it from analytic spectra with the MST and the polytree
    pipeline.

    Sizes are visited in a seeded random order, each once per cycle, so
    every run covers the same mix of network sizes.  Trial time grows
    steeply with n, so the median op is a median of the middle size alone;
    five sizes leave it about seventy trials a run, where all thirteen sizes
    from 4 to 16 left it twenty-five and moved it by 9% between runs.
    """

    name = "analytic-sweep"
    tail_percentile = 90
    FULL = {"nodes": [4, 7, 10, 13, 16], "grid_size": 256}
    SMOKE = {"nodes": [4, 5], "grid_size": 128}

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.cycle = len(sizes["nodes"])

    def setup(self, tracer) -> None:
        # one warm-up trial of the middle size, on a stream the ops never use
        nodes = self.sizes["nodes"]
        self._trial(tracer, nodes[len(nodes) // 2], self.seed, _SETUP, 0)

    def size_of(self, i: int) -> int:
        order = np.random.default_rng([self.seed, i // self.cycle]).permutation(self.cycle)
        return self.sizes["nodes"][int(order[i % self.cycle])]

    def op(self, i: int, tracer) -> dict:
        return self._trial(tracer, self.size_of(i), self.seed, _OPS, i)

    def _trial(self, tracer, n: int, *stream: int) -> dict:
        grid_size = self.sizes["grid_size"]
        spec, draws = draw_identifiable(tracer, n, FrequencyGrid(grid_size), *stream)
        cfg = WelchConfig(grid_size=grid_size)
        mst = tracer.call("aln.run_recovery", run_recovery, spec, mode="analytic",
                          pipeline="mst-coherence", cfg=cfg)
        poly = tracer.call("aln.run_recovery", run_recovery, spec, mode="analytic",
                           pipeline="polytree-causal", cfg=cfg)
        return {"result": {
            "n": n, "draws": draws, "spec_seed": spec.seed,
            "true_edges": mst.true_edges,
            "mst_edges": mst.recovered_edges,
            "polytree_edges": poly.recovered_edges,
            "direction_accuracy": poly.direction_accuracy,
            "tie_count": poly.tie_count,
        }}

    def check(self, i: int, out: dict) -> list[str]:
        result = self.summary(out)
        problems = []
        if result["mst_edges"] != result["true_edges"]:
            problems.append(f"trial {i}: analytic MST of a {result['n']}-node "
                            f"identifiable network is not exact")
        if self.reference is not None and i < len(self.reference):
            problems += [f"trial {i} vs reference: {m}" for m in
                         mismatches(result, self.reference[i], REFERENCE_ATOL)[:3]]
        return problems

    def reference_record(self, outs: list[dict]):
        return [self.summary(out) for out in outs[:self.cycle]]


class WideNetwork(_Workload):
    """One op recovers a 32-node topology from one pre-simulated record:
    spectra, both distance matrices, MST, polytree, MISO blankets and an
    OLS selection for every target.  Simulation happens in set-up.
    """

    name = "wide-network"
    probe = "linear-algebra"
    FULL = {"n": 32, "length": 2 ** 13, "grid_size": 64, "budget": 2}
    SMOKE = {"n": 6, "length": 2 ** 12, "grid_size": 64, "budget": 2}

    def setup(self, tracer) -> None:
        n, grid = self.sizes["n"], FrequencyGrid(self.sizes["grid_size"])
        spec, _ = draw_identifiable(tracer, n, grid, self.seed, _SETUP)
        truth = tracer.call("aln.analytic_spectra", analytic_spectra, spec, grid)
        tree = minimum_spanning_tree(distance_matrix(truth))
        skeleton = {frozenset(e) for e in spec.to_polytree().edges}
        # the paper's guarantee, checked on the network every op recovers
        self.setup_problems = [] if {frozenset(e) for e in tree.edges} == skeleton \
            else ["set-up: analytic MST of the wide network is not exact"]
        sim = tracer.call("aln.simulate", simulate, spec, self.sizes["length"],
                          _seed(self.seed, _NOISE))
        self.ensemble = sim.ensemble

    def op(self, i: int, tracer) -> dict:
        n, k = self.sizes["n"], self.sizes["grid_size"]
        cfg = WelchConfig(grid_size=k)
        S = tracer.call("signals.spectral_matrix", spectral_matrix, self.ensemble, cfg)
        self.pause()
        segments = cfg.segments_available(self.ensemble.length)
        tracer.count("signals.segment_dfts", n * segments)
        tracer.count("signals.segment_dft_mb", n * segments * k * 16 / 1e6)
        D = tracer.call("metric.distance_matrix", distance_matrix, S)
        tracer.count("metric.pairs", n * (n - 1) // 2)
        tree = tracer.call("topology.minimum_spanning_tree", minimum_spanning_tree, D)
        DC = tracer.call("metric.causal_distance_matrix", causal_distance_matrix, S)
        tracer.count("metric.causal_solves", n * (n - 1))
        self.pause()
        poly = tracer.call("topology.build_polytree", build_polytree, DC)
        blanket = tracer.call("topology.miso_blanket_topology",
                              miso_blanket_topology, S, D)
        supports = []
        for target in range(n):
            if target % 8 == 0:
                self.pause()
            model = tracer.call("sparse.orthogonal_least_squares",
                                orthogonal_least_squares, S, target,
                                self.sizes["budget"])
            tracer.count("sparse.support_size", len(model.support))
            supports.append(list(model.support))
        return {"result": {
            "distance": D.values.tolist(),
            "causal_distance": DC.values.tolist(),
            "mst_edges": sorted(tree.edges),
            "polytree_edges": sorted(poly.edges),
            "polytree_ties": sorted(poly.ties),
            "blanket_edges": sorted(blanket.edges),
            "ols_supports": supports,
        }}

    def check(self, i: int, out: dict) -> list[str]:
        summary = self.summary(out)
        problems = list(self.setup_problems)
        problems += self._against_first(dict(summary, events=out["events"]))
        if self.reference is not None:
            problems += [f"op {i} vs reference: {m}" for m in
                         mismatches(summary, self.reference, REFERENCE_ATOL)[:3]]
        return problems

    def reference_record(self, outs: list[dict]):
        return self.summary(outs[0])

    def probe_memory(self) -> dict:
        """Peak traced allocation of one ``spectral_matrix`` call, in MB."""
        tracemalloc.start()
        try:
            spectral_matrix(self.ensemble, WelchConfig(grid_size=self.sizes["grid_size"]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return {"signals.spectral_matrix.peak_mb": peak / 1e6}


def _read_matrix(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {"labels": rows[0][1:],
            "values": [[float(x) for x in row[1:]] for row in rows[1:]]}


def _read_edges(path: Path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [[r["node_a"], r["node_b"], float(r["weight"]), r["direction"],
             r["tie_flag"]] for r in rows]


class CliRoundtrip(_Workload):
    """One op runs five ``cli.main`` calls into a fresh directory: simulate a
    record, then analyze (polytree), sparse and compare on its CSV, and a
    short analytic validate with one worker thread per core.
    """

    name = "cli-roundtrip"
    FULL = {"nodes": 8, "length": 2 ** 14, "grid_size": 1024,
            "window_length": 4096, "trials": 2, "validate_nodes": "8"}
    SMOKE = {"nodes": 4, "length": 2 ** 12, "grid_size": 128,
             "window_length": 1024, "trials": 2, "validate_nodes": "4-5"}
    COMMANDS = ("simulate", "analyze", "sparse", "compare", "validate")
    READERS = ("analyze", "sparse", "compare")
    # ``cli.main`` runs its own collector, and a second collector around it
    # breaks: ``diagnostics.collect`` removes its sink by equality, so two
    # sinks holding the same events get confused.  Diagnostics are read from
    # each manifest instead (distinct warnings, as the manifest lists them).
    collects_events = False

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self._runs = 0

    def setup(self, tracer) -> None:
        # a warm-up op: first calls pay for lazy imports and cold files
        out = self.op(-1, tracer)
        self.setup_problems = self._run_problems(out)
        self.release(out)

    def _argv(self, command: str, base: Path) -> list[str]:
        s = self.sizes
        csv_path = str(base / "simulate" / "ensemble.csv")
        grid = ["--grid-size", str(s["grid_size"])]
        argv = {
            "simulate": ["--nodes", str(s["nodes"]), "--length", str(s["length"]),
                         "--seed", str(self.seed)],
            "analyze": ["--input", csv_path, "--pipeline", "polytree"] + grid,
            "sparse": ["--input", csv_path] + grid,
            "compare": ["--input", csv_path, "--window-length",
                        str(s["window_length"])] + grid,
            "validate": ["--trials", str(s["trials"]), "--nodes",
                         s["validate_nodes"], "--mode", "analytic",
                         "--seed", str(self.seed)] + grid,
        }[command]
        return [command] + argv + ["--out", str(base / command)]

    def op(self, i: int, tracer) -> dict:
        self._runs += 1
        base = self.workdir / f"op{self._runs}"
        status, cmd_ms, events = {}, {}, Counter()
        for command in self.COMMANDS:
            if command != self.COMMANDS[0]:
                self.pause()
            with tracer.span(f"cli.main.{command}") as span:
                start = time.perf_counter()
                status[command] = cli.main(self._argv(command, base))
                cmd_ms[command] = (time.perf_counter() - start) * 1e3
            manifest_path = base / command / "manifest.json"
            timings = {}
            if manifest_path.is_file():
                manifest = json.loads(manifest_path.read_text())
                timings = manifest["volatile"]["timings_ms"]
                events.update(w.split(":", 1)[0] for w in manifest["warnings"])
            # stage durations are exact; their placement inside the call is
            # reconstructed in the order the command ran them
            at = start
            for stage, ms in timings.items():
                tracer.add_child(span, f"cli.{stage}", at, ms)
                at += ms / 1e3
        input_bytes = (base / "simulate" / "ensemble.csv").stat().st_size \
            if status["simulate"] == 0 else 0
        tracer.count("cli.ingest.bytes", input_bytes * len(self.READERS))
        tracer.count("cli.emit.bytes", self._emitted_bytes(base))
        return {"base": base, "status": status, "cmd_ms": cmd_ms,
                "events": dict(events)}

    def _emitted_bytes(self, base: Path) -> int:
        total = 0
        for command in self.COMMANDS:
            path = base / command / "manifest.json"
            if path.is_file():
                for entry in json.loads(path.read_text())["outputs"]:
                    total += (base / command / entry["file"]).stat().st_size
        return total

    def _run_problems(self, out: dict) -> list[str]:
        problems = [f"{cmd} exited with {code}"
                    for cmd, code in out["status"].items() if code != 0]
        for command in self.COMMANDS:
            folder = out["base"] / command
            path = folder / "manifest.json"
            if not path.is_file():
                problems.append(f"{command}: no manifest")
                continue
            for entry in json.loads(path.read_text())["outputs"]:
                target = folder / entry["file"]
                if not target.is_file() or hashlib.sha256(
                        target.read_bytes()).hexdigest() != entry["sha256"]:
                    problems.append(f"{command}: {entry['file']} does not match "
                                    f"its manifest SHA-256")
        return problems

    def summary(self, out: dict) -> dict:
        base = out["base"]
        shas = {}
        for command in self.COMMANDS:
            manifest = json.loads((base / command / "manifest.json").read_text())
            shas[command] = {e["file"]: e["sha256"] for e in manifest["outputs"]}
        sparse = {}
        for name in sorted(shas["sparse"]):
            payload = json.loads((base / "sparse" / name).read_text())
            sparse[payload["target"]] = payload["support"]
        report = json.loads((base / "validate" / "validation_report.json").read_text())
        a, c = base / "analyze", base / "compare"
        return _plain({
            "artifacts": shas,
            "distance_noncausal": _read_matrix(a / "distance_noncausal.csv"),
            "distance_causal": _read_matrix(a / "distance_causal.csv"),
            "polytree_edges": _read_edges(a / "edges.csv"),
            "distance_coherence": _read_matrix(c / "distance_coherence.csv"),
            "distance_correlation": _read_matrix(c / "distance_correlation.csv"),
            "mst_coherence_edges": _read_edges(c / "mst_coherence_edges.csv"),
            "mst_correlation_edges": _read_edges(c / "mst_correlation_edges.csv"),
            "sparse_supports": sparse,
            "validate_rows": report["rows"],
        })

    def check(self, i: int, out: dict) -> list[str]:
        problems = list(self.setup_problems) + self._run_problems(out)
        if problems:
            return problems
        summary = self.summary(out)
        problems += self._against_first(dict(summary, events=out["events"]))
        if self.reference is not None:
            # byte-level artifact hashes may change with formatting; the
            # numbers and structures they hold may not
            numbers = {k: v for k, v in summary.items() if k != "artifacts"}
            problems += [f"op {i} vs reference: {m}" for m in
                         mismatches(numbers, self.reference, REFERENCE_ATOL)[:3]]
        return problems

    def reference_record(self, outs: list[dict]):
        summary = self.summary(outs[0])
        del summary["artifacts"]
        return summary

    def release(self, out: dict) -> None:
        shutil.rmtree(out["base"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (AnalyticSweep, WideNetwork, CliRoundtrip)}
