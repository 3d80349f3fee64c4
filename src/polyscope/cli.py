"""Command line front-end: ingestion, configuration, orchestration, artifacts.

Five subcommands::

    polyscope analyze   --input data.csv --out run/ --pipeline mst
    polyscope simulate  --nodes 8 --length 131072 --seed 3 --out run/
    polyscope validate  --trials 200 --nodes 4-16 --mode analytic --out run/
    polyscope sparse    --input data.csv --budget 2 --out run/
    polyscope compare   --input data.csv --out run/

Every option can also live in a flat ``key = value`` config file
(``--config``); explicit flags win over the file, the file wins over
defaults.  All artifacts are written atomically and listed, with SHA-256
checksums, in a ``manifest.json`` whose only run-dependent content (wall
clock, stage timings) is isolated under a ``volatile`` key, so runs with
identical configuration, input, and seed are byte-reproducible elsewhere.

Exit codes: 0 success, 2 input/usage error, 3 insufficient data,
4 numerical failure, 5 validation failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import os
import re
import secrets
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .aln import check_identifiability, generate_polytree_aln, run_recovery, simulate
from .diagnostics import collect
from .errors import (
    CombinatorialLimitError,
    DegenerateSeriesError,
    IllConditionedSpectrumError,
    InputFormatError,
    InsufficientDataError,
    InvalidParameterError,
    InvalidSpectrumError,
)
from .metric import (
    DistanceMatrix,
    _windowed_average,
    causal_distance_matrix,
    correlation_distance_matrix,
    distance_matrix,
    spearman_index,
    windowed_average_distance,
)
from .signals import (Ensemble, FrequencyGrid, TimeSeries, WelchConfig, _array,
                      spectral_matrix)
from .sparse import orthogonal_least_squares
from .topology import (
    build_polytree,
    edge_list_rows,
    export_dot,
    minimum_spanning_tree,
    miso_blanket_topology,
)

PIPELINES = ("mst", "polytree", "miso-blanket")

#: CLI pipeline names to recovery-engine pipeline names.
_RECOVERY_PIPELINES = {
    "mst": "mst-coherence",
    "polytree": "polytree-causal",
    "miso-blanket": "miso-blanket",
}

#: Attempts to draw an identifiable random network before giving up.
_DRAW_ATTEMPTS = 100


@dataclass
class RunConfig:
    """Merged configuration for one command invocation."""

    input: str | None = None
    out: str = "polyscope_out"
    grid_size: int = 1024
    segments: int = 8
    overlap: float = 0.5
    window: str = "hann"
    window_length: int = 0
    pipeline: str = "mst"
    budget: int = 2
    min_gain: float = 0.01
    trials: int = 1
    nodes: str = "8"
    length: int = 131072
    seed: int = 0
    mode: str = "analytic"

    def __post_init__(self):
        k = self.grid_size
        if k < 64 or (k & (k - 1)) != 0:
            raise InvalidParameterError(
                f"grid_size must be a power of two >= 64, got {k}")
        if self.segments < 2:
            raise InvalidParameterError("segments must be >= 2")
        if not 0.0 <= self.overlap <= 0.9:
            raise InvalidParameterError("overlap must be in [0, 0.9]")
        if self.window_length < 0:
            raise InvalidParameterError("window_length must be >= 0")
        if self.pipeline not in PIPELINES:
            raise InvalidParameterError(
                f"pipeline must be one of {', '.join(PIPELINES)}")
        if self.budget < 0:
            raise InvalidParameterError("budget must be >= 0")
        if not 0.0 <= self.min_gain < 1.0:
            raise InvalidParameterError("min_gain must be in [0, 1)")
        if self.trials < 1:
            raise InvalidParameterError("trials must be >= 1")
        if self.length < 2:
            raise InvalidParameterError("length must be >= 2")
        if self.seed < 0:
            raise InvalidParameterError("seed must be >= 0")
        if self.mode not in ("analytic", "simulated"):
            raise InvalidParameterError("mode must be analytic or simulated")
        self.node_range()   # validates the syntax eagerly

    def node_range(self) -> tuple[int, int]:
        """Parse the ``nodes`` field: a count ("8") or a range ("4-16")."""
        text = self.nodes.strip()
        match = re.fullmatch(r"(\d+)(?:-(\d+))?", text)
        if not match:
            raise InvalidParameterError(
                f"nodes must be N or LO-HI, got {self.nodes!r}")
        lo = int(match.group(1))
        hi = int(match.group(2)) if match.group(2) else lo
        if lo < 2 or hi < lo:
            raise InvalidParameterError(
                f"node range must satisfy 2 <= LO <= HI, got {text!r}")
        return lo, hi

    def welch(self) -> WelchConfig:
        return WelchConfig(grid_size=self.grid_size,
                           segment_count=self.segments,
                           overlap=self.overlap,
                           window=self.window)

    def require_input(self) -> Path:
        if not self.input:
            raise InvalidParameterError("this command requires --input")
        path = Path(self.input)
        if not path.is_file():
            raise InputFormatError(f"input file not found: {path}")
        return path


#: Config-file parsers by field annotation; every other field is a string.
_CONVERTERS = {field.name: {"int": int, "float": float}.get(field.type, str)
               for field in dataclasses.fields(RunConfig)}


def load_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` config file (``#`` starts a comment)."""
    source = Path(path)
    if not source.is_file():
        raise InputFormatError(f"config file not found: {source}")
    text = _utf8_text(source, source.read_bytes())
    values: dict = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputFormatError(
                f"{source}: line {line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _CONVERTERS:
            raise InputFormatError(f"{source}: line {line_no}: unknown key {key!r}")
        try:
            values[key] = _CONVERTERS[key](value)
        except ValueError:
            raise InputFormatError(
                f"{source}: line {line_no}: cannot parse {value!r} "
                f"for key {key!r}") from None
    return values


def _utf8_text(path: Path, data: bytes) -> str:
    """``data``, the bytes read from ``path``, decoded as UTF-8 less a leading
    byte-order mark, which spreadsheet exports often write."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def merge_config(args: argparse.Namespace) -> RunConfig:
    """Layer defaults < config file < explicit flags into a RunConfig."""
    file_values = load_config_file(args.config) if getattr(args, "config", None) else {}
    merged = {}
    for name in _CONVERTERS:
        flag = getattr(args, name, None)
        if flag is not None:
            merged[name] = flag
        elif name in file_values:
            merged[name] = file_values[name]
    return RunConfig(**merged)


def read_ensemble_csv(path: Path) -> Ensemble:
    """Load a label-headed CSV of series columns; reject anything malformed.

    The first row names the series; every later row must supply one finite
    decimal number per column.  Errors carry the line and column (and label)
    of the offending cell.  Each series is demeaned.
    """
    return _parse_ensemble_csv(path, Path(path).read_bytes())


def _parse_ensemble_csv(path: Path, data: bytes) -> Ensemble:
    """:func:`read_ensemble_csv` of ``data``, the bytes read from ``path``.

    One ``np.loadtxt`` parses the body.  Where it fails, or its result could
    differ, the per-cell loop reads the bytes again and decides: it raises
    its line/column message at the first cell that ``float()`` or the
    number rule (:func:`~polyscope.signals._array`, which refuses ``nan``
    and infinities) refuses, or returns what ``csv`` and ``float()`` accept
    but loadtxt does not, such as quoted numbers, ``1_0`` and non-ASCII
    digits.  The whole input is decoded first, so a byte that is not UTF-8
    is reported wherever it lies.
    """
    _utf8_text(path, data)
    header, table = _csv_table(path, data, whole_body=True)
    if table is None:
        header, table = _csv_table(path, data, whole_body=False)
    return Ensemble([TimeSeries(label, samples)
                     for label, samples in zip(header, table)])


def _csv_table(path: Path, data: bytes, whole_body: bool):
    """The header and the ``(series, samples)`` values of a CSV's bytes,
    which :func:`_utf8_text` has accepted.

    With ``whole_body`` the values come from :func:`_loadtxt_body`, or are
    None where it cannot vouch for them; otherwise from the per-cell loop,
    which raises at the first cell that ``float()`` or the number rule
    refuses.  The loop parses each row's cells in order up to the first
    that ``float()`` refuses, and hands the values to the number rule a
    block of rows at a time (:func:`_screened`), so a value it refuses is
    named before any later fault: a cell that stopped its row, a row of
    the wrong length or a ``csv`` error.
    """
    # decoded again as _utf8_text decodes: loadtxt reads the lines of this
    # wrapper faster than those of a StringIO of the decoded text
    fh = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    reader = csv.reader(fh)
    # values: those of the rows read since the last screen, row after row;
    # cells: the line and the cells of each of those rows
    header, tables, cells, values, fault = [], [], [], [], None
    try:
        try:
            header = [cell.strip() for cell in next(reader)]
        except StopIteration:
            raise InputFormatError(f"{path}: file is empty") from None
        if len(header) < 2:
            raise InputFormatError(
                f"{path}: need at least 2 series columns, found {len(header)}")
        if any(not cell for cell in header):
            raise InputFormatError(f"{path}: line 1: blank series label")
        if whole_body:
            return header, _loadtxt_body(fh, len(header), data)
        for line_no, row in enumerate(reader, 2):
            if not row:
                continue
            if len(row) != len(header):
                fault = (f"{path}: line {line_no}: expected {len(header)} "
                         f"values, found {len(row)}")
                break
            cells.append((line_no, row))
            for cell in row:
                try:
                    values.append(float(cell.strip()))
                except ValueError:
                    col, cell = len(values) % len(header), cell.strip()
                    fault = (f"{path}: line {line_no}, column {col + 1} "
                             f"({header[col]!r}): " + (
                                 f"cannot parse {cell!r} as a number" if cell
                                 else "missing value"))
                    break
            if fault:
                break
            if len(cells) == 1024:      # so few cells are held for a message
                tables.append(_screened(path, header, cells, values))
                cells, values = [], []
    except csv.Error as exc:
        fault = f"{path}: line {reader.line_num}: {exc}"
    table = np.concatenate(tables + [_screened(path, header, cells, values)])
    if fault or not table.size:
        raise InputFormatError(fault or f"{path}: no data rows")
    return header, table.reshape(-1, len(header)).T


def _screened(path: Path, header: list, cells: list, values: list
              ) -> np.ndarray:
    """``values``, read row after row from ``cells`` (the line and the
    cells of each row, the last of which may have stopped early), as one
    array once the number rule takes them all; else raises at the first
    value it refuses."""
    table = np.array(values, dtype=float)
    if _all_finite(table):
        return table
    for k, value in enumerate(values):
        if not _all_finite(value):
            (line_no, row), col = cells[k // len(header)], k % len(header)
            raise InputFormatError(
                f"{path}: line {line_no}, column {col + 1} "
                f"({header[col]!r}): {row[col].strip()!r} is not a finite "
                f"number")


def _all_finite(values) -> bool:
    """Whether the number rule, :func:`~polyscope.signals._array`, takes
    ``values`` as real numbers: ``nan`` and infinities are refused."""
    try:
        _array(values, float, "samples")
    except InvalidParameterError:
        return False
    return True


def _loadtxt_body(fh, width: int, data: bytes) -> np.ndarray | None:
    """The rest of ``fh`` as ``(width, rows)`` values from one ``np.loadtxt``,
    or None where the per-cell loop must decide.

    loadtxt accepts no cell the loop refuses (it takes no quotes, underscores
    or non-ASCII digits, and splits lines where ``csv`` does), except a cell
    longer than the ``csv`` field limit, which :func:`_may_hold_long_field`
    screens out, and a ``nan`` or infinite one, which the loop names.
    """
    if _may_hold_long_field(data):
        return None
    lines = iter(fh)
    try:
        # a body of blank lines makes loadtxt warn; the loop reports it instead
        first = next(line for line in lines if line.strip("\r\n"))
        values = np.loadtxt(itertools.chain((first,), lines), delimiter=",",
                            comments=None, dtype=float, ndmin=2)
    except (StopIteration, ValueError):
        return None
    # a body whose every row has one cell too many parses cleanly
    if len(values) == 0 or values.shape[1] != width or not _all_finite(values):
        return None
    return values.T


def _may_hold_long_field(data: bytes) -> bool:
    """Whether a cell of ``data`` may be longer than the ``csv`` field limit.

    Such a cell lies on a line of more than ``limit`` bytes, and every run of
    ``limit + 1`` bytes without a newline covers one of the whole blocks of
    ``limit // 2 + 1`` bytes tested here, so a False answer is certain.
    """
    block = csv.field_size_limit() // 2 + 1
    return any(data.find(b"\n", at, at + block) < 0
               for at in range(0, len(data) - block + 1, block))


# ---------------------------------------------------------------------------
# artifact writers


def _atomic_write(path: Path, data: bytes) -> None:
    # mode 0o666 less the umask, as open(path, "w") would give; mkstemp
    # would leave every artifact at 0600 whatever the umask
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(4)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _number_line(row: list[float]) -> str:
    """One CSV line of floats as ``csv.writer`` writes it: each cell's repr."""
    return ",".join(map(repr, row)) + "\n"


def matrix_csv_text(labels: list[str], values: np.ndarray) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label"] + list(labels))
    for label, row in zip(labels, np.asarray(values, dtype=float).tolist()):
        writer.writerow([label] + row)
    return buf.getvalue()


def edges_csv_text(graph) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["node_a", "node_b", "weight", "direction", "tie_flag"])
    for row in edge_list_rows(graph):
        writer.writerow([row["node_a"], row["node_b"], float(row["weight"]),
                         row["direction"], row["tie_flag"]])
    return buf.getvalue()


def ensemble_csv_text(ens: Ensemble) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(ens.labels)
    # one row at a time: a whole-matrix tolist() holds every sample as a float object
    for row in ens.values().T:
        buf.write(_number_line(row.tolist()))
    return buf.getvalue()


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class _Emitter:
    """Accumulates artifacts for one run and writes the closing manifest."""

    def __init__(self, out_dir: Path, command: str, cfg: RunConfig):
        out_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir = out_dir
        self.command = command
        self.cfg = cfg
        self.outputs: dict[str, str] = {}      # file name -> SHA-256
        self.matrices: dict[str, str] = {}
        self.inputs: dict[str, str] = {}
        self.timings: dict[str, float] = {}
        self.summary: dict = {}

    def note_input(self, path: Path, data: bytes) -> None:
        self.inputs[str(path)] = hashlib.sha256(data).hexdigest()

    def emit(self, name: str, text: str, kind: str | None = None) -> Path:
        path = self.out_dir / name
        data = text.encode("utf-8")
        _atomic_write(path, data)
        self.outputs[name] = hashlib.sha256(data).hexdigest()
        if kind is not None:
            self.matrices[name] = kind
        return path

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timings[name] = round((time.perf_counter() - start) * 1e3, 3)

    def finish(self, warnings: list[str]) -> Path:
        manifest = {
            "tool": "polyscope",
            "version": __version__,
            "command": self.command,
            "config": dataclasses.asdict(self.cfg),
            "inputs": self.inputs,
            "outputs": [
                {"file": name, "sha256": digest}
                for name, digest in sorted(self.outputs.items())
            ],
            "matrices": self.matrices,
            "warnings": sorted(set(warnings)),
            "summary": self.summary,
            "volatile": {
                "timestamp": datetime.now(timezone.utc).isoformat(),
                "timings_ms": self.timings,
            },
        }
        path = self.out_dir / "manifest.json"
        _atomic_write(path, _json_text(manifest).encode("utf-8"))
        return path


def _heatmap(D: DistanceMatrix) -> np.ndarray:
    """Mean coherence per pair, the heat-map matrix: 1 - d^2."""
    return np.clip(1.0 - np.asarray(D.values) ** 2, 0.0, 1.0)


def _events_to_warnings(events) -> list[str]:
    return [f"{e.category}: {e.message}" for e in events]


# ---------------------------------------------------------------------------
# subcommands


def _ingest(cfg: RunConfig, emitter: _Emitter) -> Ensemble:
    """Read the ``--input`` CSV once, timing the read and noting the SHA-256
    of the bytes parsed."""
    source = cfg.require_input()
    with emitter.stage("ingest"):
        data = source.read_bytes()
        ens = _parse_ensemble_csv(source, data)
    emitter.note_input(source, data)
    return ens


def cmd_analyze(cfg: RunConfig, emitter: _Emitter) -> int:
    if cfg.window_length and cfg.pipeline != "mst":
        raise InvalidParameterError(
            "window_length averaging applies only to the mst pipeline")
    wcfg = cfg.welch()
    ens = _ingest(cfg, emitter)
    windowed = cfg.window_length > 0
    with emitter.stage("spectra"):
        S = None if windowed else spectral_matrix(ens, wcfg)
    with emitter.stage("distances"):
        if windowed:
            D = windowed_average_distance(ens, cfg.window_length, wcfg)
        else:
            D = distance_matrix(S)
        DC = causal_distance_matrix(S) if cfg.pipeline == "polytree" else None
    with emitter.stage("topology"):
        if cfg.pipeline == "mst":
            graph = minimum_spanning_tree(D)
        elif cfg.pipeline == "polytree":
            graph = build_polytree(DC)
        else:
            graph = miso_blanket_topology(S, D)
    with emitter.stage("emit"):
        emitter.emit("distance_noncausal.csv",
                     matrix_csv_text(D.labels, D.values), kind=D.kind)
        if DC is not None:
            emitter.emit("distance_causal.csv",
                         matrix_csv_text(DC.labels, DC.values), kind=DC.kind)
        emitter.emit("coherence_heatmap.csv",
                     matrix_csv_text(D.labels, _heatmap(D)),
                     kind="mean-coherence")
        emitter.emit("graph.dot", export_dot(graph))
        emitter.emit("edges.csv", edges_csv_text(graph))
    summary = {
        "pipeline": cfg.pipeline,
        "series": len(ens.labels),
        "samples": ens.length,
        "edges": len(graph.edges),
        "total_weight": float(sum(graph.edges.values())),
    }
    emitter.summary = summary
    return 0


def cmd_simulate(cfg: RunConfig, emitter: _Emitter) -> int:
    lo, hi = cfg.node_range()
    if lo != hi:
        raise InvalidParameterError("simulate takes a single node count")
    with emitter.stage("generate"):
        spec = generate_polytree_aln(lo, cfg.seed)
    with emitter.stage("simulate"):
        noise_seed = int(np.random.SeedSequence([cfg.seed, 1]).generate_state(1)[0])
        sim = simulate(spec, cfg.length, noise_seed)
    with emitter.stage("emit"):
        emitter.emit("aln_spec.json", spec.to_json() + "\n")
        emitter.emit("ensemble.csv", ensemble_csv_text(sim.ensemble))
    emitter.summary = {
        "nodes": lo,
        "length": cfg.length,
        "links": len(spec.links),
        "burn_in": sim.burn_in,
        "noise_seed": noise_seed,
    }
    return 0


def _draw_identifiable(seed: int, trial: int, lo: int, hi: int,
                       grid: FrequencyGrid):
    """Deterministically derive one identifiable random network per trial."""
    for attempt in range(_DRAW_ATTEMPTS):
        state = np.random.SeedSequence([seed, trial, attempt]).generate_state(3)
        n = lo + int(state[0]) % (hi - lo + 1)
        spec = generate_polytree_aln(n, int(state[1]))
        if check_identifiability(spec, grid).passed:
            return spec, int(state[2])
    raise InvalidSpectrumError(
        f"trial {trial}: no identifiable network after {_DRAW_ATTEMPTS} draws")


def cmd_validate(cfg: RunConfig, emitter: _Emitter) -> int:
    lo, hi = cfg.node_range()
    grid = FrequencyGrid(cfg.grid_size)
    wcfg = cfg.welch()
    pipeline = _RECOVERY_PIPELINES[cfg.pipeline]
    reports = []
    with emitter.stage("trials"):
        for trial in range(cfg.trials):
            spec, sim_seed = _draw_identifiable(cfg.seed, trial, lo, hi, grid)
            reports.append(run_recovery(spec, mode=cfg.mode, pipeline=pipeline,
                                        length=cfg.length, seed=sim_seed,
                                        cfg=wcfg))

    rows = []
    for trial, rep in enumerate(reports):
        rows.append({
            "trial": trial,
            "n": rep.n,
            "seed": rep.seed,
            "precision": rep.precision,
            "recall": rep.recall,
            "direction_accuracy": rep.direction_accuracy,
            "tie_count": rep.tie_count,
        })
    directions = [r.direction_accuracy for r in reports
                  if r.direction_accuracy is not None]
    exact = sum(1 for r in reports if r.precision == 1.0 and r.recall == 1.0)
    summary = {
        "trials": cfg.trials,
        "mode": cfg.mode,
        "pipeline": cfg.pipeline,
        "node_range": [lo, hi],
        "mean_precision": float(np.mean([r.precision for r in reports])),
        "mean_recall": float(np.mean([r.recall for r in reports])),
        "mean_direction_accuracy":
            float(np.mean(directions)) if directions else None,
        "exact_trials": exact,
        "all_exact": exact == cfg.trials,
    }
    with emitter.stage("emit"):
        emitter.emit("validation_report.json",
                     _json_text({"rows": rows, "summary": summary}))
    emitter.summary = summary
    if cfg.mode == "analytic" and not summary["all_exact"]:
        print(f"validation failed: {cfg.trials - exact} of {cfg.trials} "
              f"trials were not exact", file=sys.stderr)
        return 5
    return 0


def _safe_name(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", label)


def cmd_sparse(cfg: RunConfig, emitter: _Emitter) -> int:
    wcfg = cfg.welch()
    ens = _ingest(cfg, emitter)
    with emitter.stage("spectra"):
        S = spectral_matrix(ens, wcfg)
    payloads = []
    with emitter.stage("select"):
        for idx, label in enumerate(S.labels):
            model = orthogonal_least_squares(S, idx, cfg.budget, cfg.min_gain)
            payloads.append({
                "target": label,
                "support": [S.labels[b] for b in model.support],
                "cost": model.cost,
                "solver": model.solver,
                "stop_reason": model.stop_reason,
                "filter_rms": {S.labels[b]: model.filters[b].rms()
                               for b in model.support},
            })
    with emitter.stage("emit"):
        for idx, (label, payload) in enumerate(zip(S.labels, payloads)):
            emitter.emit(f"sparse_{idx:02d}_{_safe_name(label)}.json",
                         _json_text(payload))
    emitter.summary = {
        "targets": len(S.labels),
        "budget": cfg.budget,
        "min_gain": cfg.min_gain,
        "supports": {p["target"]: p["support"] for p in payloads},
    }
    return 0


def cmd_compare(cfg: RunConfig, emitter: _Emitter) -> int:
    wcfg = cfg.welch()
    ens = _ingest(cfg, emitter)
    with emitter.stage("distances"):
        if cfg.window_length:
            D_coh = windowed_average_distance(ens, cfg.window_length, wcfg)
            D_corr = _windowed_average(ens, cfg.window_length,
                                       correlation_distance_matrix)
        else:
            D_coh = distance_matrix(spectral_matrix(ens, wcfg))
            D_corr = correlation_distance_matrix(ens)
    with emitter.stage("topology"):
        tree_coh = minimum_spanning_tree(D_coh)
        tree_corr = minimum_spanning_tree(D_corr)
    rho = spearman_index(D_coh, D_corr)
    iu = np.triu_indices(D_coh.values.shape[0], 1)
    coh_lower = int(np.sum(D_coh.values[iu] < D_corr.values[iu]))
    comparison = {
        "spearman_index": rho,
        "spearman_note": "" if rho is not None else
            "not applicable: fewer than 2 series pairs" if iu[0].size < 2 else
            "not applicable: constant distances",
        "dominance": {
            "coherence_lower": coh_lower,
            "pairs": int(iu[0].size),
        },
    }
    with emitter.stage("emit"):
        emitter.emit("distance_coherence.csv",
                     matrix_csv_text(D_coh.labels, D_coh.values), kind=D_coh.kind)
        emitter.emit("distance_correlation.csv",
                     matrix_csv_text(D_corr.labels, D_corr.values),
                     kind=D_corr.kind)
        emitter.emit("mst_coherence_edges.csv", edges_csv_text(tree_coh))
        emitter.emit("mst_correlation_edges.csv", edges_csv_text(tree_corr))
        emitter.emit("comparison.json", _json_text(comparison))
    emitter.summary = comparison
    return 0


_COMMANDS = {
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
    "sparse": cmd_sparse,
    "compare": cmd_compare,
}


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyscope",
        description="Spectral distance analysis and topology recovery for "
                    "ensembles of time series.")
    parser.add_argument("--version", action="version",
                        version=f"polyscope {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value configuration file")
    common.add_argument("--out", help="output directory")
    common.add_argument("--seed", type=int, help="random seed")

    welch = argparse.ArgumentParser(add_help=False)
    welch.add_argument("--grid-size", type=int, dest="grid_size",
                       help="frequency grid size (power of two >= 64)")
    welch.add_argument("--segments", type=int, help="planned Welch segments")
    welch.add_argument("--overlap", type=float, help="segment overlap in [0, 0.9]")
    welch.add_argument("--window", help="segment window type (default hann)")

    reads = argparse.ArgumentParser(add_help=False)
    reads.add_argument("--input", help="input CSV (first row = labels)")

    p = sub.add_parser("analyze", parents=[common, welch, reads],
                       help="estimate distances and recover a topology")
    p.add_argument("--pipeline", choices=PIPELINES)
    p.add_argument("--window-length", type=int, dest="window_length",
                   help="average distances over consecutive windows (0 = off)")

    p = sub.add_parser("simulate", parents=[common],
                       help="generate a random network and sample it")
    p.add_argument("--nodes", help="node count")
    p.add_argument("--length", type=int, help="samples per series")

    p = sub.add_parser("validate", parents=[common, welch],
                       help="batch recovery trials against known networks")
    p.add_argument("--trials", type=int, help="number of trials")
    p.add_argument("--nodes", help="node count or LO-HI range")
    p.add_argument("--length", type=int, help="samples per series (simulated mode)")
    p.add_argument("--pipeline", choices=PIPELINES)
    p.add_argument("--mode", choices=("analytic", "simulated"))

    p = sub.add_parser("sparse", parents=[common, welch, reads],
                       help="sparse input selection per series")
    p.add_argument("--budget", type=int, help="max inputs per target")
    p.add_argument("--min-gain", type=float, dest="min_gain",
                   help="relative gain needed to keep adding inputs")

    p = sub.add_parser("compare", parents=[common, welch, reads],
                       help="coherence vs correlation distances side by side")
    p.add_argument("--window-length", type=int, dest="window_length",
                   help="average both matrices over consecutive windows")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:        # argparse usage errors / --help
        return int(exc.code or 0)
    try:
        cfg = merge_config(args)
        emitter = _Emitter(Path(cfg.out), args.command, cfg)
        with collect() as events:
            status = _COMMANDS[args.command](cfg, emitter)
        emitter.finish(_events_to_warnings(events))
        return status
    except (InputFormatError, InvalidParameterError, DegenerateSeriesError,
            CombinatorialLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidSpectrumError, IllConditionedSpectrumError,
            FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
