"""Digest the artifacts of a fixed set of polyscope CLI runs.

Runs every subcommand in process, at fixed seeds, into a temporary
directory, and prints one JSON document: for each run its exit code, its
stderr, the SHA-256 of every artifact it wrote, and its manifest without the
run-dependent ``volatile`` block.  The temporary directory is written as
``$OUT`` wherever it appears.  Besides the simulated records, ``analyze``
reads inputs written into that directory: rewrites of the first record
that must read as the record itself (every cell quoted, CR-only line ends)
and malformed CSVs that must exit 2, so the document pins the reader's exit
codes and stderr too.  ``analyze``, ``sparse`` and ``compare`` also read a
record of low-frequency sinusoids whose every auto-spectrum needs the
spectral floor, so the document pins each command's floor warnings;
``analyze --pipeline polytree`` on it is the one run whose spectral
factors and causal parts are taken of floored auto-spectra.
``sparse`` also reads the first record with its first series repeated
under a new label: no matrix with an exact copy clears the conditioning
screen.  At budget 1 no candidate is collinear with the empty support.
At budget 2 each target whose first pick is ``X1`` drops the copy as a
``collinear-candidate``, and budget 3 pins that the dropped copy stays out
of the third step.  The first record's first two series beside their sum
fail the screen too, yet every fit on them is solvable: ``analyze
--pipeline miso-blanket`` and ``sparse`` on them pin the fit of each MISO
target by itself and OLS steps on a matrix that fails the screen, and
``analyze --pipeline miso-blanket`` on the record with the copy pins the
targets whose fit is singular: each leaves the copy out as a
``collinear-candidate``, and the graph gains the edge ``X1``--``copy``.
``analyze --pipeline polytree`` on that record pins a pair that each
direction explains exactly: both causal costs round to a few ``eps``, and
the edge ``X1``--``copy`` is a flagged orientation tie.  The
first record's first two series beside a constant series ``flat`` pin that
``sparse`` at budget 2 stops before the flat series, whose gain is
negligible, and that ``analyze --pipeline miso-blanket`` keeps every input
of each target: the flat series' floored auto-spectrum is tiny beside the
others, but its Schur ratio, which no scale changes, clears the
conditioning rule.  The first record's first series three times over
pins ``compare`` on distances that are all equal: its rank index is
undefined and written as ``null``.  Three constant series pin that
``analyze`` and ``compare`` exit 2 naming the first, with no other
output on stderr.  A wide
record of 24 series on a 64-point grid pins ``sparse`` at budget 2 and
``analyze --pipeline miso-blanket`` at the shapes of the wide benchmark,
where every MISO filter comes from one inverse of the spectral matrix.
``validate`` runs in both trial modes; in analytic mode ``polytree`` and
``miso-blanket`` recover networks of 6 to 8 nodes, and all three
pipelines networks of 14 to 16 nodes on a 256-point grid, the largest
networks and the grid of the analytic benchmark, which pins the causal
distances and their orientation ties, and the MISO blankets, at those
shapes.  The ``validate-*`` runs draw their networks through the
identifiability check, so the document pins its verdicts too.  Two checkouts that
print the same document wrote the same bytes, so a refactor that must keep
artifacts byte-identical is checked with::

    PYTHONPATH=/path/to/parent/src python3 tools/artifact_digest.py > before.json
    PYTHONPATH=src python3 tools/artifact_digest.py > after.json
    cmp before.json after.json

A change that may move numbers in their last bits is checked in compare
mode instead::

    PYTHONPATH=/path/to/parent/src python3 tools/artifact_digest.py --contents > before.json
    PYTHONPATH=src python3 tools/artifact_digest.py --compare before.json

``--contents`` prints each artifact's parsed contents in place of its hash:
CSV rows and DOT lines with their numbers parsed, JSON payloads as they are,
and the manifest without ``volatile`` and without output SHA-256s, its
warnings split into text and numbers.  ``--compare`` builds that document
and checks it against the given one.  Everything that is not a float must be
equal: exit codes, stderr, labels, edges, orientations, supports, stop
reasons, tie flags and warning text.  Every float must agree within
:data:`RTOL`, relative.  Each difference is printed, and the exit status is
1 when there is any.

Uses only the standard library and the polyscope found on the import path.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import re
import sys
import tempfile
from pathlib import Path

from polyscope import cli

#: Simulated records every input-reading command runs on: name, simulate flags.
RECORDS = (
    ("n8", ["--nodes", "8", "--length", "16384", "--seed", "3"]),
    ("n12", ["--nodes", "12", "--length", "8192", "--seed", "5"]),
)

#: The wide record ``sparse`` and the MISO blanket read on a 64-point grid.
WIDE = ("n24", ["--nodes", "24", "--length", "8192", "--seed", "7"])

#: Rewrites of the first record's CSV text that ``analyze`` reads unchanged.
REWRITES = (
    ("quoted", lambda text: re.sub(r"([^,\n]+)", r'"\1"', text)),
    ("cr-only", lambda text: text.replace("\n", "\r")),
)

#: CSVs ``analyze`` refuses, by name.
MALFORMED = (
    ("bad-cell", b"a,b\n1,2\n3,x\n"),
    ("short-row", b"a,b\n1,2\n3\n"),
    ("missing-value", b"a,b\n1,2\n3, \n"),
    ("not-utf8", b"a,b\n1,2\n3,\xff\n"),
    ("bad-cell-before-bad-byte",
     b"a,b\n1,x\n" + b"1.25,2.5\n" * 2000 + b"\xff\n"),
)

#: Three constant series: no coherence is defined, and the commands that
#: need one exit 2 naming the first series.
ALL_CONSTANT = "a,b,c\n" + "1.0,2.0,3.0\n" * 2048

#: Relative tolerance of compare mode on every float.
RTOL = 1e-12

#: A decimal number; the group makes ``split`` keep the numbers it splits at.
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _floored_csv() -> str:
    """Four series, each a sum of five low-frequency sinusoids: their Welch
    auto-spectra fall below the spectral floor at high frequencies."""
    rows = ["a,b,c,d"]
    for t in range(8192):
        rows.append(",".join(
            repr(sum(math.sin(2 * math.pi * (m + 1 + 0.37 * k) * t / 1024 + k + m)
                     for m in range(5)))
            for k in range(4)))
    return "\n".join(rows) + "\n"


def _duplicated_first(text: str) -> str:
    """The record's CSV text with its first series repeated as a last
    column labelled ``copy``."""
    header, *rows = text.splitlines()
    return "\n".join([f"{header},copy"]
                     + [f"{row},{row.split(',', 1)[0]}" for row in rows]) + "\n"


def _beside_first_two(text: str, label: str, third) -> str:
    """The record's first two series and a third made of ``third(a, b)``
    for each row's cells ``a`` and ``b``, as columns ``X1``, ``X2`` and
    ``label``."""
    rows = [f"X1,X2,{label}"]
    for row in text.splitlines()[1:]:
        a, b = row.split(",")[:2]
        rows.append(f"{a},{b},{third(a, b)}")
    return "\n".join(rows) + "\n"


def _first_three_times(text: str) -> str:
    """The record's first series three times, as columns ``a``, ``b`` and
    ``c``."""
    rows = ["a,b,c"]
    for row in text.splitlines()[1:]:
        rows.append(",".join([row.split(",", 1)[0]] * 3))
    return "\n".join(rows) + "\n"


def _runs(root: Path):
    """Yield ``(name, argv)`` in run order; inputs are written before use."""
    for record, flags in RECORDS:
        yield f"simulate-{record}", ["simulate", *flags]
        data = str(root / f"simulate-{record}" / "ensemble.csv")
        for pipeline in ("mst", "polytree", "miso-blanket"):
            yield f"analyze-{pipeline}-{record}", [
                "analyze", "--input", data, "--pipeline", pipeline]
        yield f"analyze-windowed-{record}", [
            "analyze", "--input", data, "--window-length", "4096"]
        yield f"compare-{record}", ["compare", "--input", data]
        yield f"compare-windowed-{record}", [
            "compare", "--input", data, "--window-length", "4096"]
        for budget in ("0", "2", "3"):
            yield f"sparse-{budget}-{record}", [
                "sparse", "--input", data, "--budget", budget, "--min-gain", "0"]
    first = root / f"simulate-{RECORDS[0][0]}" / "ensemble.csv"
    # a budget above the 7 candidates of every target stops each on
    # ``exhausted`` and pins OLS costs past 3 inputs
    yield f"sparse-8-{RECORDS[0][0]}", [
        "sparse", "--input", str(first), "--budget", "8", "--min-gain", "0"]
    data = root / "duplicated.csv"
    data.write_text(_duplicated_first(first.read_text(encoding="utf-8")),
                    encoding="utf-8")
    # budget 1 scores only single inputs; budget 2 drops a copy once the
    # other is picked, and budget 3 keeps it out of the next step
    for budget in ("1", "2", "3"):
        yield f"sparse-{budget}-duplicated", [
            "sparse", "--input", str(data), "--budget", budget, "--min-gain", "0"]
    yield "analyze-miso-blanket-duplicated", [
        "analyze", "--input", str(data), "--pipeline", "miso-blanket"]
    yield "analyze-polytree-duplicated", [
        "analyze", "--input", str(data), "--pipeline", "polytree"]
    data = root / "sum.csv"
    data.write_text(_beside_first_two(
        first.read_text(encoding="utf-8"), "sum",
        lambda a, b: repr(float(a) + float(b))), encoding="utf-8")
    yield "analyze-miso-blanket-sum", [
        "analyze", "--input", str(data), "--pipeline", "miso-blanket"]
    yield "sparse-2-sum", [
        "sparse", "--input", str(data), "--budget", "2", "--min-gain", "0"]
    data = root / "constant.csv"
    data.write_text(_beside_first_two(
        first.read_text(encoding="utf-8"), "flat", lambda a, b: "2.5"),
        encoding="utf-8")
    yield "sparse-2-constant", [
        "sparse", "--input", str(data), "--budget", "2", "--min-gain", "0"]
    yield "analyze-miso-blanket-constant", [
        "analyze", "--input", str(data), "--pipeline", "miso-blanket"]
    data = root / "identical.csv"
    data.write_text(_first_three_times(first.read_text(encoding="utf-8")),
                    encoding="utf-8")
    yield "compare-identical", ["compare", "--input", str(data)]
    data = root / "all-constant.csv"
    data.write_text(ALL_CONSTANT, encoding="utf-8")
    yield "analyze-mst-all-constant", [
        "analyze", "--input", str(data), "--pipeline", "mst", "--grid-size", "64"]
    yield "compare-all-constant", [
        "compare", "--input", str(data), "--grid-size", "64"]
    record, flags = WIDE
    yield f"simulate-{record}", ["simulate", *flags]
    data = str(root / f"simulate-{record}" / "ensemble.csv")
    yield f"sparse-2-{record}", [
        "sparse", "--input", data, "--grid-size", "64", "--budget", "2"]
    yield f"analyze-miso-blanket-{record}", [
        "analyze", "--input", data, "--pipeline", "miso-blanket",
        "--grid-size", "64"]
    for name, rewrite in REWRITES:
        data = root / f"{name}.csv"
        data.write_text(rewrite(first.read_text(encoding="utf-8")),
                        encoding="utf-8", newline="")
        yield f"analyze-{name}", ["analyze", "--input", str(data)]
    for name, content in MALFORMED:
        data = root / f"{name}.csv"
        data.write_bytes(content)
        yield f"analyze-{name}", ["analyze", "--input", str(data)]
    data = root / "floored.csv"
    data.write_text(_floored_csv(), encoding="utf-8")
    for command in ("analyze", "sparse", "compare"):
        yield f"{command}-floored", [
            command, "--input", str(data), "--grid-size", "256"]
    yield "analyze-polytree-floored", [
        "analyze", "--input", str(data), "--pipeline", "polytree",
        "--grid-size", "256"]
    for pipeline in ("polytree", "miso-blanket"):
        yield f"validate-{pipeline}", [
            "validate", "--pipeline", pipeline, "--mode", "analytic",
            "--trials", "3", "--nodes", "6-8", "--seed", "1"]
    for name, pipeline in (("validate-mst", "mst"),
                           ("validate-polytree-n14-16", "polytree"),
                           ("validate-miso-blanket-n14-16", "miso-blanket")):
        yield name, [
            "validate", "--mode", "analytic", "--pipeline", pipeline,
            "--trials", "3", "--nodes", "14-16", "--grid-size", "256",
            "--seed", "1"]
    yield "validate-simulated", [
        "validate", "--mode", "simulated", "--trials", "2", "--nodes", "5",
        "--length", "4096", "--grid-size", "256", "--seed", "1"]


def _number(text: str):
    """``text`` as an int, else as a float, else unchanged."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _split_numbers(text: str) -> list:
    """``text`` as alternating text pieces and parsed numbers."""
    return [_number(part) if odd else part
            for odd, part in zip(itertools.cycle((False, True)),
                                 _NUMBER.split(text))]


def _contents(path: Path):
    """The parsed contents of one artifact."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    if path.suffix == ".csv":
        return [[_number(cell) for cell in row]
                for row in csv.reader(io.StringIO(text, newline=""))]
    return [_split_numbers(line) for line in text.splitlines()]


def digest(out: Path, status: int, stderr: str, contents: bool = False) -> dict:
    """One run's record: exit code, stderr, artifacts and stable manifest.

    Artifacts are SHA-256s, or with ``contents`` their parsed contents.
    """
    files = sorted(p for p in out.iterdir() if p.name != "manifest.json") \
        if out.is_dir() else []
    manifest = out / "manifest.json"
    stable = None
    if manifest.is_file():
        stable = json.loads(manifest.read_text(encoding="utf-8"))
        del stable["volatile"]
        if contents:
            stable["outputs"] = [entry["file"] for entry in stable["outputs"]]
            stable["warnings"] = [_split_numbers(w) for w in stable["warnings"]]
    return {
        "exit": status,
        "stderr": stderr,
        "artifacts": {p.name: _contents(p) if contents
                      else hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in files},
        "manifest": stable,
    }


def differences(parent, change, path: str = "") -> list[str]:
    """Where ``change`` departs from ``parent``: floats beyond :data:`RTOL`
    relative, anything else when not equal."""
    if isinstance(parent, dict) and isinstance(change, dict):
        if parent.keys() != change.keys():
            return [f"{path}: keys {sorted(parent)} != {sorted(change)}"]
        return [d for key in sorted(parent)
                for d in differences(parent[key], change[key], f"{path}/{key}")]
    if isinstance(parent, list) and isinstance(change, list):
        if len(parent) != len(change):
            return [f"{path}: {len(parent)} items != {len(change)}"]
        return [d for i, (a, b) in enumerate(zip(parent, change))
                for d in differences(a, b, f"{path}[{i}]")]
    if type(parent) is float and type(change) is float:
        if parent == change or (math.isnan(parent) and math.isnan(change)):
            return []
        gap = abs(parent - change) / max(abs(parent), abs(change))
        return [] if gap <= RTOL else \
            [f"{path}: {parent!r} != {change!r} (relative {gap:.1e})"]
    if type(parent) is type(change) and parent == change:
        return []
    return [f"{path}: {parent!r} != {change!r}"]


def report(contents: bool) -> dict:
    """Run every command and digest each run, ``$OUT`` for the run directory."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        runs = {}
        for name, argv in _runs(root):
            out = root / name
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                status = cli.main([*argv, "--out", str(out)])
            runs[name] = digest(out, status, err.getvalue(), contents)
        text = json.dumps(runs, indent=2, sort_keys=True)
        return json.loads(text.replace(str(root), "$OUT"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Digest the artifacts of a fixed set of polyscope CLI runs.")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--contents", action="store_true",
                      help="print parsed artifact contents instead of SHA-256s")
    mode.add_argument("--compare", metavar="PARENT",
                      help="check parsed contents against a --contents document")
    args = parser.parse_args(argv)
    runs = report(contents=args.contents or args.compare is not None)
    if args.compare is None:
        sys.stdout.write(json.dumps(runs, indent=2, sort_keys=True) + "\n")
        return 0
    parent = json.loads(Path(args.compare).read_text(encoding="utf-8"))
    found = differences(parent, runs)
    for line in found:
        print(line)
    print(f"{len(runs)} runs, {len(found)} differences at relative "
          f"tolerance {RTOL:g}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
