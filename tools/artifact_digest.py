"""Digest the artifacts of a fixed set of polyscope CLI runs.

Runs every subcommand in process, at fixed seeds, into a temporary
directory, and prints one JSON document: for each run its exit code, its
stderr, the SHA-256 of every artifact it wrote, and its manifest without the
run-dependent ``volatile`` block.  The temporary directory is written as
``$OUT`` wherever it appears.  Besides the simulated records, ``analyze``
reads inputs written into that directory: rewrites of the first record
that must read as the record itself (every cell quoted, CR-only line ends)
and malformed CSVs that must exit 2, so the document pins the reader's exit
codes and stderr too.  Two checkouts that print the same document wrote the
same bytes, so a refactor that must keep artifacts byte-identical is
checked with::

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
)

#: Relative tolerance of compare mode on every float.
RTOL = 1e-12

#: A decimal number; the group makes ``split`` keep the numbers it splits at.
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


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
    for name, rewrite in REWRITES:
        data = root / f"{name}.csv"
        data.write_text(rewrite(first.read_text(encoding="utf-8")),
                        encoding="utf-8", newline="")
        yield f"analyze-{name}", ["analyze", "--input", str(data)]
    for name, content in MALFORMED:
        data = root / f"{name}.csv"
        data.write_bytes(content)
        yield f"analyze-{name}", ["analyze", "--input", str(data)]
    for pipeline in ("polytree", "miso-blanket"):
        yield f"validate-{pipeline}", [
            "validate", "--pipeline", pipeline, "--mode", "analytic",
            "--trials", "3", "--nodes", "6-8", "--seed", "1"]


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
