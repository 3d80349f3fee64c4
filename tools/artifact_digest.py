"""Digest the artifacts of a fixed set of polyscope CLI runs.

Runs every subcommand in process, at fixed seeds, into a temporary
directory, and prints one JSON document: for each run its exit code, its
stderr, the SHA-256 of every artifact it wrote, and its manifest without the
run-dependent ``volatile`` block.  The temporary directory is written as
``$OUT`` wherever it appears.  Two checkouts that print the same document
wrote the same bytes, so a refactor that must keep artifacts byte-identical
is checked with::

    PYTHONPATH=/path/to/parent/src python3 tools/artifact_digest.py > before.json
    PYTHONPATH=src python3 tools/artifact_digest.py > after.json
    cmp before.json after.json

Uses only the standard library and the polyscope found on the import path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from polyscope import cli

#: Simulated records every input-reading command runs on: name, simulate flags.
RECORDS = (
    ("n8", ["--nodes", "8", "--length", "16384", "--seed", "3"]),
    ("n12", ["--nodes", "12", "--length", "8192", "--seed", "5"]),
)


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
    for pipeline in ("polytree", "miso-blanket"):
        yield f"validate-{pipeline}", [
            "validate", "--pipeline", pipeline, "--mode", "analytic",
            "--trials", "3", "--nodes", "6-8", "--seed", "1"]


def _digest(out: Path, status: int, stderr: str) -> dict:
    files = sorted(p for p in out.iterdir() if p.name != "manifest.json") \
        if out.is_dir() else []
    manifest = out / "manifest.json"
    stable = None
    if manifest.is_file():
        stable = json.loads(manifest.read_text(encoding="utf-8"))
        del stable["volatile"]
    return {
        "exit": status,
        "stderr": stderr,
        "artifacts": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in files},
        "manifest": stable,
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        report = {}
        for name, argv in _runs(root):
            out = root / name
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                status = cli.main([*argv, "--out", str(out)])
            report[name] = _digest(out, status, err.getvalue())
        text = json.dumps(report, indent=2, sort_keys=True)
        sys.stdout.write(text.replace(str(root), "$OUT") + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
