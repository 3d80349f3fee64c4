"""Byte and compare modes of ``tools/artifact_digest.py`` on synthetic runs."""

import hashlib
import importlib.util
import json
import math
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_digest.py"
_spec = importlib.util.spec_from_file_location("artifact_digest", _TOOL)
artifact_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_digest)

WEIGHT = 0.4187878314941849


def write_run(out: Path, weight: float = WEIGHT, child: str = "X3") -> Path:
    """A run directory shaped like ``analyze`` plus ``sparse`` output."""
    out.mkdir()
    artifacts = {
        "edges.csv": "node_a,node_b,weight,direction,tie_flag\r\n"
                     f"X1,{child},{weight!r},a_to_b,0\r\n",
        "graph.dot": f'digraph topology {{\n    "X1" -> "{child}" '
                     f'[label="{weight:.4f}"];\n}}\n',
        "sparse_00_X1.json": json.dumps(
            {"target": "X1", "support": [child], "cost": weight,
             "stop_reason": "budget"}),
    }
    for name, text in artifacts.items():
        (out / name).write_text(text, encoding="utf-8")
    manifest = {
        "command": "analyze",
        "outputs": [{"file": name,
                     "sha256": hashlib.sha256(text.encode()).hexdigest()}
                    for name, text in sorted(artifacts.items())],
        "warnings": [f"coherence-overshoot: coherence of ('X1', {child!r}) "
                     f"peaks at 1.000002 before clamping"],
        "summary": {"edges": 1, "total_weight": weight},
        "volatile": {"timestamp": "2026-01-01T00:00:00+00:00"},
    }
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return out


def modes(parent: Path, change: Path, status: int = 0) -> tuple[bool, bool]:
    """Whether ``change`` passes byte mode and compare mode against ``parent``."""
    digest = artifact_digest.digest
    same_bytes = digest(parent, 0, "") == digest(change, status, "")
    found = artifact_digest.differences(digest(parent, 0, "", contents=True),
                                        digest(change, status, "", contents=True))
    return same_bytes, not found


def test_a_run_passes_both_modes_against_itself(tmp_path):
    parent = write_run(tmp_path / "parent")
    assert modes(parent, write_run(tmp_path / "change")) == (True, True)


def test_one_ulp_passes_compare_mode_only(tmp_path):
    parent = write_run(tmp_path / "parent")
    change = write_run(tmp_path / "change", weight=math.nextafter(WEIGHT, 1.0))
    assert modes(parent, change) == (False, True)


@pytest.mark.parametrize("change", [
    {"child": "X4"},                         # a changed edge
    {"weight": WEIGHT * (1 + 1e-9)},         # a number beyond the tolerance
    {"status": 2},                           # a changed exit code
])
def test_changed_result_fails_both_modes(tmp_path, change):
    parent = write_run(tmp_path / "parent")
    status = change.pop("status", 0)
    assert modes(parent, write_run(tmp_path / "change", **change),
                 status) == (False, False)


def test_differences_name_the_place():
    parent = {"run": {"exit": 0, "rows": [["X1", 0.5, "a_to_b", 0]]}}
    change = {"run": {"exit": 0, "rows": [["X1", 0.5 + 1e-9, "b_to_a", 1.0]]}}
    assert artifact_digest.differences(parent, change) == [
        "/run/rows[0][1]: 0.5 != 0.500000001 (relative 2.0e-09)",
        "/run/rows[0][2]: 'a_to_b' != 'b_to_a'",
        "/run/rows[0][3]: 0 != 1.0",
    ]
