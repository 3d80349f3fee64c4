import csv
import json
import hashlib
import os
import re
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyscope import (
    ALNSpec,
    Ensemble,
    InputFormatError,
    InvalidParameterError,
    Link,
    RecoveryReport,
    TimeSeries,
    simulate,
)
from polyscope import cli

import oracles


def write_chain_csv(path, length=4096, seed=5):
    spec = ALNSpec(["X1", "X2", "X3"],
                   [Link(0, 1, np.array([0.9, 0.4])),
                    Link(1, 2, np.array([0.7, -0.5]))],
                   np.ones(3))
    sim = simulate(spec, length, seed)
    path.write_text(cli.ensemble_csv_text(sim.ensemble), encoding="utf-8")
    return path


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def current_umask() -> int:
    """The process umask, read from /proc where possible so it is never set."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Umask:"):
                    return int(line.split()[1], 8)
    except OSError:
        pass
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


class TestReadEnsembleCsv:
    def test_loads_and_demeans(self, tmp_path):
        p = write_csv(tmp_path / "d.csv",
                      "a,b\n1.0,4.0\n2.0,5.0\n3.0,9.0\n")
        ens = cli.read_ensemble_csv(p)
        assert ens.labels == ["a", "b"]
        np.testing.assert_allclose(ens.values().mean(axis=1), 0.0,
                                   atol=1e-12)
        np.testing.assert_allclose(ens.values()[0], [-1.0, 0.0, 1.0])

    def test_blank_rows_skipped(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,b\n1,2\n\n3,4\n")
        assert cli.read_ensemble_csv(p).length == 2

    def test_empty_file(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "")
        with pytest.raises(InputFormatError, match="empty"):
            cli.read_ensemble_csv(p)

    def test_single_column(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a\n1\n2\n")
        with pytest.raises(InputFormatError, match="at least 2"):
            cli.read_ensemble_csv(p)

    def test_blank_label(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,,c\n1,2,3\n")
        with pytest.raises(InputFormatError, match="line 1: blank"):
            cli.read_ensemble_csv(p)

    def test_row_width_mismatch(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,b\n1,2\n3\n")
        with pytest.raises(InputFormatError, match="line 3: expected 2"):
            cli.read_ensemble_csv(p)

    def test_missing_cell_names_line_column_label(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,b,c\n1, ,3\n")
        with pytest.raises(InputFormatError,
                           match=r"line 2, column 2 \('b'\): missing"):
            cli.read_ensemble_csv(p)

    def test_bad_number(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,b\n1,two\n")
        with pytest.raises(InputFormatError, match="cannot parse 'two'"):
            cli.read_ensemble_csv(p)

    def test_header_only(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,b\n")
        with pytest.raises(InputFormatError, match="no data rows"):
            cli.read_ensemble_csv(p)

    def test_byte_order_mark_is_not_part_of_the_first_label(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n3,4\n")
        assert cli.read_ensemble_csv(p).labels == ["a", "b"]

    def test_bytes_that_are_not_utf8_exit_2(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        p.write_bytes(b"a,b\n1,2\n3,\xff\n")
        with pytest.raises(InputFormatError, match="d.csv: not UTF-8 text"):
            cli.read_ensemble_csv(p)
        assert cli.main(["analyze", "--input", str(p),
                         "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {p}: not UTF-8")

    @pytest.mark.parametrize("text, line", [
        ("a,b\n1,2\n3," + "4" * 131073 + "\n", 3),
        ("a," + "b" * 131073 + "\n1,2\n", 1),
    ], ids=["body", "header"])
    def test_cell_over_the_field_limit_exits_2(self, tmp_path, capsys, text, line):
        p = write_csv(tmp_path / "d.csv", text)
        message = f"{p}: line {line}: field larger than field limit (131072)"
        with pytest.raises(InputFormatError, match=re.escape(message)):
            cli.read_ensemble_csv(p)
        assert cli.main(["analyze", "--input", str(p),
                         "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_loadtxt_reads_plain_numbers_without_the_per_cell_loop(
            self, tmp_path, monkeypatch):
        passes = []
        table = cli._csv_table

        def spy(path, data, whole_body):
            passes.append(whole_body)
            return table(path, data, whole_body)

        monkeypatch.setattr(cli, "_csv_table", spy)
        plain = write_chain_csv(tmp_path / "chain.csv", length=1024)
        cli.read_ensemble_csv(plain)
        assert passes == [True]
        passes.clear()
        quoted = write_csv(tmp_path / "quoted.csv", 'a,b\n"1",2\n3,4\n')
        cli.read_ensemble_csv(quoted)
        assert passes == [True, False]


def _read_outcome(read, path):
    """Labels and exact sample bytes, or the exception class and message."""
    try:
        ens = read(path)
    except (InputFormatError, InvalidParameterError, csv.Error) as exc:
        return type(exc), str(exc)
    return ens.labels, [s.samples.tobytes() for s in ens.series]


def assert_reads_as_reference(path):
    new = _read_outcome(cli.read_ensemble_csv, path)
    old = _read_outcome(oracles.read_csv_reference, path)
    if old[0] is csv.Error:
        # the reference let csv.Error escape; now it names the line
        assert new[0] is InputFormatError
        assert re.fullmatch(rf"{re.escape(str(path))}: line \d+: "
                            rf"{re.escape(old[1])}", new[1]), new[1]
    else:
        assert new == old


#: One character over the csv module's default field limit.
_LONG = 131073

#: Input bytes the reader must treat exactly as the per-cell reader did.
INGEST_CORPUS = {
    "plain": b"a,b\n1.5,2\n-3,4e-2\n",
    "quoted-numbers": b'a,b\n"1.5","2"\n"3",4\n',
    "quoted-labels": b'"x,1","say ""hi""","two\nlines"\n1,2,3\n4,5,6\n',
    "hash-in-cell": b"a,b\n1,#2\n",
    "hash-after-number": b"a,b\n1,2 # note\n",
    "underscore": b"a,b\n1_0,2\n3,4_5.5\n",
    "full-width-digits": "a,b\n\uff11,2\n3,\uff14.\uff15\n".encode(),
    "leading-plus": b"a,b\n+1,+2.5e+3\n",
    "spaces-and-tabs": b"a,b\n 1 ,\t2\t\n  3,4  \n",
    "unicode-spaces": "a,b\n\u30001,2\xa0\n".encode(),
    "cr-only": b"a,b\r1,2\r3,4\r",
    "cr-only-no-final": b"a,b\r1,2\r3,4",
    "crlf": b"a,b\r\n1,2\r\n3,4\r\n",
    "cr-cr-lf": b"a,b\n1,2\r\r\n3,4\n",
    "blank-lines": b"a,b\n\n1,2\n\n\n3,4\n\n",
    "whitespace-only-line": b"a,b\n1,2\n \n3,4\n",
    "tab-only-line": b"a,b\n1,2\n\t\n",
    "trailing-comma": b"a,b\n1,2,\n",
    "hex": b"a,b\n0x1,2\n",
    "fortran-exponent": b"a,b\n1d3,2\n",
    "nul": b"a,b\n1\x00,2\n",
    "short-row": b"a,b\n1,2\n3\n",
    "long-row": b"a,b\n1,2\n3,4,5\n",
    "every-row-one-too-long": b"a,b\n1,2,3\n4,5,6\n",
    "every-row-one-too-short": b"a,b,c\n1,2\n4,5\n",
    "missing-value": b"a,b\n1,\n",
    "header-only": b"a,b\n",
    "header-then-blank-lines": b"a,b\n\n\r\n\r",
    "empty": b"",
    "one-column": b"a\n1\n",
    "blank-label": b"a,,c\n1,2,3\n",
    "duplicate-labels": b"a,a\n1,2\n",
    "nan": b"a,b\nnan,1\n2,3\n",
    "inf": b"a,b\ninf,1\n",
    "overflow": b"a,b\n1e999,1\n",
    "byte-order-mark": b"\xef\xbb\xbfa,b\n1,2\n3,4\n",
    "long-number": b"a,b\n1,2\n3," + b"4" * _LONG + b"\n",
    "long-padding": b"a,b\n1,2\n3," + b" " * _LONG + b"5\n",
    "long-text": b"a,b\n1,2\nx" + b"y" * _LONG + b",3\n",
    "long-label": b"a," + b"b" * _LONG + b"\n1,2\n",
    "not-utf8-header": b"a\xff,b\n1,2\n",
    "not-utf8-body": b"a,b\n1,2\n3,\xff\n",
    "not-utf8-cut-off": b"a,b\n1,2\n3,4\xe2\x82",
    "not-utf8-late": b"a,b\n" + b"1.25,2.5\n" * 2000 + b"3,\xff\n",
    "bad-cell-before-bad-bytes": b"a,b\n1,x\n" + b"1.25,2.5\n" * 2000 + b"\xff\n",
    "bad-cell-then-bad-byte": b"a,b\n1,x\n3,\xff\n",
}


class TestCsvParity:
    """The reader and writers against the per-cell code they replaced."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", sorted(INGEST_CORPUS))
    def test_ingest_corpus(self, tmp_path, name):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(INGEST_CORPUS[name])
        assert_reads_as_reference(path)

    @pytest.mark.filterwarnings("error")
    def test_simulated_record_and_its_rewrites(self, tmp_path):
        text = write_chain_csv(tmp_path / "chain.csv", length=2048).read_text()
        rewrites = {
            "plain": text,
            "crlf": text.replace("\n", "\r\n"),
            "cr-only": text.replace("\n", "\r"),
            "quoted": re.sub(r"([^,\n]+)", r'"\1"', text),
            "padded": text.replace(",", " ,\t"),
        }
        for name, variant in rewrites.items():
            path = write_csv(tmp_path / f"{name}.csv", variant)
            assert_reads_as_reference(path)

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300)
    @given(header=st.sampled_from(["a,b\n", "a,b\r\n", "a,b\r", '"a,x",b\n',
                                   "a,b,c\n", "a\n", "\ufeffa,b\n"]),
           cells=st.lists(st.sampled_from(
               ["1", "-2.5", "+3e2", " 4", "5 ", "\t6", "nan", "1_0", '"7"',
                "\uff18", "", "0x1", "1d3", "#", "x", "\x00", "\xa0", "\u3000",
                ",", "\n", "\r", "\r\n", " \n", "\x0b", "\x85", '"']),
               max_size=24),
           tail=st.sampled_from([b"", b"\xff", b"\xe2\x82"]))
    def test_random_inputs(self, header, cells, tail):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            path.write_bytes((header + "".join(cells)).encode() + tail)
            assert_reads_as_reference(path)

    LABELS = ["plain", "a,b", 'say "hi"', "two\nlines", " padded ", "cr\r", ""]
    VALUES = [-0.0, 5e-324, 1e+16, 1e22, 1.2345678901234568e+17, 0.1, -1.5,
              1e-7, 123456789.0]

    def test_ensemble_text(self):
        rng = np.random.default_rng(0)
        series = [TimeSeries(label, rng.permutation(self.VALUES))
                  for label in self.LABELS]
        ens = Ensemble(series, demean=False)
        assert cli.ensemble_csv_text(ens) == oracles.csv_text_reference(
            ens.labels, ens.values().T.tolist())

    def test_matrix_text(self):
        rng = np.random.default_rng(1)
        n = len(self.LABELS)
        values = rng.choice(self.VALUES + [np.nan, np.inf, -np.inf], size=(n, n))
        expected = oracles.csv_text_reference(
            ["label"] + self.LABELS,
            [[label] + row for label, row in zip(self.LABELS, values.tolist())])
        assert cli.matrix_csv_text(self.LABELS, values) == expected


class TestRunConfig:
    def test_defaults(self):
        cfg = cli.RunConfig()
        assert cfg.grid_size == 1024
        assert cfg.node_range() == (8, 8)
        w = cfg.welch()
        assert w.grid_size == 1024 and w.segment_count == 8

    def test_grid_size_must_be_power_of_two(self):
        with pytest.raises(InvalidParameterError):
            cli.RunConfig(grid_size=100)
        with pytest.raises(InvalidParameterError):
            cli.RunConfig(grid_size=32)

    @pytest.mark.parametrize("kwargs", [
        {"segments": 1},
        {"overlap": 0.95},
        {"trials": 0},
        {"length": 1},
        {"pipeline": "tree"},
        {"mode": "guess"},
        {"min_gain": 1.0},
        {"budget": -1},
        {"window_length": -5},
        {"nodes": "1"},
        {"nodes": "16-4"},
        {"nodes": "lots"},
        {"seed": -1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidParameterError):
            cli.RunConfig(**kwargs)

    def test_node_range_forms(self):
        assert cli.RunConfig(nodes="4-16").node_range() == (4, 16)
        assert cli.RunConfig(nodes=" 6 ").node_range() == (6, 6)


class TestConfigFile:
    def test_parse_comments_and_hyphens(self, tmp_path):
        p = write_csv(tmp_path / "run.cfg",
                      "# a comment\n"
                      "grid-size = 256\n"
                      "\n"
                      "seed = 9   # trailing comment\n")
        assert cli.load_config_file(str(p)) == {"grid_size": 256, "seed": 9}

    def test_unknown_key_names_line(self, tmp_path):
        p = write_csv(tmp_path / "run.cfg", "grid_size = 256\nfoo = 1\n")
        with pytest.raises(InputFormatError, match="line 2: unknown key"):
            cli.load_config_file(str(p))

    def test_unparseable_value(self, tmp_path):
        p = write_csv(tmp_path / "run.cfg", "grid_size = big\n")
        with pytest.raises(InputFormatError, match="cannot parse 'big'"):
            cli.load_config_file(str(p))

    def test_missing_file(self):
        with pytest.raises(InputFormatError, match="not found"):
            cli.load_config_file("/nonexistent/run.cfg")

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_bytes(b"\xef\xbb\xbfgrid_size = 256\n")
        assert cli.load_config_file(str(p)) == {"grid_size": 256}

    def test_bytes_that_are_not_utf8_exit_2(self, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_bytes(b"seed = 1\n# \xff\n")
        with pytest.raises(InputFormatError, match="run.cfg: not UTF-8 text"):
            cli.load_config_file(str(p))
        assert cli.main(["simulate", "--config", str(p),
                         "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {p}: not UTF-8")

    def test_flag_beats_file_beats_default(self, tmp_path):
        p = write_csv(tmp_path / "run.cfg", "seed = 5\ngrid_size = 256\n")
        args = cli.build_parser().parse_args(
            ["simulate", "--config", str(p), "--seed", "7"])
        cfg = cli.merge_config(args)
        assert cfg.seed == 7            # flag wins
        assert cfg.grid_size == 256     # file wins over default
        assert cfg.segments == 8        # default


class TestAnalyzeCommand:
    def test_chain_recovery_artifacts_and_manifest(self, tmp_path):
        data = write_chain_csv(tmp_path / "chain.csv")
        out = tmp_path / "run"
        code = cli.main(["analyze", "--input", str(data), "--out", str(out),
                         "--grid-size", "128"])
        assert code == 0
        for name in ("distance_noncausal.csv", "coherence_heatmap.csv",
                     "graph.dot", "edges.csv", "manifest.json"):
            assert (out / name).is_file()
        dot = (out / "graph.dot").read_text(encoding="utf-8")
        assert dot.count(" -- ") == 2
        assert '"X1" -- "X2"' in dot and '"X2" -- "X3"' in dot

        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        assert manifest["tool"] == "polyscope"
        assert manifest["command"] == "analyze"
        assert manifest["config"]["grid_size"] == 128
        assert manifest["summary"]["edges"] == 2
        assert manifest["summary"]["series"] == 3
        names = [entry["file"] for entry in manifest["outputs"]]
        assert names == sorted(names)
        for entry in manifest["outputs"]:
            digest = hashlib.sha256(
                (out / entry["file"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]
        assert manifest["inputs"] == {
            str(data): hashlib.sha256(data.read_bytes()).hexdigest()}
        assert manifest["matrices"]["distance_noncausal.csv"] == "noncausal"
        assert manifest["matrices"]["coherence_heatmap.csv"] == \
            "mean-coherence"
        assert set(manifest["volatile"]) == {"timestamp", "timings_ms"}

    def test_input_is_hashed_as_parsed(self, tmp_path, monkeypatch):
        data = write_chain_csv(tmp_path / "chain.csv")
        original = data.read_bytes()
        parse = cli._parse_ensemble_csv

        def rewrite_then_parse(path, read):
            # the file changes after it was read: the bytes read still rule
            data.write_text("a,b\n1,2\n", encoding="utf-8")
            return parse(path, read)

        monkeypatch.setattr(cli, "_parse_ensemble_csv", rewrite_then_parse)
        out = tmp_path / "run"
        assert cli.main(["analyze", "--input", str(data), "--out", str(out),
                         "--grid-size", "128"]) == 0
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        assert manifest["inputs"] == {
            str(data): hashlib.sha256(original).hexdigest()}
        assert manifest["summary"]["samples"] == 4096

    def test_duplicated_column_warns_and_still_runs(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(2048)
        y = rng.standard_normal(2048)
        rows = ["x,copy,y"]
        rows += [f"{float(x[t])!r},{float(x[t])!r},{float(y[t])!r}" for t in range(2048)]
        data = write_csv(tmp_path / "dup.csv", "\n".join(rows) + "\n")
        out = tmp_path / "run"
        code = cli.main(["analyze", "--input", str(data), "--out", str(out),
                         "--grid-size", "128"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        assert any(w.startswith("degenerate-pair:")
                   for w in manifest["warnings"])
        assert manifest["warnings"] == sorted(set(manifest["warnings"]))
        edges = (out / "edges.csv").read_text("utf-8").splitlines()
        dup_rows = [r for r in edges if r.startswith("copy,x")
                    or r.startswith("x,copy")]
        assert len(dup_rows) == 1
        assert float(dup_rows[0].split(",")[2]) < 1e-6

    def test_polytree_pipeline_emits_causal_matrix(self, tmp_path):
        data = write_chain_csv(tmp_path / "chain.csv")
        out = tmp_path / "run"
        code = cli.main(["analyze", "--input", str(data), "--out", str(out),
                         "--grid-size", "128", "--pipeline", "polytree"])
        assert code == 0
        assert (out / "distance_causal.csv").is_file()
        dot = (out / "graph.dot").read_text("utf-8")
        assert dot.startswith("digraph")
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        assert manifest["matrices"]["distance_causal.csv"] == "causal"

    def test_miso_blanket_pipeline(self, tmp_path):
        data = write_chain_csv(tmp_path / "chain.csv")
        out = tmp_path / "run"
        code = cli.main(["analyze", "--input", str(data), "--out", str(out),
                         "--grid-size", "128", "--pipeline", "miso-blanket"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        assert manifest["summary"]["edges"] == 2

    def test_windowed_averaging_only_for_mst(self, tmp_path):
        data = write_chain_csv(tmp_path / "chain.csv")
        code = cli.main(["analyze", "--input", str(data),
                         "--out", str(tmp_path / "o"),
                         "--pipeline", "polytree", "--window-length", "512"])
        assert code == 2

    def test_windowed_mst(self, tmp_path):
        data = write_chain_csv(tmp_path / "chain.csv")
        out = tmp_path / "run"
        code = cli.main(["analyze", "--input", str(data), "--out", str(out),
                         "--grid-size", "64", "--window-length", "1024"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        assert manifest["summary"]["edges"] == 2

    def test_missing_input_flag(self, tmp_path):
        assert cli.main(["analyze", "--out", str(tmp_path / "o")]) == 2

    def test_nonexistent_input(self, tmp_path):
        assert cli.main(["analyze", "--input", str(tmp_path / "nope.csv"),
                         "--out", str(tmp_path / "o")]) == 2

    def test_malformed_csv_exits_2(self, tmp_path):
        data = write_csv(tmp_path / "bad.csv", "a,b\n1,x\n")
        assert cli.main(["analyze", "--input", str(data),
                         "--out", str(tmp_path / "o")]) == 2

    def test_short_record_exits_3(self, tmp_path):
        rows = ["a,b"] + [f"{i}.0,{i + 0.5}" for i in range(32)]
        data = write_csv(tmp_path / "tiny.csv", "\n".join(rows) + "\n")
        assert cli.main(["analyze", "--input", str(data),
                         "--out", str(tmp_path / "o"),
                         "--grid-size", "64"]) == 3

    def test_usage_error_exits_2(self, tmp_path):
        assert cli.main(["analyze", "--pipeline", "bogus"]) == 2

    @pytest.mark.parametrize("window", ["nosuch", "kaiser"])
    def test_unusable_window_exits_2(self, tmp_path, capsys, window):
        data = write_chain_csv(tmp_path / "chain.csv")
        assert cli.main(["analyze", "--input", str(data), "--window", window,
                         "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot build window {window!r}")

    @pytest.mark.parametrize("command", ["analyze", "sparse", "compare"])
    def test_window_is_checked_before_the_input_is_read(self, tmp_path, capsys,
                                                        command):
        data = write_csv(tmp_path / "bad.csv", "a,b\n1,2\n3,x\n")
        assert cli.main([command, "--input", str(data), "--window", "nosuch",
                         "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(
            "error: cannot build window 'nosuch'")

    def test_version_flag(self, capsys):
        assert cli.main(["--version"]) == 0
        assert "polyscope" in capsys.readouterr().out


class TestSimulateCommand:
    def test_artifacts_and_determinism(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        argv = ["simulate", "--nodes", "2", "--length", "2048", "--seed", "3"]
        assert cli.main(argv + ["--out", str(out_a)]) == 0
        assert cli.main(argv + ["--out", str(out_b)]) == 0

        spec = ALNSpec.from_json((out_a / "aln_spec.json").read_text("utf-8"))
        assert spec.n == 2 and len(spec.links) == 1

        csv_a = (out_a / "ensemble.csv").read_bytes()
        csv_b = (out_b / "ensemble.csv").read_bytes()
        assert csv_a == csv_b
        lines = csv_a.decode("utf-8").splitlines()
        assert len(lines) == 2049
        assert lines[0] == "X1,X2"

        manifest = json.loads((out_a / "manifest.json").read_text("utf-8"))
        assert manifest["summary"]["nodes"] == 2
        assert manifest["summary"]["length"] == 2048

    def test_artifacts_take_their_mode_from_the_umask(self, tmp_path):
        argv = ["simulate", "--nodes", "2", "--length", "2048", "--seed", "3"]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["aln_spec.json", "ensemble.csv", "manifest.json"]
        expected = 0o666 & ~current_umask()
        for name in names:
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == expected

    def test_range_rejected(self, tmp_path):
        assert cli.main(["simulate", "--nodes", "4-8",
                         "--out", str(tmp_path / "o")]) == 2

    def test_roundtrip_through_analyze(self, tmp_path):
        sim_out = tmp_path / "sim"
        assert cli.main(["simulate", "--nodes", "4", "--length", "8192",
                         "--seed", "11", "--out", str(sim_out)]) == 0
        run_out = tmp_path / "run"
        assert cli.main(["analyze", "--input", str(sim_out / "ensemble.csv"),
                         "--out", str(run_out), "--grid-size", "128"]) == 0
        manifest = json.loads((run_out / "manifest.json").read_text("utf-8"))
        assert manifest["summary"]["edges"] == 3


class TestValidateCommand:
    def test_analytic_batch_all_exact(self, tmp_path):
        out = tmp_path / "v"
        code = cli.main(["validate", "--trials", "3", "--nodes", "4-6",
                         "--grid-size", "128", "--seed", "1",
                         "--out", str(out)])
        assert code == 0
        report = json.loads((out / "validation_report.json").read_text("utf-8"))
        assert len(report["rows"]) == 3
        assert report["summary"]["all_exact"] is True
        assert report["summary"]["mean_recall"] == 1.0
        assert {4 <= row["n"] <= 6 for row in report["rows"]} == {True}

    def test_simulated_mode_runs(self, tmp_path):
        out = tmp_path / "v"
        code = cli.main(["validate", "--trials", "1", "--nodes", "4",
                         "--length", "8192", "--grid-size", "128",
                         "--mode", "simulated", "--seed", "2",
                         "--out", str(out)])
        assert code == 0
        report = json.loads((out / "validation_report.json").read_text("utf-8"))
        assert report["summary"]["mode"] == "simulated"

    def test_analytic_miss_exits_5(self, tmp_path, monkeypatch):
        def fake_recovery(spec, mode, pipeline, length, seed, cfg):
            return RecoveryReport(
                mode=mode, pipeline=pipeline, n=spec.n, seed=seed,
                true_edges=[(0, 1)], recovered_edges=[(0, 2)],
                precision=0.0, recall=0.0, direction_accuracy=None,
                tie_count=0)
        monkeypatch.setattr(cli, "run_recovery", fake_recovery)
        out = tmp_path / "v"
        code = cli.main(["validate", "--trials", "2", "--nodes", "4",
                         "--grid-size", "128", "--out", str(out)])
        assert code == 5
        # the manifest is still written for the failed run
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        assert manifest["summary"]["all_exact"] is False

    def test_thread_count_does_not_change_results(self, tmp_path, monkeypatch):
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            monkeypatch.setenv("POLYSCOPE_THREADS", threads)
            code = cli.main(["validate", "--trials", "4", "--nodes", "4-6",
                             "--grid-size", "128", "--seed", "9",
                             "--out", str(out)])
            assert code == 0
            outs.append((out / "validation_report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_thread_count_does_not_change_warnings(self, tmp_path, monkeypatch):
        # events recorded in worker threads must reach the manifest
        warnings = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            monkeypatch.setenv("POLYSCOPE_THREADS", threads)
            code = cli.main(["validate", "--trials", "4", "--nodes", "4-6",
                             "--grid-size", "128", "--seed", "9",
                             "--mode", "analytic", "--pipeline", "miso-blanket",
                             "--out", str(out)])
            assert code == 0
            manifest = json.loads((out / "manifest.json").read_text("utf-8"))
            warnings.append(manifest["warnings"])
        assert warnings[0]
        assert warnings[0] == warnings[1]

    def test_bad_thread_env_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POLYSCOPE_THREADS", "many")
        assert cli.main(["validate", "--trials", "1", "--nodes", "4",
                         "--grid-size", "128",
                         "--out", str(tmp_path / "v")]) == 2

    def test_zero_trials_exit_2(self, tmp_path):
        assert cli.main(["validate", "--trials", "0", "--nodes", "4",
                         "--out", str(tmp_path / "v")]) == 2


class TestSparseCommand:
    def test_chain_supports(self, tmp_path):
        data = write_chain_csv(tmp_path / "chain.csv", length=8192)
        out = tmp_path / "s"
        code = cli.main(["sparse", "--input", str(data), "--out", str(out),
                         "--grid-size", "128", "--budget", "2"])
        assert code == 0
        files = sorted(p.name for p in out.glob("sparse_*.json"))
        assert files == ["sparse_00_X1.json", "sparse_01_X2.json",
                         "sparse_02_X3.json"]
        x3 = json.loads((out / "sparse_02_X3.json").read_text("utf-8"))
        assert x3["target"] == "X3"
        assert x3["solver"] == "ols"
        assert "X2" in x3["support"]
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        assert manifest["summary"]["supports"]["X3"] == x3["support"]
        # the per-target files are written in the emit stage, not in select
        assert set(manifest["volatile"]["timings_ms"]) == {
            "ingest", "spectra", "select", "emit"}

    def test_duplicate_columns_exit_4(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(4096)
        y = x + 0.1 * rng.standard_normal(4096)
        rows = ["a,b,c"]
        rows += [f"{float(x[t])!r},{float(x[t])!r},{float(y[t])!r}" for t in range(4096)]
        data = write_csv(tmp_path / "dup.csv", "\n".join(rows) + "\n")
        assert cli.main(["sparse", "--input", str(data),
                         "--out", str(tmp_path / "s"),
                         "--grid-size", "128"]) == 4


class TestCompareCommand:
    def test_two_series_spearman_undefined(self, tmp_path):
        rng = np.random.default_rng(7)
        w = rng.standard_normal(8192 + 3)
        rows = ["x,y"]
        rows += [f"{float(w[t + 3])!r},{float(w[t])!r}" for t in range(8192)]
        data = write_csv(tmp_path / "pair.csv", "\n".join(rows) + "\n")
        out = tmp_path / "c"
        code = cli.main(["compare", "--input", str(data), "--out", str(out),
                         "--grid-size", "256"])
        assert code == 0
        comparison = json.loads((out / "comparison.json").read_text("utf-8"))
        assert comparison["spearman_index"] is None
        assert comparison["spearman_note"].startswith("not applicable")
        assert comparison["dominance"] == {"coherence_lower": 1, "pairs": 1}

    def test_chain_comparison_artifacts(self, tmp_path):
        data = write_chain_csv(tmp_path / "chain.csv", length=8192)
        out = tmp_path / "c"
        code = cli.main(["compare", "--input", str(data), "--out", str(out),
                         "--grid-size", "128"])
        assert code == 0
        for name in ("distance_coherence.csv", "distance_correlation.csv",
                     "mst_coherence_edges.csv", "mst_correlation_edges.csv",
                     "comparison.json"):
            assert (out / name).is_file()
        comparison = json.loads((out / "comparison.json").read_text("utf-8"))
        assert isinstance(comparison["spearman_index"], float)
        assert comparison["dominance"]["pairs"] == 3

    def test_windowed_compare(self, tmp_path):
        data = write_chain_csv(tmp_path / "chain.csv", length=8192)
        out = tmp_path / "c"
        code = cli.main(["compare", "--input", str(data), "--out", str(out),
                         "--grid-size", "64", "--window-length", "2048"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        assert manifest["matrices"]["distance_coherence.csv"] == "noncausal"
        assert manifest["matrices"]["distance_correlation.csv"] == \
            "correlation"


class TestEmitter:
    def test_manifest_hashes_the_bytes_written(self, tmp_path):
        emitter = cli._Emitter(tmp_path, "simulate", cli.RunConfig())
        emitter.emit("b.txt", "\u00e9\n")
        emitter.emit("a.csv", "x,y\r\n", kind="noncausal")
        (tmp_path / "b.txt").write_text("changed later", encoding="utf-8")
        manifest = json.loads(emitter.finish([], {}).read_text("utf-8"))
        assert manifest["outputs"] == [
            {"file": "a.csv", "sha256": hashlib.sha256(b"x,y\r\n").hexdigest()},
            {"file": "b.txt",
             "sha256": hashlib.sha256("\u00e9\n".encode()).hexdigest()}]
        assert (tmp_path / "a.csv").read_bytes() == b"x,y\r\n"


class TestReproducibility:
    def test_analyze_outputs_byte_identical_across_runs(self, tmp_path):
        data = write_chain_csv(tmp_path / "chain.csv")
        argv = ["analyze", "--input", str(data), "--grid-size", "128"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(argv + ["--out", str(out_a)]) == 0
        assert cli.main(argv + ["--out", str(out_b)]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        for name in names:
            if name == "manifest.json":
                a = json.loads((out_a / name).read_text("utf-8"))
                b = json.loads((out_b / name).read_text("utf-8"))
                a.pop("volatile")
                b.pop("volatile")
                # the config records the out directory, which differs
                assert a["config"]["out"] != b["config"]["out"]
                a["config"].pop("out")
                b["config"].pop("out")
                assert a == b
            else:
                assert (out_a / name).read_bytes() == \
                    (out_b / name).read_bytes()
