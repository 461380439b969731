"""Command-line interface: exit codes, schemas and determinism."""

import configparser
import csv
import importlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sigmalab
from sigmalab import cli
from sigmalab.cli import (EXIT_ASSERT, EXIT_CONFIG, EXIT_NONCONV, EXIT_OK,
                          PRESETS, main)
from sigmalab.spectral import make_grid

from oracles import stepper_working_set


def read(path):
    return path.read_bytes()


class TestArgumentHandling:
    def test_requires_exactly_one_source(self, tmp_path, capsys):
        assert main(["admissible", "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_config_and_preset_together_rejected(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[model]\n")
        code = main(["admissible", "--config", str(cfg),
                     "--preset", "paper-examples", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_unknown_preset(self, tmp_path, capsys):
        code = main(["admissible", "--preset", "nope", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "available" in capsys.readouterr().err

    def test_preset_command_mismatch(self, tmp_path):
        code = main(["toolkit", "--preset", "paper-examples",
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        code = main(["admissible", "--config", str(tmp_path / "absent.ini"),
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[model]\nsigma = 2\n[mystery]\nx = 1\n")
        code = main(["admissible", "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[model]\nsigma = 2\nbanana = 1\n"
                       "[case T2A]\ntheorem = T2A\n")
        code = main(["admissible", "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG


    def test_load_config_reads_default_section(self, tmp_path):
        text = ("[DEFAULT]\nmu = 1\nq = 5\n"
                "[model]\nsigma = 2\ndelta = 9/10\nnote = 50%\n"
                "[case a]\ntheorem = T2A\nq = 4\n")
        cfg = tmp_path / "c.ini"
        cfg.write_text(text)
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        parser.read_string(text)
        expected = {name: dict(parser[name]) for name in parser.sections()}
        assert expected["case a"] == {"theorem": "T2A", "q": "4", "mu": "1"}
        assert cli._load_config(str(cfg)) == expected


def _chars(exclude=""):
    """Characters up to U+3000 (which covers the Unicode spaces that
    strip() removes) other than line breaks, controls and `exclude`."""
    return st.characters(max_codepoint=0x3000, blacklist_categories=("Cc", "Cs"),
                         blacklist_characters=exclude)


_NAMES = (st.text(_chars("[]"), min_size=1, max_size=8).map(str.strip)
          .filter(lambda name: name and name != "DEFAULT"))
_KEYS = st.text(_chars("[=:#;"), min_size=1, max_size=8).map(str.strip).filter(bool)
# Values often hold the delimiters and comment marks, which stay in them.
_VALUES = st.text(st.sampled_from("=:#;[] ") | _chars(), max_size=10)
_FILLERS = st.lists(st.sampled_from(["", "   ", "# note", "; note = 1",
                                     "  # indented note"]), max_size=2)


@st.composite
def flat_configs(draw):
    """Text in the flat INI subset: headers, optional [DEFAULT] anywhere,
    `key = value` / `key: value` lines, blank lines and comments."""
    sections = list(draw(st.dictionaries(
        _NAMES, st.dictionaries(_KEYS, _VALUES, max_size=4),
        max_size=4)).items())
    defaults = draw(st.none() | st.dictionaries(_KEYS, _VALUES, max_size=3))
    if defaults is not None:
        sections.insert(draw(st.integers(0, len(sections))), ("DEFAULT", defaults))
    lines = []
    for name, entries in sections:
        lines += draw(_FILLERS) + [f"[{name}]"]
        for key, value in entries.items():
            delimiter = draw(st.sampled_from(["=", " = ", ":", ": ", "\t=\t"]))
            lines += draw(_FILLERS) + [key + delimiter + value]
    return "\n".join(lines + draw(_FILLERS))


#: Config text outside the flat subset, the line the error names and a
#: phrase of the message.
REJECTED_CONFIGS = {
    "continuation": ("[model]\nsigma = 2\n  3\n", "line 3", "indented"),
    "indented-key": ("[model]\n  sigma = 2\n", "line 2", "indented"),
    "duplicate-section": ("[model]\nsigma = 2\n[model]\nmu = 1\n", "line 3",
                          "duplicate section [model]"),
    "duplicate-key": ("[model]\nsigma = 2\n\nsigma: 3\n", "line 4",
                      "duplicate key 'sigma'"),
    "key-before-section": ("# header\nsigma = 2\n[model]\n", "line 2",
                           "key before any [section]"),
    "no-delimiter": ("[model]\nsigma 2\n", "line 2", "expected [section]"),
    "empty-key": ("[model]\n= 2\n", "line 2", "expected [section]"),
}


class TestConfigReader:
    @settings(max_examples=100, deadline=None)
    @given(text=flat_configs())
    def test_matches_configparser(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "flat.ini"
        path.write_text(text, encoding="utf-8")
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        parser.read_string(text)
        expected = {name: dict(parser[name]) for name in parser.sections()}
        assert cli._load_config(str(path)) == expected

    @pytest.mark.parametrize("name", sorted(REJECTED_CONFIGS))
    def test_rejected_form_is_config_error(self, tmp_path, capsys, name):
        text, line, message = REJECTED_CONFIGS[name]
        cfg = tmp_path / "c.ini"
        cfg.write_text(text)
        code = main(["admissible", "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error: ")
        assert f"{line}: " in err and message in err
        assert "Traceback" not in err

    def test_crlf_config_reads_as_lf(self, tmp_path):
        text = ("# comment\n[DEFAULT]\nmu = 1\n\n[case T2B]\ntheorem = T2B\n"
                "sigma: 2\n; comment\n[model]\nn = 9\n")
        lf, crlf = tmp_path / "lf.ini", tmp_path / "crlf.ini"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        expected = {"case T2B": {"mu": "1", "theorem": "T2B", "sigma": "2"},
                    "model": {"mu": "1", "n": "9"}}
        assert cli._load_config(str(crlf)) == cli._load_config(str(lf)) == expected

    @pytest.mark.parametrize("make", [lambda p: p.mkdir(),
                                      lambda p: p.write_bytes(b"[model]\n\xff\n")],
                             ids=["directory", "not-utf8"])
    def test_unreadable_file_is_config_error(self, tmp_path, capsys, make):
        cfg = tmp_path / "c.ini"
        make(cfg)
        code = main(["admissible", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error: cannot read config")
        assert "Traceback" not in err


class TestAdmissible:
    def test_paper_examples_preset(self, tmp_path):
        code = main(["admissible", "--preset", "paper-examples",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        csv_lines = (tmp_path / "admissible.csv").read_text().splitlines()
        assert csv_lines[0] == "# schema=1"
        assert len(csv_lines) == 12  # schema, header, ten cases
        rows = [json.loads(line) for line in
                (tmp_path / "admissible.ndjson").read_text().splitlines()]
        by_theorem = {r["theorem"]: r for r in rows}
        assert by_theorem["T2A"]["interval"] == "(13/2, inf)"
        assert by_theorem["T2B"]["interval"] == "[4, 9]"
        assert by_theorem["T3B"]["interval"] == "[4, 5]"

    def test_strict_flags_empty_interval(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[model]\nsigma = 1\ndelta = 1/4\nmu = 1\nn = 1\nq = 2\nm = 1\n"
            "[case T2A]\ntheorem = T2A\n")
        assert main(["admissible", "--config", str(cfg),
                     "--out", str(tmp_path)]) == EXIT_OK
        assert main(["admissible", "--config", str(cfg), "--strict",
                     "--out", str(tmp_path)]) == EXIT_ASSERT


    def test_invalid_case_after_valid_ones(self, tmp_path, capsys):
        # Each case is validated once, by admissible_interval in the
        # interval loop; a bad late case still writes nothing.
        model = "sigma = 2\ndelta = 9/10\nmu = 1\nq = 5\nn = 3\ns = 0\n"
        cfg = tmp_path / "c.ini"
        cfg.write_text("".join(f"[case ok{i}]\ntheorem = T2A\nm = 1\n{model}"
                               for i in range(3))
                       + f"[case bad]\ntheorem = T2A\nm = 5\n{model}")
        out = tmp_path / "out"
        code = main(["admissible", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert ("config error: invalid model parameters: 1 <= m < q violated "
                "in section [case bad]") in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []


    def test_scan_holds_two_lines_per_case(self, tmp_path):
        """A 4000-case scan peaks below 5 MiB of traced allocations: the
        config's sections and one CSV and one NDJSON line per case (it
        peaked at 7.9 MiB when every case and its cells were held)."""
        rng = random.Random(23)
        sections = []
        for i in range(4000):
            theorem = rng.choice([f"T{k}{v}" for k in range(2, 7) for v in "AB"])
            sigma = Fraction(rng.choice([2, 3, 4, 5, 6]), 2)
            q, n = rng.choice([2, 3, 4, 6]), rng.randint(1, 9)
            sections.append(
                f"[case c{i:04d}]\ntheorem = {theorem}\nsigma = {sigma}\n"
                f"delta = {sigma / 2 * Fraction(rng.randint(13, 19), 20)}\n"
                f"mu = {rng.choice(['1/2', '1', '2'])}\nn = {n}\nq = {q}\n"
                f"m = {rng.choice(['1', '5/4', '3/2'])}\n"
                f"s = {sigma + Fraction(n, q) * Fraction(rng.randint(0, 6), 4)}\n")
        cfg = tmp_path / "scan.ini"
        cfg.write_text("\n".join(sections))
        tracemalloc.start()
        try:
            code = main(["admissible", "--config", str(cfg),
                         "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        with open(tmp_path / "admissible.ndjson") as fh:
            intervals = [json.loads(line)["interval"] for line in fh]
        assert len(intervals) == 4000
        assert 0 < intervals.count("empty") < 4000
        assert peak < 5 * 2 ** 20, peak


def csv_rows(text):
    """The header and data rows of a schema-1 CSV, by csv.reader."""
    return list(csv.reader(line for line in text.splitlines()
                           if not line.startswith("#")))


class TestCsvOutput:
    """Cells that hold a comma (every non-empty interval) are quoted, so
    each row parses to the header's width; TestKernelNormCommand checks
    the kernel-smallt preset."""

    @pytest.mark.parametrize("preset", sorted(set(PRESETS) - {"kernel-smallt"}))
    def test_preset_rows_have_header_width(self, tmp_path, preset):
        command = PRESETS[preset][0]
        assert main([command, "--preset", preset, "--out", str(tmp_path)]) in (
            EXIT_OK, EXIT_ASSERT)
        (path,) = tmp_path.glob("*.csv")
        header, *rows = csv_rows(path.read_text())
        assert rows and all(len(cells) == len(header) for cells in rows)

    def test_scan_rows_match_ndjson(self, tmp_path):
        # Non-empty intervals, closed and open, and an empty one.
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[case T2B]\ntheorem = T2B\nsigma = 2\ndelta = 7/8\nmu = 1\n"
            "q = 4\nm = 1\nn = 9\ns = 0\n"
            "[case T2A]\ntheorem = T2A\nsigma = 2\ndelta = 9/10\nmu = 1\n"
            "q = 5\nm = 1\nn = 3\ns = 0\n"
            "[case gated]\ntheorem = T2A\nsigma = 1\ndelta = 1/4\nmu = 1\n"
            "q = 2\nm = 1\nn = 1\ns = 0\n")
        assert main(["admissible", "--config", str(cfg),
                     "--out", str(tmp_path)]) == EXIT_OK
        header, *rows = csv_rows((tmp_path / "admissible.csv").read_text())
        records = [json.loads(line) for line in
                   (tmp_path / "admissible.ndjson").read_text().splitlines()]
        assert [dict(zip(header, cells)) for cells in rows] == records
        assert [r["interval"] for r in records] == ["[4, 9]", "(13/2, inf)",
                                                    "empty"]
        assert '"[4, 9]"' in (tmp_path / "admissible.csv").read_text()


class TestToolkitCommand:
    def test_bell_check(self, tmp_path):
        code = main(["toolkit", "--preset", "bell-check",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        text = (tmp_path / "toolkit.csv").read_text()
        assert text.startswith("# schema=1\n")
        assert "bell" in text and "duhamel" in text


class TestEvolveCommand:
    def test_non_integer_step_count_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[model]\nsigma = 1\ndelta = 1/4\nmu = 1\nn = 1\nq = 2\nm = 1\n"
            "p = 3\n[grid]\nL = 20\nN = 64\n"
            "[time]\nt_end = 1\ndt = 0.3\nstore_every = 1\n"
            "[evolve]\nnonlinearity = abs_u_p\n")
        code = main(["evolve", "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "config error" in err and "integer" in err
        assert "Traceback" not in err
        assert not (tmp_path / "evolve.csv").exists()

    def test_blow_up_writes_no_csv(self, tmp_path, capsys):
        # The data's row is made before the first step exceeds the ceiling.
        cfg = tmp_path / "c.ini"
        cfg.write_text(_EVOLVE.format(N=64, store_every=1) + "ceiling = 1e-9\n")
        code = main(["evolve", "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_NONCONV
        assert "exceeded ceiling" in err and "t = 0.1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "evolve.csv").exists()

    def test_holds_neither_data_nor_previous_snapshot(self, tmp_path):
        """The command's traced peak stays within the solver's working set,
        counted from the grid, plus the snapshot being turned into its row,
        one lq_norm temporary and a margin of one field: the initial data
        or the previous snapshot (two fields each) held across a step
        breaks it."""
        n, N = 2, 256
        cfg = tmp_path / "c.ini"
        cfg.write_text(_EVOLVE.replace("n = 1", "n = 2").format(N=N, store_every=1)
                       .replace("t_end = 1", "t_end = 0.4") + "q_list = 2,4\n")
        field = N ** n * 8
        # The solver, the snapshot and lq_norm's temporary.
        working = stepper_working_set(make_grid(n, 20.0, N)) + 3 * field
        tracemalloc.start()
        try:
            code = main(["evolve", "--config", str(cfg), "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert len((tmp_path / "evolve.csv").read_text().splitlines()) == 2 + 5
        assert peak < working + field, (peak, working)


_MODEL_1D = "[model]\nsigma = 1\ndelta = 1/4\nmu = 1\nn = 1\n"
_SWEEP = ("[sweep s]\nwhich = {which}\nband = {band}\nregime = small_t\n"
          "t_min = 0.02\nt_max = 0.5\npoints = {points}\n")
_EVOLVE = (_MODEL_1D + "q = 2\nm = 1\np = 3\n[grid]\nL = 20\nN = {N}\n"
           "[time]\nt_end = 1\ndt = 0.1\nstore_every = {store_every}\n"
           "[evolve]\nnonlinearity = abs_u_p\n")
_GEVREY = (_MODEL_1D + "q = 2\nm = 1\n[grid]\nL = 20\nN = 64\n"
           "[gevrey]\nt_max = 1\npoints = {points}\n")
_DECAY_FIT = (_MODEL_1D + "q = 2\nm = 1\n[grid]\nL = 20\nN = 64\n"
              "[time]\nt_min = 1\nt_max = 5\n")

#: Configs that once ended in an uncaught exception or in a misleading
#: result (a NaN field read as a blow-up or a NaN fit, an empty gevrey
#: scan as a success), with the command that reads them and a phrase of
#: the config error they now give.
BAD_CONFIGS = {
    "unknown-theorem": ("admissible", "unknown theorem 'T9Z'",
                        "[model]\nsigma = 2\ndelta = 9/10\nmu = 1\nq = 5\n"
                        "m = 1\nn = 3\ns = 0\n[case x]\ntheorem = T9Z\n"),
    "which-K2": ("kernel-norm", "which must be K0 or K1",
                 _MODEL_1D + _SWEEP.format(which="K2", band="low", points=5)),
    "band-mid": ("kernel-norm", "band must be low, high or full",
                 _MODEL_1D + _SWEEP.format(which="K1", band="mid", points=5)),
    "three-points": ("kernel-norm", "points must be >= 5",
                     _MODEL_1D + _SWEEP.format(which="K1", band="low", points=3)),
    "regime-medium": ("kernel-norm", "regime must be small_t or large_t",
                      _MODEL_1D + _SWEEP.format(which="K1", band="low", points=5)
                      .replace("small_t", "medium_t")),
    "r-half": ("kernel-norm", "r must be >= 1",
               _MODEL_1D + _SWEEP.format(which="K1", band="low", points=5)
               + "r = 1/2\n"),
    "kernel-n5": ("kernel-norm", "n = 1, 2 or 3",
                  _MODEL_1D.replace("n = 1", "n = 5")
                  + _SWEEP.format(which="K1", band="low", points=5)),
    "grid-N1000": ("evolve", "N must be a power of two",
                   _EVOLVE.format(N=1000, store_every=1)),
    "store-every-0": ("evolve", "store_every = 0 must be >= 1",
                      _EVOLVE.format(N=64, store_every=0)),
    "q-list-word": ("evolve", "bad value for 'q_list'",
                    _EVOLVE.format(N=64, store_every=1) + "q_list = two\n"),
    "q-list-half": ("evolve", "every q in q_list must be >= 1",
                    _EVOLVE.format(N=64, store_every=1) + "q_list = 2,1/2\n"),
    "q-list-duplicate": ("evolve", "q = 2 appears twice in q_list",
                         _EVOLVE.format(N=64, store_every=1)
                         + "q_list = 2,4,2/1\n"),
    "ceiling-0": ("evolve", "ceiling = 0 must be positive",
                  _EVOLVE.format(N=64, store_every=1) + "ceiling = 0\n"),
    "ceiling-negative": ("evolve", "ceiling = -1 must be positive",
                         _EVOLVE.format(N=64, store_every=1) + "ceiling = -1\n"),
    "ceiling-nan": ("evolve", "ceiling = nan must be positive",
                    _EVOLVE.format(N=64, store_every=1) + "ceiling = nan\n"),
    "decay-t-min-0": ("decay-fit", "need 0 < t_min < t_max",
                      _MODEL_1D + "q = 2\nm = 1\n[grid]\nL = 20\nN = 64\n"
                      "[time]\nt_min = 0\nt_max = 5\n"),
    "decay-t-max-inf": ("decay-fit", "t_min and t_max must be finite",
                        _MODEL_1D + "q = 2\nm = 1\n[grid]\nL = 20\nN = 64\n"
                        "[time]\nt_min = 1\nt_max = 1e400\n"),
    "kernel-t-max-inf": ("kernel-norm", "t_min and t_max must be finite",
                         _MODEL_1D + _SWEEP.format(which="K1", band="low", points=5)
                         .replace("t_max = 0.5", "t_max = 1e400")),
    "kernel-t-min-nan": ("kernel-norm", "t_min and t_max must be finite",
                         _MODEL_1D + _SWEEP.format(which="K1", band="low", points=5)
                         .replace("t_min = 0.02", "t_min = nan")),
    "a-negative": ("kernel-norm", "a must be >= 0",
                   _MODEL_1D + _SWEEP.format(which="K1", band="low", points=5)
                   + "a = -1\n"),
    "duhamel-times-word": ("toolkit", "bad value for 'duhamel_times'",
                           "[toolkit]\nduhamel_times = 10,ten\n"),
    "duhamel-times-negative": ("toolkit", "duhamel_times must be positive",
                               "[toolkit]\nduhamel_times = -5,10\n"),
    "bell-max-30": ("toolkit", "bell_max must be in 1..20",
                    "[toolkit]\nbell_max = 30\n"),
    "alpha-step-0": ("toolkit", "alpha_step must be positive",
                     "[toolkit]\nalpha_step = 0\n"),
    "evolve-width-0": ("evolve", "width = 0.0 must be finite and positive",
                       _EVOLVE.format(N=64, store_every=1)
                       + "[data]\nwidth = 0\n"),
    "decay-fit-width-0": ("decay-fit", "width = 0.0 must be finite and positive",
                          _MODEL_1D + "q = 2\nm = 1\n[grid]\nL = 20\nN = 64\n"
                          "[time]\nt_min = 1\nt_max = 5\n[data]\nwidth = 0\n"),
    "gevrey-width-0": ("gevrey", "width = 0.0 must be finite and positive",
                       _GEVREY.format(points=5) + "[data]\nwidth = 0\n"),
    "gevrey-points-0": ("gevrey", "points must be >= 2",
                        _GEVREY.format(points=0)),
    "gevrey-c-negative": ("gevrey", "c = -1 must be positive",
                          _GEVREY.format(points=5) + "c = -1\n"),
    "gevrey-c-0": ("gevrey", "c = 0 must be positive",
                   _GEVREY.format(points=5) + "c = 0\n"),
    "gevrey-c-nan": ("gevrey", "c = nan must be positive",
                     _GEVREY.format(points=5) + "c = nan\n"),
    "gevrey-t-max-negative": ("gevrey", "t_max = -2 must be finite and >= 0",
                              _GEVREY.replace("t_max = 1", "t_max = -2")
                              .format(points=5)),
    "gevrey-t-max-inf": ("gevrey", "t_max = inf must be finite and >= 0",
                         _GEVREY.replace("t_max = 1", "t_max = 1e400")
                         .format(points=5)),
    "gevrey-t-max-nan": ("gevrey", "t_max = nan must be finite and >= 0",
                         _GEVREY.replace("t_max = 1", "t_max = nan")
                         .format(points=5)),
    "alpha-max-inf": ("toolkit", "alpha_max = inf must be finite and >= 0",
                      "[toolkit]\nalpha_max = inf\n"),
    "alpha-max-nan": ("toolkit", "alpha_max = nan must be finite and >= 0",
                      "[toolkit]\nalpha_max = nan\n"),
    "alpha-max-negative": ("toolkit", "alpha_max = -1 must be finite and >= 0",
                           "[toolkit]\nalpha_max = -1\n"),
    "evolve-p-huge": ("evolve", "p is too large for a float",
                      _EVOLVE.replace("p = 3", "p = 1e400")
                      .format(N=64, store_every=1)),
    "kernel-sigma-huge": ("kernel-norm", "sigma is too large for a float",
                          _MODEL_1D.replace("sigma = 1", "sigma = 1e400")
                          + _SWEEP.format(which="K1", band="low", points=5)),
    "kernel-mu-huge": ("kernel-norm", "mu is too large for a float",
                       _MODEL_1D.replace("mu = 1", "mu = 1e400")
                       + _SWEEP.format(which="K1", band="low", points=5)),
    "q-list-huge": ("evolve", "bad value for 'q_list'",
                    _EVOLVE.format(N=64, store_every=1) + "q_list = 1e400\n"),
    "evolve-amplitude-inf": ("evolve", "amplitude = inf must be finite",
                             _EVOLVE.format(N=64, store_every=1)
                             + "[data]\namplitude = 1e400\n"),
    "decay-fit-amplitude-inf": ("decay-fit", "amplitude = inf must be finite",
                                _MODEL_1D + "q = 2\nm = 1\n[grid]\nL = 20\n"
                                "N = 64\n[data]\namplitude = 1e400\n"),
    "gevrey-amplitude-inf": ("gevrey", "amplitude = inf must be finite",
                             _GEVREY.format(points=5)
                             + "[data]\namplitude = 1e400\n"),
    "evolve-L-inf": ("evolve", "L = inf must be finite and positive",
                     _EVOLVE.replace("L = 20", "L = 1e400")
                     .format(N=64, store_every=1)),
    "decay-fit-L-nan": ("decay-fit", "L = nan must be finite and positive",
                        _MODEL_1D + "q = 2\nm = 1\n[grid]\nL = nan\n"
                        "N = 64\n"),
    "gevrey-L-inf": ("gevrey", "L = inf must be finite and positive",
                     _GEVREY.replace("L = 20", "L = 1e400").format(points=5)),
    # The [admissible] theorems list is gone; it once dropped silently
    # when a [case] section was present.
    "admissible-section": ("admissible", "unknown config section [admissible]",
                           "[model]\nsigma = 2\ndelta = 9/10\nmu = 1\nq = 5\n"
                           "m = 1\nn = 3\ns = 0\n[case T2A]\ntheorem = T2A\n"
                           "[admissible]\ntheorems = T3A, T5A\n"),
    "admissible-no-case": ("admissible", "no [case NAME] sections configured",
                           "[model]\nsigma = 2\ndelta = 9/10\nmu = 1\n"),
}

#: A config of each command that reads a threshold, less the value.
_THRESHOLD_CONFIGS = {
    ("decay-fit", "tol"): _DECAY_FIT + "[fit]\ntol = ",
    ("kernel-norm", "tol"): (_MODEL_1D + _SWEEP.format(
        which="K1", band="low", points=5) + "[fit]\ntol = "),
    ("gevrey", "ratio_bound"): _GEVREY.format(points=5) + "ratio_bound = ",
    ("toolkit", "ratio_bound"): "[toolkit]\nratio_bound = ",
}
BAD_CONFIGS.update({
    f"{command}-{key}-{name}": (
        command, f"{command}: {key} = {value} must be finite and >= 0",
        text + value + "\n")
    for (command, key), text in _THRESHOLD_CONFIGS.items()
    for name, value in (("nan", "nan"), ("negative", "-1"), ("inf", "inf"))})


class TestConfigErrors:
    def test_admissible_keeps_exact_rationals(self, tmp_path):
        # Only the float-using commands need a model value to fit a float.
        cfg = tmp_path / "c.ini"
        cfg.write_text("[model]\nsigma = 2\ndelta = 9/10\nmu = 1e400\nq = 5\n"
                       "m = 1\nn = 3\ns = 0\n[case T2A]\ntheorem = T2A\n")
        assert main(["admissible", "--config", str(cfg),
                     "--out", str(tmp_path)]) == EXIT_OK
        assert ",1" + "0" * 400 + "," in (tmp_path / "admissible.csv").read_text()

    @pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
    def test_bad_config_is_config_error(self, tmp_path, capsys, name):
        command, message, text = BAD_CONFIGS[name]
        cfg = tmp_path / "c.ini"
        cfg.write_text(text)
        code = main([command, "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "config error" in err and message in err
        assert "Traceback" not in err


@pytest.fixture(scope="class")
def kernel_smallt_strict(tmp_path_factory):
    """Exit code and CSV text of one --strict run of the kernel-smallt preset."""
    out = tmp_path_factory.mktemp("kernel-smallt")
    code = main(["kernel-norm", "--preset", "kernel-smallt", "--strict",
                 "--out", str(out)])
    return code, (out / "kernel_norm.csv").read_text()


class TestKernelNormCommand:
    def test_rows_have_header_width(self, kernel_smallt_strict):
        header, *rows = csv_rows(kernel_smallt_strict[1])
        assert rows and all(len(cells) == len(header) for cells in rows)

    def test_strict_small_t_overclaim_fails(self, kernel_smallt_strict):
        # The high-band t -> 0 L^1 norm of the first kernel stays O(1);
        # the claimed -2 power law is an unsaturated upper bound, so the
        # preset reports tolerance_exceeded (exit 0 normally, 2 under
        # --strict).
        code, text = kernel_smallt_strict
        assert code == EXIT_ASSERT
        assert "tolerance_exceeded" in text
        assert ",ok" in text  # the low-band companion sweep does pass

    def test_preset_rows_pinned(self, kernel_smallt_strict):
        """The exact data rows of the kernel-smallt preset.

        Speed changes to the kernel evaluator or the transforms must leave
        them byte for byte.  A deliberate numerical change updates these
        rows and states the drift of `fitted` in CHANGES.md.
        """
        _, text = kernel_smallt_strict
        assert text.splitlines()[2:] == [
            "K0-high-smallt,1,1/4,1,1,2,1,0,,K0,high,0,1,small_t,0.05,0.5,"
            "-0.120716315303,-2,0.939641842349,tolerance_exceeded",
            "K1-low-smallt,1,1/4,1,1,2,1,0,,K1,low,0,1,small_t,0.02,0.5,"
            "0.960103351759,1,0.0398966482411,ok",
        ]


#: Relative tolerance, fixed in advance, of the numeric cells of the
#: pinned rows of the presets that evolve the linear flow.
_PIN_RTOL = 1e-12

#: The data rows of the linear-decay and gevrey-check presets, with the
#: command that runs each and its CSV.
LINEAR_FLOW_ROWS = {
    "linear-decay": ("decay-fit", "decay_fit.csv", [
        "norm_L2_u,1,1/4,1,1,2,1,0,,-0.341605365837,-1/3,0.0248160975118,0,ok",
    ]),
    "gevrey-check": ("gevrey", "gevrey.csv", [
        "1,1/4,1,1,2,1,0,,0,0.2,1.1314786282,1,ok",
        "1,1/4,1,1,2,1,0,,0.5,0.2,1.18325804741,1.04576261356,ok",
        "1,1/4,1,1,2,1,0,,1,0.2,0.770818112386,0.681248494825,ok",
        "1,1/4,1,1,2,1,0,,1.5,0.2,0.464962063428,0.410933138144,ok",
        "1,1/4,1,1,2,1,0,,2,0.2,0.300396979211,0.265490634754,ok",
        "1,1/4,1,1,2,1,0,,2.5,0.2,0.20215390455,0.178663475838,ok",
        "1,1/4,1,1,2,1,0,,3,0.2,0.140313033628,0.124008558475,ok",
        "1,1/4,1,1,2,1,0,,3.5,0.2,0.100068167274,0.0884401744584,ok",
        "1,1/4,1,1,2,1,0,,4,0.2,0.0726825137954,0.0642367535578,ok",
        "1,1/4,1,1,2,1,0,,4.5,0.2,0.0531395328089,0.0469646809799,ok",
        "1,1/4,1,1,2,1,0,,5,0.2,0.0387114482173,0.034213150167,ok",
        "1,1/4,1,1,2,1,0,,5.5,0.2,0.0279341707622,0.0246882000827,ok",
        "1,1/4,1,1,2,1,0,,6,0.2,0.0199481579509,0.0176301676883,ok",
        "1,1/4,1,1,2,1,0,,6.5,0.2,0.0141437052292,0.0125001965364,ok",
        "1,1/4,1,1,2,1,0,,7,0.2,0.0100147397446,0.00885101980279,ok",
        "1,1/4,1,1,2,1,0,,7.5,0.2,0.00712487488458,0.00629695931238,ok",
        "1,1/4,1,1,2,1,0,,8,0.2,0.00511420810286,0.00451993345293,ok",
        "1,1/4,1,1,2,1,0,,8.5,0.2,0.00370728500448,0.00327649582776,ok",
        "1,1/4,1,1,2,1,0,,9,0.2,0.00270875373624,0.00239399460912,ok",
        "1,1/4,1,1,2,1,0,,9.5,0.2,0.00198835896184,0.00175731022424,ok",
        "1,1/4,1,1,2,1,0,,10,0.2,0.00146209358923,0.00129219726541,ok",
    ]),
}


class TestLinearFlowPresets:
    @pytest.mark.parametrize("preset", sorted(LINEAR_FLOW_ROWS))
    def test_preset_rows_pinned(self, tmp_path, preset):
        """Text cells equal the pinned rows; numeric cells agree to
        _PIN_RTOL, so a change of spectral format may move the last
        printed digit but nothing more."""
        command, name, expected = LINEAR_FLOW_ROWS[preset]
        assert main([command, "--preset", preset,
                     "--out", str(tmp_path)]) == EXIT_OK
        rows = (tmp_path / name).read_text().splitlines()[2:]
        assert len(rows) == len(expected)
        for row, pinned in zip(rows, expected):
            cells, pinned_cells = row.split(","), pinned.split(",")
            assert len(cells) == len(pinned_cells), row
            for cell, want in zip(cells, pinned_cells):
                try:
                    value = float(want)
                except ValueError:
                    assert cell == want, row
                else:
                    assert float(cell) == pytest.approx(
                        value, rel=_PIN_RTOL, abs=0.0), row


class TestNonPositiveNorm:
    """A norm that is not positive cannot enter the log-log fit; the
    sweep stops with exit 3 and names the sweep and the time."""

    def test_zero_norm_is_nonconvergence(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "kernel_lr_norm", lambda *args, **kwargs: 0.0)
        cfg = tmp_path / "c.ini"
        cfg.write_text(_MODEL_1D + _SWEEP.format(which="K1", band="low", points=5))
        code = main(["kernel-norm", "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_NONCONV
        assert "sweep 's'" in err and "t = 0.02 " in err and "not positive" in err
        assert "Traceback" not in err
        assert not (tmp_path / "kernel_norm.csv").exists()

    def test_underflowing_high_band(self, tmp_path, capsys):
        # The high band decays exponentially at large t; by t = 2000 its
        # L^1 norm is 0.0 in double precision.
        cfg = tmp_path / "c.ini"
        cfg.write_text(_MODEL_1D + "[sweep K0-high]\nwhich = K0\nband = high\n"
                       "regime = large_t\nt_min = 2000\nt_max = 20000\n")
        code = main(["kernel-norm", "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_NONCONV
        assert "sweep 'K0-high'" in err and "t = 2000 " in err
        assert "Traceback" not in err


class TestGevreyOverflow:
    def test_overflowing_weight_is_nonconvergence(self, tmp_path, capsys):
        # The gevrey-check model to t = 2000: from t = 500 on the weight
        # exp(2 c rho^(2 delta) t) overflows, and the energy was once
        # written as nan with status bound_exceeded (exit 2).
        cfg = tmp_path / "c.ini"
        cfg.write_text(_MODEL_1D + "[grid]\nL = 100\nN = 2048\n"
                       "[gevrey]\nt_max = 2000\npoints = 5\n")
        code = main(["gevrey", "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_NONCONV
        assert "t = 500 " in err and "not finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "gevrey.csv").exists()


#: Data too large to square, with the command that reads them and the
#: message it stops with: the L^2 norm of the linear flow overflows, or
#: at t = 0 the data's own Gevrey energy does.  Each command exits 3,
#: writes no CSV and leaks no warning.
OVERFLOW_CONFIGS = {
    "decay-fit": ("decay-fit", "the L^2 norm at t = 1 overflows (the data "
                  "are too large)", _DECAY_FIT + "[data]\namplitude = 1e300\n"),
    "gevrey-energy": ("gevrey", "the energy at t = 0 is nan, not finite (the "
                      "data are too large)", _GEVREY.format(points=5)
                      + "[data]\namplitude = 1e300\n"),
    # The squared spectrum stays finite mode by mode, its sum does not.
    "gevrey-norm": ("gevrey", "the L^2 norm at t = 0.25 overflows (the data "
                    "are too large)", _GEVREY.format(points=5)
                    + "[data]\namplitude = 1.8e152\nwidth = 40\n"),
    # Only the zero mode's square overflows; its Gevrey weight is 0, so
    # the energy at t = 0 is finite and the flow's monitor stops the scan.
    "gevrey-zero-mode": ("gevrey", "the L^2 norm at t = 0.5 overflows (the "
                         "data are too large)", _GEVREY.format(points=3)
                         + "[data]\namplitude = 1e153\nwidth = 40\n"),
}


class TestOverflowingData:
    @pytest.mark.parametrize("name", sorted(OVERFLOW_CONFIGS))
    def test_overflow_is_nonconvergence(self, tmp_path, capsys, name):
        command, message, text = OVERFLOW_CONFIGS[name]
        cfg = tmp_path / "c.ini"
        cfg.write_text(text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_NONCONV
        assert f"{command}: {message}" in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []


#: Per command, a config with a failing check and the exit code without
#: and with --strict: the table in the README.  evolve and gevrey have no
#: --strict, so the flag is a usage error there.
EXIT_RULES = {
    "admissible-gate": ("admissible", _MODEL_1D + "q = 2\nm = 1\n"
                        "[case T2A]\ntheorem = T2A\n", EXIT_OK, EXIT_ASSERT),
    "decay-fit-tolerance": ("decay-fit", _DECAY_FIT + "[fit]\ntol = 0\n",
                            EXIT_ASSERT, EXIT_ASSERT),
    "decay-fit-wrap-around": ("decay-fit", _DECAY_FIT + "[data]\nwidth = 10\n"
                              "[fit]\ntol = 1e9\n", EXIT_OK, EXIT_ASSERT),
    "kernel-norm-tolerance": ("kernel-norm", _MODEL_1D + _SWEEP.format(
        which="K1", band="low", points=5) + "[fit]\ntol = 0\n",
        EXIT_OK, EXIT_ASSERT),
    "evolve": ("evolve", _EVOLVE.format(N=64, store_every=5),
               EXIT_OK, EXIT_CONFIG),
    "gevrey-ratio-bound": ("gevrey", _GEVREY.format(points=5)
                           + "ratio_bound = 1e-9\n", EXIT_ASSERT, EXIT_CONFIG),
    "toolkit-spread": ("toolkit", "[toolkit]\nbell_max = 2\nalpha_max = 0\n"
                       "duhamel_times = 10,100\nratio_bound = 0.5\n",
                       EXIT_OK, EXIT_ASSERT),
}


class TestExitCodes:
    @pytest.mark.parametrize("name", sorted(EXIT_RULES))
    def test_failed_check_exit_code(self, tmp_path, name):
        # The CSV reports the check either way; --strict may only turn
        # exit 0 into exit 2, or be rejected before anything is written.
        command, text, plain, strict = EXIT_RULES[name]
        cfg = tmp_path / "c.ini"
        cfg.write_text(text)
        for flags, expected in (([], plain), (["--strict"], strict)):
            out = tmp_path / ("strict" if flags else "plain")
            assert main([command, "--config", str(cfg), "--out", str(out),
                         *flags]) == expected
            if expected == EXIT_CONFIG:
                assert not out.exists()
            else:
                assert len(list(out.iterdir())) >= 1


#: Command lines that argparse rejects, and a phrase of the message: each
#: exits 1 with a config error and writes nothing.
USAGE_ERRORS = {
    "unknown-option": (["evolve", "--preset", "semilinear-smoke", "--bogus"],
                       "unrecognized arguments: --bogus"),
    # --tol was a float option; no command takes it now.
    "tol-bad-float": (["kernel-norm", "--preset", "kernel-rates", "--tol", "abc"],
                      "unrecognized arguments: --tol abc"),
    "tol-decay-fit": (["decay-fit", "--preset", "linear-decay", "--tol", "0.1"],
                      "unrecognized arguments: --tol 0.1"),
    "no-subcommand": ([], "the following arguments are required: command"),
    "unknown-subcommand": (["bogus"], "invalid choice: 'bogus'"),
    "option-without-value": (["admissible", "--preset"],
                             "argument --preset: expected one argument"),
    "evolve-strict": (["evolve", "--preset", "semilinear-smoke", "--strict"],
                      "unrecognized arguments: --strict"),
    "gevrey-strict": (["gevrey", "--preset", "gevrey-check", "--strict"],
                      "unrecognized arguments: --strict"),
}


class TestUsageErrors:
    @pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
    def test_usage_error_is_config_error(self, tmp_path, capsys, monkeypatch,
                                         name):
        argv, message = USAGE_ERRORS[name]
        monkeypatch.chdir(tmp_path)  # where the default --out would go
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: sigmalab") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_process_exit_code(self, tmp_path):
        # argparse's own exit code for a usage error is 2, a failed check.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "sigmalab.cli"], env=env,
                              cwd=tmp_path, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == EXIT_CONFIG
        assert done.stderr.startswith("config error: sigmalab: ")
        assert "Traceback" not in done.stderr


class TestDeterminism:
    @pytest.mark.parametrize("preset", ["paper-examples", "bell-check"])
    def test_fast_presets_byte_identical(self, tmp_path, preset):
        command = PRESETS[preset][0]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main([command, "--preset", preset,
                         "--out", str(out)]) == EXIT_OK
        for child in sorted(out1.iterdir()):
            assert read(child) == read(out2 / child.name)


_SRC = str(Path(cli.__file__).resolve().parents[1])


def _run_fresh(code: str, tmp_path, watch=("scipy", "configparser")) -> list[str]:
    """Run `code` in a fresh interpreter with sigmalab on its path; return
    the packages in `watch` and their submodules loaded at its end."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
    script = (f"import json, sys\nout = {str(tmp_path)!r}\nwatch = {tuple(watch)!r}\n"
              f"{code}\n"
              "print(json.dumps(sorted(m for m in sys.modules if m in watch "
              "or m.startswith(tuple(w + '.' for w in watch)))))\n")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


class TestColdStart:
    """scipy is imported only by the commands that call it, configparser by
    none, and concurrent.futures and logging not by `import sigmalab.cli`."""

    def test_import_leaves_thread_pools_and_logging_unloaded(self, tmp_path):
        # The kernels start a plain thread per call, so importing the CLI
        # pays for neither concurrent.futures nor the logging it imports.
        loaded = _run_fresh("import sigmalab.cli\n", tmp_path,
                            watch=("concurrent", "logging"))
        assert "concurrent.futures" not in loaded
        assert "logging" not in loaded

    def test_admissible_and_evolve_leave_scipy_unloaded(self, tmp_path):
        (tmp_path / "evolve.ini").write_text(_EVOLVE.format(N=32, store_every=5))
        (tmp_path / "admissible.ini").write_text(
            "[model]\nsigma = 2\ndelta = 9/10\nmu = 1\nq = 5\nm = 1\n"
            "n = 3\ns = 0\n[case T2A]\ntheorem = T2A\n")
        loaded = _run_fresh(
            "import sigmalab, sigmalab.cli\n"
            "from sigmalab.cli import main\n"
            "assert main(['admissible', '--preset', 'paper-examples',"
            " '--out', out]) == 0\n"
            "assert main(['admissible', '--config', out + '/admissible.ini',"
            " '--out', out]) == 0\n"
            "assert main(['evolve', '--config', out + '/evolve.ini',"
            " '--out', out]) == 0\n", tmp_path)
        assert loaded == []
        assert (tmp_path / "admissible.csv").exists()
        assert (tmp_path / "evolve.csv").exists()

    @pytest.mark.parametrize("args,module,output,row", [
        ("'toolkit', '--preset', 'bell-check'", "scipy.integrate",
         "toolkit.csv", "duhamel,"),
        ("'kernel-norm', '--config', out + '/n2.ini'", "scipy.special",
         "kernel_norm.csv", "low,1,1/4,1,2,"),
    ], ids=["bell-check", "kernel-norm-n2"])
    def test_commands_that_need_scipy_load_it(self, tmp_path, args, module,
                                              output, row):
        (tmp_path / "n2.ini").write_text(
            _MODEL_1D.replace("n = 1", "n = 2")
            + "[sweep low]\nwhich = K0\nband = low\nregime = large_t\n"
            "t_min = 1\nt_max = 10\npoints = 5\n")
        loaded = _run_fresh(
            "from sigmalab.cli import main\n"
            f"assert main([{args}, '--out', out]) == 0\n", tmp_path)
        assert module in loaded
        assert row in (tmp_path / output).read_text()


_BENCH = str(Path(__file__).resolve().parents[1] / "bench")


class TestPublicSurface:
    LIBRARY = ("params", "dispersion", "admissibility", "kernels", "spectral",
               "toolkit")

    def test_every_exported_name_resolves(self):
        exported = set()
        for name in (*self.LIBRARY, "cli"):
            module = importlib.import_module(f"sigmalab.{name}")
            for attr in module.__all__:
                getattr(module, attr)
            if name in self.LIBRARY:
                exported |= set(module.__all__)
                for attr in module.__all__:
                    assert getattr(sigmalab, attr) is getattr(module, attr)
        assert set(sigmalab.__all__) == exported | {"__version__"}
        assert len(sigmalab.__all__) == len(set(sigmalab.__all__))

    def test_benchmark_tracer_targets_exist(self, monkeypatch):
        # bench/tracer.py patches each layer name in its owner's namespace;
        # a missing name fails here as it would fail every traced run.
        monkeypatch.syspath_prepend(_BENCH)
        tracer = importlib.import_module("tracer")
        original = cli.kernel_lr_norm
        with tracer.patched(tracer.Tracer()):
            assert cli.kernel_lr_norm is not original
        assert cli.kernel_lr_norm is original
