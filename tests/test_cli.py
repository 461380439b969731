"""Command-line interface: exit codes, schemas and determinism."""

import json

import pytest

from sigmalab.cli import (EXIT_ASSERT, EXIT_CONFIG, EXIT_OK, PRESETS, main)


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
                       "[admissible]\ntheorems = T2A\n")
        code = main(["admissible", "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG


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
            "[admissible]\ntheorems = T2A\n")
        assert main(["admissible", "--config", str(cfg),
                     "--out", str(tmp_path)]) == EXIT_OK
        assert main(["admissible", "--config", str(cfg), "--strict",
                     "--out", str(tmp_path)]) == EXIT_ASSERT


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


class TestKernelNormCommand:
    def test_strict_small_t_overclaim_fails(self, tmp_path):
        # The high-band t -> 0 L^1 norm of the first kernel stays O(1);
        # the claimed -2 power law is an unsaturated upper bound, so the
        # preset reports tolerance_exceeded (exit 0 normally, 2 under
        # --strict).
        code = main(["kernel-norm", "--preset", "kernel-smallt", "--strict",
                     "--out", str(tmp_path)])
        assert code == EXIT_ASSERT
        text = (tmp_path / "kernel_norm.csv").read_text()
        assert "tolerance_exceeded" in text
        assert ",ok" in text  # the low-band companion sweep does pass


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
