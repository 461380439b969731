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


_MODEL_1D = "[model]\nsigma = 1\ndelta = 1/4\nmu = 1\nn = 1\n"
_SWEEP = ("[sweep s]\nwhich = {which}\nband = {band}\nregime = small_t\n"
          "t_min = 0.02\nt_max = 0.5\npoints = {points}\n")
_EVOLVE = (_MODEL_1D + "q = 2\nm = 1\np = 3\n[grid]\nL = 20\nN = {N}\n"
           "[time]\nt_end = 1\ndt = 0.1\nstore_every = {store_every}\n"
           "[evolve]\nnonlinearity = abs_u_p\n")

#: Configs that once ended in an uncaught exception, with the command
#: that reads them and a phrase of the config error they now give.
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
    "decay-t-min-0": ("decay-fit", "need 0 < t_min < t_max",
                      _MODEL_1D + "q = 2\nm = 1\n[grid]\nL = 20\nN = 64\n"
                      "[time]\nt_min = 0\nt_max = 5\n"),
    "duhamel-times-word": ("toolkit", "bad value for 'duhamel_times'",
                           "[toolkit]\nduhamel_times = 10,ten\n"),
    "duhamel-times-negative": ("toolkit", "duhamel_times must be positive",
                               "[toolkit]\nduhamel_times = -5,10\n"),
    "bell-max-30": ("toolkit", "bell_max must be in 1..20",
                    "[toolkit]\nbell_max = 30\n"),
    "alpha-step-0": ("toolkit", "alpha_step must be positive",
                     "[toolkit]\nalpha_step = 0\n"),
}


class TestConfigErrors:
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
