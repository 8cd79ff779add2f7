"""Tests for the ``python -m repro.analysis`` command-line front end."""

import json

import pytest

from repro.analysis import figure13, save_figure_json
from repro.analysis.__main__ import main
from repro.analysis.figures import FigureData, Series


@pytest.fixture()
def archived(tmp_path):
    path = tmp_path / "fig13.json"
    save_figure_json(figure13(), path)
    return path


class TestPlotCommand:
    def test_plots_archive(self, archived, capsys):
        assert main(["plot", str(archived)]) == 0
        out = capsys.readouterr().out
        assert "legend:" in out and "mpi_cpu" in out

    def test_linear_flag(self, archived, capsys):
        assert main(["plot", str(archived), "--linear"]) == 0
        assert "(log)" not in capsys.readouterr().out

    def test_usage_error(self, capsys):
        assert main(["plot"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "required: FIGURE.json" in err


class TestCompareCommand:
    def test_identical_agree(self, archived, capsys):
        assert main(["compare", str(archived), str(archived)]) == 0
        assert "agree" in capsys.readouterr().out

    def test_different_figures_differ(self, archived, tmp_path, capsys):
        other = FigureData(
            "fig13", "t", "x", "y",
            [Series("mpi_cpu", [65536.0], [1.0])],
        )
        path2 = tmp_path / "other.json"
        save_figure_json(other, path2)
        assert main(["compare", str(archived), str(path2)]) == 1
        assert capsys.readouterr().out

    def test_tolerance(self, archived, tmp_path, capsys):
        data = json.loads(archived.read_text())
        for s in data["series"]:
            s["y"] = [y * 1.01 for y in s["y"]]
        path2 = tmp_path / "scaled.json"
        path2.write_text(json.dumps(data))
        assert main(["compare", str(archived), str(path2), "--rel", "0.05"]) == 0
        assert main(["compare", str(archived), str(path2), "--rel", "0.001"]) == 1

    def test_bad_rel(self, capsys):
        assert main(["compare", "a", "b", "--rel", "x"]) == 2


class TestTopLevel:
    def test_help(self, capsys):
        assert main([]) == 0
        assert "Subcommands" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["dance"]) == 2
        assert "unknown flag 'dance'" in capsys.readouterr().err

    def test_figures_fast_archives(self, tmp_path, capsys):
        rc = main(["figures", "--fast", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig13" in out
        assert (tmp_path / "fig13.json").exists()
        assert (tmp_path / "fig9a.txt").exists()
