"""The figures' command line: ``python -m repro.expdb figure``."""

import pytest

from repro.expdb.cli import main


def figure(tmp_path, *argv):
    return main(["--db", str(tmp_path / "figures.sqlite"), "figure", *argv])


class TestCLI:
    def test_runs_single_experiment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert figure(tmp_path, "T1") == 0
        output = capsys.readouterr().out
        assert "Table 4.1" in output

    def test_scale_flag_overrides_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert figure(tmp_path, "E17", "--scale", "smoke", "--seeds", "1") == 0
        assert "executed 2 rows at scale 'smoke'" in capsys.readouterr().err

    def test_unknown_experiment_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        with pytest.raises(SystemExit) as excinfo:
            figure(tmp_path, "E99")
        assert excinfo.value.code != 0
        assert "invalid choice: 'E99'" in capsys.readouterr().err

    def test_unknown_scale_exits_nonzero(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            figure(tmp_path, "T1", "--scale", "galactic")
        assert excinfo.value.code != 0
        assert "--scale" in capsys.readouterr().err

    def test_db_flag_after_the_command(self, tmp_path, capsys):
        """``figure ... --db PATH`` (the CI spelling) names the same
        database as ``--db PATH figure ...``: the second call finds the
        first one's rows and executes nothing."""
        path = str(tmp_path / "late.sqlite")
        argv = ["E17", "--scale", "smoke", "--seeds", "1"]
        assert main(["figure", *argv, "--db", path]) == 0
        first = capsys.readouterr()
        assert main(["--db", path, "figure", *argv]) == 0
        second = capsys.readouterr()
        assert "executed 2 rows" in first.err and "executed 0 rows" in second.err
        assert first.out == second.out
