"""The ``python -m repro.experiments`` CLI: list, run, and cache-only report."""

import dataclasses
import functools

from repro.experiments.__main__ import main
from repro.experiments.figures import FIGURES
from repro.experiments.parallel import SweepRunner


def shrink(monkeypatch, name, **cells):
    """Narrow FIGURES[name]'s grid to ``cells`` for the rest of the test."""
    figure = FIGURES[name]
    grid = functools.partial(figure.grid, **cells)
    monkeypatch.setitem(FIGURES, name, dataclasses.replace(figure, grid=grid))


class TestList:
    def test_list_includes_mobility_family(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mobility-tcp" in out and "mobility-voip" in out

    def test_registry_covers_paper_and_extras(self):
        for name in ("fig3", "table3", "mobility-tcp", "mobility-voip", "corpus"):
            assert name in FIGURES

    def test_list_groups_families_under_headings(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for heading in ("paper figures:", "ablations:", "mobility:",
                        "components:", "corpus:"):
            assert heading in out
        # Headings appear in registration order; figures come first.
        assert out.index("paper figures:") < out.index("ablations:") < out.index("corpus:")

    def test_list_shows_the_corpus_axes(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        corpus_line = next(line for line in out.splitlines() if line.strip().startswith("corpus "))
        assert "axes: topology x mac" in corpus_line
        assert "corpus-report" not in out

    def test_list_prints_registry_summaries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "MAC scheme:" in out and "trace:<arg>" in out


class TestRun:
    def test_unknown_experiment_rejected(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestCorpusFamily:
    def test_corpus_blocks_hold_the_seeded_sample_rows(self):
        figure = FIGURES["corpus"]
        blocks = figure.blocks(SweepRunner(), 0, 0.005, sample=2)
        again = figure.blocks(SweepRunner(), 0, 0.005, sample=2)
        ((title, rows),) = blocks.items()
        assert title.endswith("(sample seed 0)")
        assert len(rows) == 2
        assert blocks == again
        for columns in rows.values():
            assert set(columns) == {"Mb/s", "events"}

    def test_report_corpus_refuses_to_simulate_on_a_cold_cache(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["report", "corpus"]) == 3
        assert "not in the result cache" in capsys.readouterr().err
        assert not any(tmp_path.rglob("*.json"))

    def test_report_corpus_serves_a_populated_cache(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        shrink(monkeypatch, "corpus", sample=2)
        assert main(["run", "corpus", "--duration", "0.005"]) == 0
        run_out = capsys.readouterr().out
        assert "Corpus" in run_out
        assert main(["report", "corpus", "--duration", "0.005"]) == 0
        report_out = capsys.readouterr().out
        assert "0 simulated" in report_out
        # The same tables: only the cache summary differs.
        assert report_out.split("cache:")[0] == run_out.split("cache:")[0]


class TestReport:
    def test_report_on_cold_cache_fails_without_simulating(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["report", "mobility-tcp", "--duration", "0.05"]) == 3
        err = capsys.readouterr().err
        assert "not in the result cache" in err
        assert "run mobility-tcp" in err
        # Nothing was simulated: the cache directory stayed empty.
        assert not any(tmp_path.rglob("*.json"))

    def test_report_renders_after_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        shrink(monkeypatch, "mobility-tcp", speeds=(0.0,), schemes=("D",))
        assert main(["run", "mobility-tcp", "--duration", "0.05"]) == 0
        run_out = capsys.readouterr().out
        assert "Mobility — TCP" in run_out
        assert main(["report", "mobility-tcp", "--duration", "0.05"]) == 0
        report_out = capsys.readouterr().out
        assert "Mobility — TCP" in report_out
        assert "0 simulated" in report_out
