"""Bench harness utilities: tables, plots, CLI, experiment smoke tests."""

import numpy as np

from repro.bench.ascii_plots import bar_chart, cdf_plot, histogram, series_plot, sparkline
from repro.bench.reporting import format_table, series_summary


class TestReporting:
    def test_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 0.125]])
        lines = out.splitlines()
        assert len(lines) == 4
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all rows same width

    def test_float_formatting(self):
        out = format_table(["x"], [[1234.5], [12.345], [0.0123]])
        assert "1234" in out and "12.35" in out and "0.0123" in out

    def test_series_summary(self):
        s = series_summary("t", [1, 2, 3, 4, 5])
        assert s["mean"] == 3
        assert s["min"] == 1 and s["max"] == 5
        assert s["p10"] < s["p90"]


class TestAsciiPlots:
    def test_sparkline_range(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_flat(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_sparkline_resamples(self):
        assert len(sparkline(list(range(1000)), width=40)) == 40

    def test_series_plot_contains_stats(self):
        out = series_plot("x", [1.0, 2.0, 3.0])
        assert "min 1.00" in out and "max 3.00" in out

    def test_bar_chart(self):
        out = bar_chart([("a", 10.0), ("bb", 5.0)])
        lines = out.splitlines()
        assert lines[0].count("█") > lines[1].count("█")

    def test_cdf_plot_structure(self):
        curves = {"x": ([1, 2, 3], [0.1, 0.5, 1.0]), "y": ([2, 4, 6], [0.2, 0.6, 1.0])}
        out = cdf_plot(curves)
        assert "1.0" in out and "0.0" in out
        assert "*=x" in out and "o=y" in out

    def test_histogram(self):
        out = histogram(np.random.default_rng(0).normal(100, 10, 500), bins=5)
        assert len(out.splitlines()) == 5


class TestCli:
    def test_list(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig01" in out and "fig18" in out

    def test_unknown_command(self, capsys):
        from repro.__main__ import main

        assert main(["nope"]) == 2

    def test_runs_cheap_experiments(self, capsys):
        from repro.__main__ import main

        assert main(["fig05", "fig17", "appendix_b"]) == 0
        out = capsys.readouterr().out
        assert "HDD" in out and "1 GB" in out and "degraded" in out


class TestExperimentDriversSmoke:
    """Every driver runs end to end at reduced scale."""

    def test_fig01(self):
        from repro.bench import experiments as E

        r = E.fig01_service_week(hours=24)
        assert len(r["baseline_total"]) == 24

    def test_fig03(self):
        from repro.bench import experiments as E

        r = E.fig03_write_baseline(n_threads=4, ops=10)
        assert r["RS(6,9)"]["p90_ms"] > r["3r"]["p90_ms"]

    def test_fig11_micro_small(self):
        from repro.bench import experiments as E

        r = E.fig11_micro(file_mb=1, chunk_kb=4)
        assert r["disk_reduction"] > 0.4

    def test_fig11_macro_small(self):
        from repro.bench import experiments as E

        r = E.fig11_macro(n_files=6, file_kb=80)
        assert r["disk_reduction"] > 0.1
        assert r["speedup"] > 1.0

    def test_fig13_parity(self):
        from repro.bench import experiments as E

        r = E.fig13_parity_persist(n_threads=4, ops=10)
        assert 0 < r["fraction_under_500ms"] <= 1.0

    def test_fig14_tput(self):
        from repro.bench import experiments as E

        r = E.fig14_read_tput(threads=(4,), ops=5)
        assert r[4]["striped_mb_s"] > 0

    def test_fig15(self):
        from repro.bench import experiments as E

        r = E.fig15_transcode(n_files=4)
        assert set(r) == {
            "EC(6,9)->EC(12,15)", "EC(6,7)->EC(12,14)", "EC(6,9)->LRC(12,2,2)",
        }

    def test_fig17_and_18(self):
        from repro.bench import experiments as E

        assert len(E.fig17_regimes()["rows"]) == 9
        sweep = E.fig18_general_sweep(k_range=range(7, 13))
        assert len(sweep["same_r"]) == 6


class TestBenchRatioGates:
    def test_check_holds_the_current_run_to_the_ratio_gates(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.bench import micro

        good = {
            "gf_apply_m3_over_m4_time_ratio": 0.97,
            "gf_encode_3x6_over_1x6_time_ratio": 1.1,
            "namenode_sweep_over_scan_time_ratio": 1.3,
        }
        assert set(good) == set(micro.RATIO_GATES)

        def measured(**changed):
            values = {**good, **changed}
            return lambda quick=False: {
                name: micro._metric(ratio, "ratio") for name, ratio in values.items()
            }

        out = tmp_path / "BENCH_codec.json"
        monkeypatch.setattr(micro, "run_benchmarks", measured())
        assert micro.main(["--out", str(out)]) == 0
        assert micro.main(["--check", "--out", str(out)]) == 0
        # A 6-byte table row is back: the committed file is still valid,
        # the run is not.
        monkeypatch.setattr(
            micro, "run_benchmarks", measured(gf_apply_m3_over_m4_time_ratio=1.6)
        )
        assert micro.main(["--check", "--out", str(out)]) == 1
        assert "exceeds its gate 1.25" in capsys.readouterr().err
        # ... so are three parities that cost two and a half rows again,
        monkeypatch.setattr(
            micro, "run_benchmarks", measured(gf_encode_3x6_over_1x6_time_ratio=2.4)
        )
        assert micro.main(["--check", "--out", str(out)]) == 1
        assert "exceeds its gate 1.5" in capsys.readouterr().err
        # ... and so is an index that walks files to answer a node query.
        monkeypatch.setattr(
            micro, "run_benchmarks", measured(namenode_sweep_over_scan_time_ratio=6.4)
        )
        assert micro.main(["--check", "--out", str(out)]) == 1
        assert "exceeds its gate 2.5" in capsys.readouterr().err

    def test_check_fails_on_a_committed_row_the_run_no_longer_measures(self):
        from repro.bench import micro

        doc = {
            "schema": micro.SCHEMA,
            "metrics": {name: micro._metric(1.0, "ratio") for name in ("kept", "dropped")},
        }
        assert micro.validate_schema(doc, ["kept", "dropped"]) == []
        assert micro.validate_schema(doc, ["kept"]) == ["dropped: no longer measured"]

    def test_the_sweep_ratio_is_measured_on_equal_work(self):
        from repro.bench import micro

        m = micro.bench_namenode_sweep(repeats=1, n_files=200)
        ratio = m["namenode_sweep_over_scan_time_ratio"]
        assert ratio["params"]["chunks"] == 1800 and ratio["value"] > 0
