"""Unit tests for the command-line interface."""

import pytest

from repro.cli import (FIGURES, FigureEntry, build_parser, main,
                       sorted_figures)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep CLI invocations from touching the real ~/.cache/repro."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


class TestParser:
    def test_figures_listed(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for name in FIGURES:
            assert name in out

    def test_figures_natural_sorted(self, capsys):
        assert main(["figures"]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = [line.split()[0] for line in lines]
        assert names == sorted_figures()
        # natural order: fig9 before fig10, letters after digits
        assert names.index("fig9") < names.index("fig10")
        assert names[0] == "ext-ddio" and names[-1] == "sensitivity"

    def test_sorted_figures_covers_registry(self):
        assert set(sorted_figures()) == set(FIGURES)

    def test_unknown_figure(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_figure_parser_defaults(self):
        args = build_parser().parse_args(["figure", "fig8"])
        assert not args.fast
        assert args.jobs is None
        assert not args.no_cache
        assert args.cache_dir is None
        assert args.duration is None
        assert args.warmup is None

    def test_suite_parser_defaults(self):
        args = build_parser().parse_args(["suite", "--fast", "--jobs", "2"])
        assert args.fast
        assert args.jobs == 2
        assert not args.no_cache

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_daemon_requires_tenants(self):
        with pytest.raises(SystemExit):
            main(["daemon"])

    def test_parser_defaults(self):
        args = build_parser().parse_args(
            ["daemon", "--tenants", "t.txt"])
        assert args.backend == "sim"
        assert args.interval == 1.0
        assert args.log_level == "warning"
        assert args.trace_out is None

    def test_trace_parser_defaults(self):
        args = build_parser().parse_args(["trace", "fig11"])
        assert args.format == "perfetto"
        assert args.out is None
        assert not args.fast

    def test_trace_unknown_figure(self, capsys):
        assert main(["trace", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_compare_parser_defaults(self):
        args = build_parser().parse_args(["compare", "--fast"])
        assert args.fast
        assert args.policies is None
        assert args.scenarios is None
        assert args.seeds is None
        assert args.json is None


class TestPoliciesCommand:
    def test_lists_registered_policies_with_tunables(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in ("iat", "ioca", "lfoc", "static"):
            assert name in out
        assert "interval_s" in out           # an IATParams tunable
        assert "unfairness_threshold" in out  # an lfoc constructor knob


class TestCompareCommand:
    def test_unknown_policy_rejected(self, capsys):
        assert main(["compare", "--policies", "nope"]) == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_unknown_scenario_rejected(self, capsys):
        assert main(["compare", "--scenarios", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_small_tournament_with_json_report(self, tmp_path, capsys):
        import json

        out = tmp_path / "report.json"
        assert main(["compare", "--policies", "iat,static",
                     "--scenarios", "shuffle", "--duration", "1.5",
                     "--warmup", "0.5", "--jobs", "1", "--no-cache",
                     "--json", str(out)]) == 0
        table = capsys.readouterr().out
        assert "rank" in table and "shuffle" in table
        doc = json.loads(out.read_text())
        assert {e["policy"] for e in doc["ranking"]} == {"iat", "static"}
        assert len(doc["points"]) == 2


class TestFigureFast:
    def test_fig15_fast_runs(self, capsys):
        assert main(["figure", "fig15", "--fast"]) == 0
        assert "Fig. 15" in capsys.readouterr().out

    def test_fig15_fast_no_cache(self, capsys):
        assert main(["figure", "fig15", "--fast", "--no-cache",
                     "--jobs", "1"]) == 0
        assert "Fig. 15" in capsys.readouterr().out

    def test_trace_out_merges_every_point_from_workers(self, tmp_path,
                                                       capsys):
        import json
        out = tmp_path / "fig15.json"
        assert main(["figure", "fig15", "--fast", "--jobs", "2",
                     "--no-cache", "--trace-out", str(out)]) == 0
        assert "trace: merged 4 shards" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert {e["pid"] for e in events} == set(range(1, 9))
        labels = doc["otherData"]["shard_labels"]
        assert len(labels) == len(set(labels)) == 4
        names = sorted(e["args"]["name"] for e in events
                       if e["name"] == "process_name")
        assert names == sorted(f"{label} {domain}" for label in labels
                               for domain in ("sim-time", "wall-time"))


class TestFigureRegistry:
    def test_every_entry_well_formed(self):
        import inspect
        for name, entry in FIGURES.items():
            assert isinstance(entry, FigureEntry)
            assert isinstance(entry.description, str) and entry.description
            assert callable(entry.run) and callable(entry.format)
            # fast kwargs must be real parameters of the run() signature
            params = inspect.signature(entry.run).parameters
            for key in entry.fast_kwargs:
                assert key in params, f"{name}: bad fast kwarg {key!r}"
            # every harness accepts a runner (the shared-pool contract)
            assert "runner" in params, f"{name}: run() lacks runner="

    def test_covers_all_eval_figures(self):
        for n in (3, 4, 8, 9, 10, 11, 12, 13, 14, 15):
            assert f"fig{n}" in FIGURES
        assert "ext-ddio" in FIGURES


class TestRunEntry:
    """Override plumbing, exercised against stub harnesses."""

    @staticmethod
    def _entry(run):
        return FigureEntry("stub", run, lambda result: f"<{result}>",
                           dict(duration_s=1.0))

    def test_duration_maps_to_duration_s(self):
        from repro.cli import _run_entry
        seen = {}

        def run(*, duration_s=9.0, warmup_s=9.0, runner=None):
            seen.update(duration_s=duration_s, warmup_s=warmup_s)
            return "ok"

        out = _run_entry(self._entry(run), fast=False, duration=2.5,
                         warmup=0.5)
        assert out == "<ok>"
        assert seen == dict(duration_s=2.5, warmup_s=0.5)

    def test_duration_falls_back_to_measure_s(self):
        from repro.cli import _run_entry
        seen = {}

        def run(*, measure_s=9.0, runner=None):
            seen.update(measure_s=measure_s)
            return "ok"

        _run_entry(FigureEntry("stub", run, str, {}), fast=False,
                   duration=3.0)
        assert seen == dict(measure_s=3.0)

    def test_unsupported_override_warns_and_runs(self, capsys):
        from repro.cli import _run_entry

        def run(*, runner=None):
            return "ok"

        out = _run_entry(FigureEntry("stub", run, str, {}), fast=False,
                         duration=3.0, warmup=1.0)
        assert out == "ok"
        err = capsys.readouterr().err
        assert "--duration" in err and "--warmup" in err

    def test_fast_kwargs_applied(self):
        from repro.cli import _run_entry
        seen = {}

        def run(*, duration_s=9.0, runner=None):
            seen.update(duration_s=duration_s)
            return "ok"

        _run_entry(self._entry(run), fast=True)
        assert seen == dict(duration_s=1.0)


class TestSuite:
    def test_suite_runs_all_in_sorted_order(self, monkeypatch, capsys):
        calls = []

        def make(name):
            def run(*, runner=None):
                calls.append(name)
                return name
            return FigureEntry(f"stub {name}", run, str, {})

        stub = {name: make(name) for name in ("fig10", "fig2", "ext-x")}
        monkeypatch.setattr("repro.cli.FIGURES", stub)
        assert main(["suite", "--fast", "--jobs", "1"]) == 0
        assert calls == ["ext-x", "fig2", "fig10"]
        out = capsys.readouterr().out
        assert "=== fig2 — stub fig2 ===" in out
        assert "suite: 3 figures" in out
        assert "jobs=1" in out


class TestTrace:
    def test_fig15_fast_writes_perfetto_trace(self, tmp_path, capsys):
        import json
        out = tmp_path / "trace.json"
        assert main(["trace", "fig15", "--fast", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "Fig. 15" in stdout
        assert "trace:" in stdout and "events" in stdout
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert doc["otherData"]["producer"] == "repro.obs"

    def test_jsonl_format(self, tmp_path, capsys):
        import json
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "fig15", "--fast", "--format", "jsonl",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines and all(json.loads(line)["ph"] in ("i", "C", "X")
                             for line in lines)

    def test_capacity_bounds_perfetto_events(self, tmp_path, capsys):
        import json
        out = tmp_path / "trace.json"
        assert main(["trace", "fig15", "--fast", "--capacity", "40",
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "trace: 40 events" in stdout
        assert "dropped 0" not in stdout
        doc = json.loads(out.read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert len(events) == 40

    def test_capacity_reports_jsonl_events_written(self, tmp_path, capsys):
        """A JSONL sink streams every event whatever the capacity, so
        the printed count is the file's, not the tracer's retained."""
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "fig15", "--fast", "--format", "jsonl",
                     "--capacity", "40", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        lines = out.read_text().strip().splitlines()
        assert len(lines) > 40
        assert f"trace: {len(lines)} events -> " in stdout
        assert f"dropped {len(lines) - 40}" in stdout

    def test_leaves_no_tracer_installed(self, tmp_path, capsys):
        from repro.obs import NULL_TRACER, current_tracer
        out = tmp_path / "trace.json"
        main(["trace", "fig15", "--fast", "--out", str(out)])
        assert current_tracer() is NULL_TRACER


class TestDaemonSim:
    TENANTS = ("pmd cores=0,1 priority=PC io=yes ways=2\n"
               "xmem cores=2 priority=BE io=no ways=2\n")

    def test_sim_backend_runs_from_tenants_file(self, tmp_path, capsys):
        path = tmp_path / "tenants.txt"
        path.write_text(self.TENANTS)
        code = main(["daemon", "--tenants", str(path),
                     "--duration", "3.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ddio=" in out
        assert "low-keep" in out

    def test_exit_summary_line(self, tmp_path, capsys):
        path = tmp_path / "tenants.txt"
        path.write_text(self.TENANTS)
        assert main(["daemon", "--tenants", str(path),
                     "--duration", "3.0"]) == 0
        summary = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("daemon:")]
        assert len(summary) == 1
        assert "iterations" in summary[0]
        assert "state changes" in summary[0]
        assert "ddio_ways=" in summary[0]

    def test_trace_out_writes_perfetto(self, tmp_path, capsys):
        import json
        from repro.obs import NULL_TRACER, current_tracer
        path = tmp_path / "tenants.txt"
        path.write_text(self.TENANTS)
        out = tmp_path / "daemon.json"
        assert main(["daemon", "--tenants", str(path),
                     "--duration", "3.0", "--trace-out", str(out),
                     "--log-level", "info"]) == 0
        doc = json.loads(out.read_text())
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "iteration" in names  # daemon events made it to the file
        assert current_tracer() is NULL_TRACER
