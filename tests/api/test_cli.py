"""CLI: run / search / campaign / report subcommands."""

import json

import pytest

from repro.api import RunReport, ScenarioConfig, StcoConfig
from repro.api.cli import main
from tests.api.conftest import MODEL, SEARCH, TECH


@pytest.fixture(scope="module")
def config_path(tmp_path_factory, workspace):
    # Warm the session workspace once so CLI runs stay fast.
    from repro.api import run
    config = StcoConfig(mode="search", benchmark="s298",
                        technology=TECH, model=MODEL, search=SEARCH)
    run(config, workspace)
    path = tmp_path_factory.mktemp("cli") / "cfg.json"
    config.save(path)
    return path


class TestRun:
    def test_run_writes_report(self, config_path, ws_root, tmp_path,
                               capsys):
        out = tmp_path / "report.json"
        code = main(["run", str(config_path), "--workspace",
                     str(ws_root), "--out", str(out)])
        assert code == 0
        report = RunReport.load(out)
        assert report.mode == "search"
        assert report.cache_stats["workspace"]["models_trained"] == 0
        assert "best corner" in capsys.readouterr().out

    def test_run_default_out_under_workspace(self, config_path, ws_root,
                                             capsys):
        code = main(["run", str(config_path), "--workspace",
                     str(ws_root), "--quiet"])
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert printed.endswith("report.json")
        assert json.loads(open(printed).read())["mode"] == "search"

    def test_missing_config_errors(self, capsys):
        assert main(["run", "/nonexistent/cfg.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_config_errors(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"mode": "warp"}')
        assert main(["run", str(path)]) == 2
        assert "mode" in capsys.readouterr().err


class TestSearchOverrides:
    def test_search_forces_mode_and_overrides(self, ws_root, tmp_path,
                                              capsys):
        base = StcoConfig(mode="fast", benchmark="s298",
                          technology=TECH, model=MODEL, search=SEARCH)
        path = tmp_path / "cfg.json"
        base.save(path)
        out = tmp_path / "report.json"
        code = main(["search", str(path), "--workspace", str(ws_root),
                     "--out", str(out), "--optimizer", "random",
                     "--iterations", "4", "--quiet"])
        assert code == 0
        report = RunReport.load(out)
        assert report.mode == "search"
        assert report.optimizer == "random"
        assert len(report.rewards) == 4


class TestCampaign:
    def test_campaign_subcommand(self, ws_root, tmp_path, capsys):
        config = StcoConfig(
            mode="campaign", technology=TECH, model=MODEL, search=SEARCH,
            scenarios=(ScenarioConfig(benchmark="s298", agent="random",
                                      iterations=2),))
        path = tmp_path / "cfg.json"
        config.save(path)
        out = tmp_path / "report.json"
        code = main(["campaign", str(path), "--workspace", str(ws_root),
                     "--out", str(out), "--quiet"])
        assert code == 0
        assert RunReport.load(out).mode == "campaign"


class TestCheckpointErrors:
    def test_foreign_schema_checkpoint_is_clean_error(self, ws_root,
                                                      tmp_path, capsys):
        config = StcoConfig(
            mode="campaign", technology=TECH, model=MODEL, search=SEARCH,
            checkpoint=str(tmp_path / "ckpt.json"),
            scenarios=(ScenarioConfig(benchmark="s298", agent="random",
                                      iterations=2),))
        path = tmp_path / "cfg.json"
        config.save(path)
        assert main(["run", str(path), "--workspace", str(ws_root),
                     "--quiet"]) == 0
        ckpt = json.loads((tmp_path / "ckpt.json").read_text())
        ckpt["config_schema"] += 1
        (tmp_path / "ckpt.json").write_text(json.dumps(ckpt))
        assert main(["run", str(path), "--workspace", str(ws_root),
                     "--quiet"]) == 2
        assert "config schema" in capsys.readouterr().err
        # --no-resume is the advertised way out.
        assert main(["run", str(path), "--workspace", str(ws_root),
                     "--no-resume", "--quiet"]) == 0


class TestWorkspaceCommands:
    @pytest.fixture
    def fake_ws(self, tmp_path):
        """A workspace with fabricated artifacts: registry + files only,
        so maintenance commands are tested without any pipeline work."""
        from repro.api import Workspace
        ws = Workspace(tmp_path / "ws")
        (ws.datasets_dir / "d1.pkl").write_bytes(b"x" * 100)
        (ws.models_dir / "m1.npz").write_bytes(b"y" * 200)
        orphan_dir = ws.engine_dir / "libraries"
        orphan_dir.mkdir()
        (orphan_dir / "e1.pkl").write_bytes(b"z" * 50)
        ws._register("k-d1", {"kind": "dataset", "technology": "ltps",
                              "path": "d1.pkl"})
        ws._register("k-m1", {"kind": "model", "technology": "ltps",
                              "path": "m1.npz"})
        return ws

    def test_list_shows_artifacts(self, fake_ws, capsys):
        assert main(["workspace", "list", str(fake_ws.root)]) == 0
        out = capsys.readouterr().out
        assert "d1.pkl" in out and "m1.npz" in out

    def test_stats_prints_json(self, fake_ws, capsys):
        assert main(["workspace", "stats", str(fake_ws.root)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["artifacts"] == {"dataset": 1, "model": 1}

    def test_gc_requires_age_or_all(self, fake_ws, capsys):
        assert main(["workspace", "gc", str(fake_ws.root)]) == 2
        assert "--older-than" in capsys.readouterr().err

    def test_gc_rejects_unknown_kind(self, fake_ws, capsys):
        assert main(["workspace", "gc", str(fake_ws.root), "--all",
                     "--kinds", "model,reports"]) == 2
        assert "reports" in capsys.readouterr().err

    def test_gc_dry_run_removes_nothing(self, fake_ws, capsys):
        assert main(["workspace", "gc", str(fake_ws.root), "--all",
                     "--dry-run"]) == 0
        assert "would remove 3" in capsys.readouterr().out
        assert (fake_ws.datasets_dir / "d1.pkl").exists()
        assert (fake_ws.models_dir / "m1.npz").exists()

    def test_gc_all_reclaims_files_and_registry(self, fake_ws, capsys):
        assert main(["workspace", "gc", str(fake_ws.root), "--all"]) == 0
        out = capsys.readouterr().out
        assert "removed 3" in out
        assert not (fake_ws.datasets_dir / "d1.pkl").exists()
        assert not (fake_ws.models_dir / "m1.npz").exists()
        assert not list(fake_ws.engine_dir.rglob("*.pkl"))
        assert fake_ws.registry() == {}

    def test_gc_reclaims_terminal_serve_jobs_only(self, fake_ws,
                                                  capsys):
        jobs_dir = fake_ws.root / "serve" / "jobs"
        jobs_dir.mkdir(parents=True)
        (jobs_dir / "aaa.json").write_text(
            json.dumps({"job_id": "aaa", "state": "succeeded",
                        "finished_s": 1.0}))
        (jobs_dir / "aaa.events.jsonl").write_text('{"round": 1}\n')
        (jobs_dir / "bbb.json").write_text(
            json.dumps({"job_id": "bbb", "state": "running"}))
        assert main(["workspace", "gc", str(fake_ws.root), "--all",
                     "--kinds", "job"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert not (jobs_dir / "aaa.json").exists()
        assert not (jobs_dir / "aaa.events.jsonl").exists()
        # The interrupted job is crash-recovery state: never collected.
        assert (jobs_dir / "bbb.json").exists()

    def test_gc_registry_keeps_concurrent_registrations(self, fake_ws):
        # Simulate a live server registering a new artifact after gc
        # snapshotted the registry: the rewrite must not clobber it.
        real_registry = fake_ws.registry

        def racing_registry():
            registry = real_registry()
            if not getattr(racing_registry, "raced", False):
                racing_registry.raced = True
                (fake_ws.models_dir / "m2.npz").write_bytes(b"z" * 10)
                fake_ws._register("k-m2", {"kind": "model",
                                           "technology": "ltps",
                                           "path": "m2.npz"})
            return registry

        fake_ws.registry = racing_registry
        fake_ws.gc(kinds=("dataset", "model"))
        fake_ws.registry = real_registry
        # The snapshot-era artifacts went; the concurrently registered
        # model survived — entry *and* file (the orphan scan must use
        # the fresh registry, not the stale snapshot).
        assert "k-m2" in fake_ws.registry()
        assert (fake_ws.models_dir / "m2.npz").exists()
        assert "k-d1" not in fake_ws.registry()
        assert "k-m1" not in fake_ws.registry()

    def test_gc_respects_age_and_kinds(self, fake_ws, capsys):
        # Everything is seconds old: an hour-long horizon keeps it all.
        assert main(["workspace", "gc", str(fake_ws.root),
                     "--older-than", "3600"]) == 0
        assert "removed 0" in capsys.readouterr().out
        # Kind filtering: only the model goes.
        assert main(["workspace", "gc", str(fake_ws.root), "--all",
                     "--kinds", "model"]) == 0
        assert not (fake_ws.models_dir / "m1.npz").exists()
        assert (fake_ws.datasets_dir / "d1.pkl").exists()
        assert "k-d1" in fake_ws.registry()


class TestSubmitErrors:
    def test_unreachable_server_is_clean_error(self, tmp_path, capsys):
        config = StcoConfig(mode="search")
        path = tmp_path / "cfg.json"
        config.save(path)
        # Port 1 is never listening: every attempt is refused at once.
        assert main(["submit", str(path), "--url",
                     "http://127.0.0.1:1"]) == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_missing_config_is_clean_error(self, capsys):
        # The file is validated before any network traffic happens.
        assert main(["submit", "/nonexistent/cfg.json", "--url",
                     "http://127.0.0.1:1"]) == 2
        assert "cannot read config" in capsys.readouterr().err

    @pytest.fixture
    def submitted(self, tmp_path, monkeypatch):
        """``repro submit --wait`` argv whose submit is answered
        locally; the test decides how the wait ends."""
        from repro.serve import ServeClient
        monkeypatch.setattr(ServeClient, "submit",
                            lambda self, *a, **k: {"job_id": "j1"})
        path = tmp_path / "cfg.json"
        StcoConfig(mode="search").save(path)
        return ["submit", str(path), "--url", "http://127.0.0.1:1",
                "--wait", "--timeout", "0.1"]

    def test_wait_deadline_exits_3(self, submitted, monkeypatch,
                                   capsys):
        from repro.serve import ServeClient
        from repro.serve.client import WaitTimeout

        def deadline(self, job_id, timeout_s):
            raise WaitTimeout(f"job {job_id} still running after "
                              f"{timeout_s:.1f}s")

        monkeypatch.setattr(ServeClient, "wait", deadline)
        assert main(submitted) == 3
        assert "still running" in capsys.readouterr().err

    def test_socket_timeout_while_waiting_exits_2(self, submitted,
                                                  monkeypatch, capsys):
        """Both are ``TimeoutError``s; only the job's own deadline is
        exit 3."""
        import socket

        from repro.serve import ServeClient

        def stalled(self, job_id, timeout_s):
            raise socket.timeout("timed out")

        monkeypatch.setattr(ServeClient, "wait", stalled)
        assert main(submitted) == 2
        assert "cannot reach http://127.0.0.1:1: timed out" \
            in capsys.readouterr().err

    def test_non_http_url_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["slo", "--url", "127.0.0.1:8765"])
        assert exit_.value.code == 2
        assert "http://" in capsys.readouterr().err


class TestMetricsGrep:
    """``repro metrics --grep`` matches the *rendered* exposition."""

    TEXT = "\n".join([
        'repro_serve_jobs_total{outcome="succeeded",shard="a"} 3',
        'repro_serve_jobs_total{outcome="failed",shard="b"} 1',
        "repro_predict_drift 0.2",
    ])

    def test_bare_key_value_matches_rendered_labels(self):
        from repro.api.cli import _metrics_grep
        kept = _metrics_grep("shard=a", self.TEXT).splitlines()
        assert kept == [
            'repro_serve_jobs_total{outcome="succeeded",shard="a"} 3']

    def test_plain_substring_still_matches(self):
        from repro.api.cli import _metrics_grep
        assert _metrics_grep("drift", self.TEXT) == \
            "repro_predict_drift 0.2"

    def test_quoted_pattern_is_not_rewritten(self):
        from repro.api.cli import _metrics_grep
        # Already-rendered patterns pass through as exact substrings.
        kept = _metrics_grep('outcome="failed"', self.TEXT).splitlines()
        assert kept == [
            'repro_serve_jobs_total{outcome="failed",shard="b"} 1']
        assert _metrics_grep('shard="z"', self.TEXT) == ""


class TestReport:
    def test_report_pretty_prints(self, tmp_path, capsys):
        path = RunReport(mode="search", design="s298",
                         best_corner=(1.0, 0.0, 1.0),
                         best_reward=8.5).save(tmp_path / "r.json")
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "best reward" in out and "8.5" in out

    def test_report_missing_file(self, capsys):
        assert main(["report", "/nonexistent/r.json"]) == 2
