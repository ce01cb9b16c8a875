"""The ``python -m repro.service`` CLI: worker, submit and status subcommands."""

import json
import threading

import pytest

from repro.experiments.parallel import ResultCache, config_digest
from repro.service.__main__ import build_parser, main
from repro.service.app import SimulationService
from repro.service.server import make_server
from repro.service.store import JobStore
from repro.spec import ScenarioConfig


@pytest.fixture
def live_server(store, cache):
    service = SimulationService(store, cache)
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)


class TestParser:
    def test_commands_and_store_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["worker", "--store", "/tmp/x", "--once"])
        assert args.command == "worker" and args.once
        args = parser.parse_args(["serve", "--port", "0", "--workers", "2"])
        assert args.port == 0 and args.workers == 2

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestWorkerCommand:
    def test_once_processes_one_job(self, store, small_spec, capsys):
        config = ScenarioConfig.from_dict(small_spec)
        record = store.submit(config.to_dict(), digest=config_digest(config))
        assert main(["worker", "--store", str(store.root), "--once"]) == 0
        out = capsys.readouterr().out
        assert f"{record.job_id}: done" in out
        assert store.get(record.job_id).state == "done"
        assert ResultCache(store.cache_dir).load_raw(record.digest) is not None

    def test_once_on_empty_store_reports_idle(self, tmp_path, capsys):
        assert main(["worker", "--store", str(tmp_path / "empty"), "--once"]) == 0
        assert "idle" in capsys.readouterr().out

    def test_idle_exit_drains_and_returns(self, store, small_spec, capsys):
        config = ScenarioConfig.from_dict(small_spec)
        store.submit(config.to_dict())
        code = main(
            ["worker", "--store", str(store.root), "--idle-exit", "0", "--poll", "0.01"]
        )
        assert code == 0
        assert "processed 1 job(s) (0 failed)" in capsys.readouterr().out


class TestSubmitAndStatus:
    def write_spec(self, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return str(path)

    def test_submit_then_worker_then_status(
        self, live_server, store, tmp_path, small_spec, capsys
    ):
        spec_file = self.write_spec(tmp_path, small_spec)
        assert main(["submit", "--url", live_server, spec_file]) == 0
        submitted = json.loads(capsys.readouterr().out)
        assert submitted["state"] == "queued"

        assert main(["worker", "--store", str(store.root), "--once"]) == 0
        capsys.readouterr()

        assert main(["status", "--url", live_server, submitted["job_id"]]) == 0
        final = json.loads(capsys.readouterr().out)
        assert final["state"] == "done"
        assert final["result"].endswith(final["digest"])

    def test_submit_wait_on_warm_cache_prints_results(
        self, live_server, store, cache, tmp_path, small_spec, capsys
    ):
        from repro.experiments.runner import run_scenario

        config = ScenarioConfig.from_dict(small_spec)
        cache.store(config, run_scenario(config))
        spec_file = self.write_spec(tmp_path, small_spec)
        assert main(["submit", "--url", live_server, spec_file, "--wait"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["job"]["state"] == "done"
        digest = config_digest(config)
        assert document["results"][digest] == run_scenario(config).to_dict()

    def test_submit_rejection_exits_2(self, live_server, tmp_path, capsys):
        spec_file = self.write_spec(tmp_path, {"warp_drive": 9})
        assert main(["submit", "--url", live_server, spec_file]) == 2
        assert "submit rejected" in capsys.readouterr().err

    def test_status_unknown_job_exits_1(self, live_server, capsys):
        assert main(["status", "--url", live_server, "no-such-job"]) == 1
        assert "404" in capsys.readouterr().err
