"""CLI tests (repro.cli)."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestRunConfig:
    def test_prints_metrics(self, capsys):
        code = main(
            [
                "run-config",
                "--distance-m", "10",
                "--ptx-level", "31",
                "--payload-bytes", "50",
                "--packets", "100",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "goodput" in out
        assert "U_eng" in out

    def test_invalid_config_raises(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["run-config", "--ptx-level", "30", "--packets", "10"])


class TestSweep:
    def test_writes_dataset(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.jsonl"
        code = main(
            [
                "sweep",
                "--distance-m", "10.0",
                "--q-max", "1",
                "--limit", "3",
                "--packets", "30",
                "--output", str(out_file),
            ]
        )
        assert code == 0
        assert out_file.exists()
        from repro.campaign import CampaignDataset

        assert len(CampaignDataset.load(out_file)) == 3

    def test_resume_checkpoints_and_continues(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.jsonl"
        argv = [
            "sweep",
            "--distance-m", "10.0",
            "--q-max", "1",
            "--limit", "3",
            "--packets", "30",
            "--resume",
            "--output", str(out_file),
        ]
        assert main(argv) == 0
        from repro.campaign import CampaignDataset

        first = CampaignDataset.load(out_file).summaries
        assert len(first) == 3
        # Drop the last row; --resume must redo only that configuration.
        lines = out_file.read_text().splitlines()
        out_file.write_text("\n".join(lines[:3]) + "\n")
        assert main(argv) == 0
        assert CampaignDataset.load(out_file).summaries == first
        out = capsys.readouterr().out
        assert "holds 3 summaries" in out


class TestServeParser:
    def test_defaults_precompute_table1(self):
        from repro.config import TABLE_I_SPACE

        args = build_parser().parse_args(["serve"])
        assert args.precompute == TABLE_I_SPACE.distances_m
        assert args.port == 8080

    def test_precompute_none_and_custom(self):
        args = build_parser().parse_args(["serve", "--precompute", "none"])
        assert args.precompute == ()
        args = build_parser().parse_args(["serve", "--precompute", "5,12.5"])
        assert args.precompute == (5.0, 12.5)

    def test_precompute_garbage_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--precompute", "garbage"])


class TestServeSignals:
    @pytest.mark.parametrize("signame", ["INT", "TERM"])
    def test_background_server_stops_and_exits_zero(self, tmp_path, signame):
        # A non-interactive bash starts a background job with SIGINT
        # ignored; the server must still stop on kill -INT (and -TERM).
        log = tmp_path / "serve.log"
        script = (
            f'"{sys.executable}" -m repro.cli serve --port 0 '
            f'--precompute none --no-policy > "{log}" 2>&1 & '
            "pid=$!; "
            "for _ in $(seq 600); do "
            f'grep -q listening "{log}" && break; sleep 0.1; done; '
            f"kill -{signame} $pid; wait $pid"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(Path(repro.__file__).parents[1]),
                          env.get("PYTHONPATH")))
        )
        shell = subprocess.Popen(
            ["bash", "-c", script], env=env, start_new_session=True
        )
        try:
            code = shell.wait(timeout=90)
        except subprocess.TimeoutExpired:
            os.killpg(shell.pid, signal.SIGKILL)
            shell.wait(timeout=10)
            pytest.fail(f"serve ignored SIGINT/SIGTERM: {log.read_text()}")
        assert code == 0, log.read_text()
        assert "shutting down" in log.read_text()

    def test_handlers_are_installed_before_listening(self, monkeypatch):
        # A signal sent as soon as "listening" appears must find the
        # handlers in place: check the order with the server patched out.
        import repro.serve

        events = []

        class Stdout:
            def write(self, text):
                if "listening" in text:
                    events.append("listening")
                return len(text)

            def flush(self):
                pass

        class FakeServer:
            port = 0

            def serve_forever(self):
                events.append("serve")
                raise KeyboardInterrupt  # what either handler raises

            def server_close(self):
                pass

        def fake_signal(signum, handler):
            events.append(("signal", signum))
            return signal.SIG_DFL

        monkeypatch.setattr(
            repro.serve, "make_server", lambda *args, **kwargs: FakeServer()
        )
        monkeypatch.setattr(signal, "signal", fake_signal)
        monkeypatch.setattr(sys, "stdout", Stdout())
        code = main(["serve", "--port", "0", "--precompute", "none",
                     "--no-policy"])
        assert code == 0
        installed = [("signal", signal.SIGINT), ("signal", signal.SIGTERM)]
        assert events[:4] == installed + ["listening", "serve"]
        # Shutdown restores both previous dispositions.
        assert sorted(events[4:]) == sorted(installed)


class TestCaseStudy:
    def test_prints_tables(self, capsys):
        code = main(["case-study"])
        out = capsys.readouterr().out
        assert code == 0
        assert "paper (Table IV)" in out
        assert "joint (our work)" in out
        assert "dominates all baselines (models): True" in out


class TestGuidelines:
    def test_prints_recommendations(self, capsys):
        code = main(["guidelines", "--distance-m", "35.0"])
        out = capsys.readouterr().out
        assert code == 0
        for section in ("energy", "goodput", "delay", "loss"):
            assert section in out


class TestValidate:
    def test_validate_report(self, tmp_path, capsys):
        dataset_path = tmp_path / "ds.jsonl"
        main(
            [
                "sweep",
                "--distance-m", "10.0",
                "--q-max", "1",
                "--limit", "4",
                "--packets", "50",
                "--output", str(dataset_path),
            ]
        )
        capsys.readouterr()
        code = main(["validate", "--dataset", str(dataset_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean_service_time_ms" in out
        assert "describe this environment" in out

    def test_validate_missing_dataset(self, tmp_path):
        from repro.errors import DatasetError

        with pytest.raises(DatasetError):
            main(["validate", "--dataset", str(tmp_path / "none.jsonl")])


class TestExportTrace:
    def test_export_and_reload(self, tmp_path, capsys):
        out_file = tmp_path / "trace.jsonl"
        code = main(
            [
                "export-trace",
                "--distance-m", "10",
                "--packets", "40",
                "--output", str(out_file),
            ]
        )
        assert code == 0
        from repro.sim import load_trace

        trace, config = load_trace(out_file)
        assert len(trace.packets) == 40
        assert config is not None and config.distance_m == 10.0

    def test_packets_only(self, tmp_path):
        out_file = tmp_path / "trace.jsonl"
        main(
            [
                "export-trace",
                "--packets", "20",
                "--packets-only",
                "--output", str(out_file),
            ]
        )
        from repro.sim import load_trace

        trace, _ = load_trace(out_file)
        assert len(trace.packets) == 20
        assert not trace.transmissions


class TestLinkBudget:
    def test_prints_budget_table(self, capsys):
        code = main(["link-budget", "--distance-m", "35", "--required-snr", "17"])
        out = capsys.readouterr().out
        assert code == 0
        assert "path loss" in out
        assert "cheapest level" in out
        assert "coverage" in out

    def test_impossible_requirement(self, capsys):
        code = main(["link-budget", "--distance-m", "35", "--required-snr", "90"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no power level reaches" in out


class TestSensitivity:
    def test_prints_rankings(self, capsys):
        code = main(["sensitivity", "--distance-m", "35"])
        out = capsys.readouterr().out
        assert code == 0
        for metric in ("energy", "goodput", "delay", "loss"):
            assert f"{metric}:" in out
        assert "ptx_level" in out and "payload_bytes" in out


class TestFleet:
    FAST = ["--links", "12", "--payload-step", "40"]

    def test_runs_and_prints_steps(self, capsys):
        code = main(["fleet", *self.FAST, "--steps", "3", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "12 links" in out
        assert "step    0" in out and "step    2" in out
        assert "final: " in out

    def test_constraint_and_objective_flags(self, capsys):
        code = main(
            ["fleet", *self.FAST, "--steps", "2", "--objective", "goodput",
             "--constraint", "delay=60"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mean goodput" in out

    def test_bad_constraint_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises((ConfigurationError, SystemExit)):
            main(["fleet", *self.FAST, "--constraint", "delay"])

    def test_checkpoint_resume_round_trip(self, tmp_path, capsys):
        path = tmp_path / "fleet.jsonl"
        straight = tmp_path / "straight.jsonl"
        base = ["fleet", *self.FAST, "--seed", "3"]
        assert main([*base, "--steps", "5",
                     "--checkpoint", str(straight)]) == 0
        assert main([*base, "--steps", "2", "--checkpoint", str(path)]) == 0
        code = main([*base, "--steps", "5", "--checkpoint", str(path),
                     "--resume"])
        out = capsys.readouterr().out
        assert code == 0
        assert "replayed 2 checkpointed step(s), executed 3" in out
        assert path.read_bytes() == straight.read_bytes()
