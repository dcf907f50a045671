"""End-to-end pipeline: artifacts, determinism, paired arms, CLI."""

import collections
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from agrisim import alerting, decision, fieldsim, ingest, pipeline, transport
from agrisim.cli import main
from agrisim.scenario import (default_scenario_path, load_scenario,
                              parse_scenario)

EXPECTED_ARTIFACTS = {
    "ground_truth_system.csv",
    "ground_truth_baseline.csv",
    "irrigation_log.csv",
    "channel_export.csv",
    "channel_snapshot.jsonl",
    "dispatch_log.csv",
    "transport_stats.csv",
    "report.txt",
    "report.csv",
    "radar.csv",
    "totals.json",
    "manifest.jsonl",
}


# the stages of an in-memory run, in run order; a run with artifacts adds
# "artifacts"
STAGES = ["weather", "drivers", "sensor_arm", "baseline_arm", "pubsub_session",
          "ingest", "reqresp_session", "dispatch", "metrics"]


def read_manifest(out_dir):
    lines = (out_dir / "manifest.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


class TestRunSeason:
    def test_all_artifacts_written(self, default_run):
        names = {p.name for p in default_run.out_dir.iterdir()}
        assert names == EXPECTED_ARTIFACTS

    def test_manifest_covers_every_file(self, default_run):
        entries = read_manifest(default_run.out_dir)
        files = {e["file"] for e in entries if "file" in e}
        assert files == EXPECTED_ARTIFACTS - {"manifest.jsonl"}
        streams = {e["stream"] for e in entries if "stream" in e}
        assert streams == {"weather", "sensor_noise_system",
                           "sensor_noise_baseline"}

    def test_paired_arms_share_noise_stream(self, default_run):
        # both arms carry the one digest of the run's season inputs, so the
        # two lines are equal by construction; they do not show the pairing
        entries = {e["stream"]: e["sha256"]
                   for e in read_manifest(default_run.out_dir) if "stream" in e}
        assert entries["sensor_noise_system"] == entries["sensor_noise_baseline"]
        assert default_run.system_arm.noise_digest == \
            default_run.baseline_arm.noise_digest

    def test_arms_share_read_only_season_inputs(self, default_run):
        # the sensor arm reads the drivers' read-only columns; the calendar
        # arm reads no sensor
        system = default_run.system_arm.samples
        baseline = default_run.baseline_arm.samples
        for column in ("timestamp_s", "temp_c", "humidity_pct"):
            shared = getattr(system, column)
            with pytest.raises(ValueError):
                shared[0] = shared[1]
            assert len(getattr(baseline, column)) == 0

    def test_one_weather_noise_draw_and_air_call_per_run(
            self, default_scenario, monkeypatch):
        calls = collections.Counter()

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        weather = fieldsim.generate_weather
        monkeypatch.setattr(pipeline, "generate_weather",
                            counted("weather", weather))
        # an arm that generated its own weather would do it through here
        monkeypatch.setattr(decision, "generate_weather",
                            counted("weather", weather), raising=False)
        # each call draws the one noise block of a run
        monkeypatch.setattr(decision, "season_drivers",
                            counted("draw", decision.season_drivers))
        monkeypatch.setattr(decision, "sample_air_sensor",
                            counted("air", decision.sample_air_sensor))
        pipeline.run_season(default_scenario)
        assert calls == {"weather": 1, "draw": 1, "air": 1}

    def test_channel_holds_only_delivered_packets(self, default_run):
        stats = default_run.transport_stats[transport.PUBSUB]
        lines = (default_run.out_dir /
                 "channel_snapshot.jsonl").read_text().splitlines()
        assert len(lines) == stats.delivered
        assert stats.delivered < stats.attempted  # lossy link

    def test_totals_json_consistent_with_output(self, default_run,
                                                default_scenario):
        data = json.loads((default_run.out_dir / "totals.json").read_text())
        assert data["scenario"] == default_scenario.name
        assert data["totals"]["delivery_rate"] == \
            default_run.totals.delivery_rate
        assert data["observations"] == default_run.observations

    def test_report_txt_renders_seven_rows(self, default_run):
        lines = (default_run.out_dir / "report.txt").read_text().splitlines()
        assert len(lines) == 8  # header + seven parameters

    def test_dispatch_log_has_sends_and_suppressions(self, default_run):
        text = (default_run.out_dir / "dispatch_log.csv").read_text()
        assert "SENT" in text
        assert "SUPPRESSED_DUPLICATE" in text

    @pytest.mark.parametrize("variant", ["shipped", "wet-lossy-qos1"])
    def test_store_and_dispatcher_get_int64_seconds(self, variant,
                                                    monkeypatch):
        # the channel and the dispatcher take only whole seconds, so a run
        # must hand them int64 columns
        with default_scenario_path() as path:
            raw = yaml.safe_load(path.read_text())
        if variant == "wet-lossy-qos1":
            raw["season"].update(dry_season=False, rain_probability=0.3,
                                 rain_mean_mm=8.0)
            raw["link"].update(loss_prob=0.2, qos=1)
            raw["channel"]["min_update_interval_s"] = 600.0
        scenario = parse_scenario(raw)
        seen = collections.defaultdict(list)

        def spy(name, method, times_of):
            def call(self, *args):
                seen[name].append(times_of(*args))
                return method(self, *args)
            return call

        monkeypatch.setattr(ingest.ChannelStore, "ingest_batch", spy(
            "ingest", ingest.ChannelStore.ingest_batch, lambda c, k, t, v: t))
        monkeypatch.setattr(alerting.Dispatcher, "dispatch", spy(
            "dispatch", alerting.Dispatcher.dispatch,
            lambda alerts: alerts.timestamp_s))
        out = pipeline.run_season(scenario)
        assert sorted(seen) == ["dispatch", "ingest"]
        for times in (*seen["ingest"], *seen["dispatch"]):
            assert isinstance(times, np.ndarray)
            assert times.dtype == np.int64 and len(times)
        assert len(seen["ingest"]) == len(seen["dispatch"]) == 1
        # the pub/sub deliveries, rate-limited on the 600 s variant
        assert len(seen["ingest"][0]) == out.transport_stats[
            transport.PUBSUB].delivered


class TestManifest:
    def test_file_hashes_match_the_closed_files(self, default_run):
        # the writers hash the bytes they write; once run_season returns,
        # every file holds exactly those bytes
        for entry in read_manifest(default_run.out_dir):
            if "file" in entry:
                data = (default_run.out_dir / entry["file"]).read_bytes()
                assert hashlib.sha256(data).hexdigest() == entry["sha256"]

    def test_stray_file_stays_out_of_the_manifest(self, default_run,
                                                  default_scenario, tmp_path):
        (tmp_path / "notes.txt").write_text("not written by the run\n")
        pipeline.run_season(default_scenario, out_dir=tmp_path)
        assert "notes.txt" not in {e.get("file")
                                   for e in read_manifest(tmp_path)}
        assert (tmp_path / "manifest.jsonl").read_bytes() == \
            (default_run.out_dir / "manifest.jsonl").read_bytes()


class TestStages:
    def test_every_stage_timed_within_the_run(self, default_scenario,
                                              default_run):
        start = time.perf_counter()
        out = pipeline.run_season(default_scenario)
        total = time.perf_counter() - start
        assert list(out.timings) == STAGES
        assert list(default_run.timings) == STAGES + ["artifacts"]
        assert min(out.timings.values()) >= 0.0
        assert sum(out.timings.values()) <= total


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, default_scenario, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        pipeline.run_season(default_scenario, out_dir=a_dir)
        pipeline.run_season(default_scenario, out_dir=b_dir)
        for name in EXPECTED_ARTIFACTS:
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes(), name

    def test_different_seed_changes_outputs(self, default_scenario, default_run):
        import dataclasses
        other = dataclasses.replace(default_scenario, seed=7)
        out = pipeline.run_season(other)
        assert out.system_arm.noise_digest != \
            default_run.system_arm.noise_digest


class TestBenchTransport:
    def test_latency_and_energy_split(self, default_run):
        ps = default_run.transport_stats[transport.PUBSUB]
        rr = default_run.transport_stats[transport.REQRESP]
        assert ps.mean_latency_s == 3.0
        assert rr.mean_latency_s == 10.0
        assert ps.attempted == rr.attempted
        assert ps.energy_mwh < rr.energy_mwh
        lines = (default_run.out_dir /
                 "transport_stats.csv").read_text().splitlines()
        assert len(lines) == 3


class TestCli:
    def test_run_command(self, tmp_path, capsys):
        with default_scenario_path() as scenario_path:
            code = main(["run", str(scenario_path),
                         "--out", str(tmp_path / "run")])
        assert code == 0
        out = capsys.readouterr().out
        assert "Parameter" in out
        assert "reduction" in out
        assert (tmp_path / "run" / "totals.json").exists()

    def test_report_command_rerenders(self, tmp_path, capsys):
        with default_scenario_path() as scenario_path:
            main(["run", str(scenario_path), "--out", str(tmp_path / "run")])
        capsys.readouterr()
        code = main(["report", str(tmp_path / "run")])
        assert code == 0
        out = capsys.readouterr().out
        assert "cost savings" in out
        assert "revenue gain" in out

    def test_run_writes_timings_that_the_manifest_leaves_out(self, tmp_path,
                                                            capsys):
        run_dir = tmp_path / "run"
        with default_scenario_path() as scenario_path:
            assert main(["run", str(scenario_path), "--out",
                         str(run_dir)]) == 0
        timings = json.loads((run_dir / "timings.json").read_text())
        stages = timings["stages_s"]
        assert list(stages) == STAGES + ["artifacts"]
        assert min(stages.values()) >= 0.0
        assert sum(stages.values()) <= timings["run_season_s"]
        assert "timings.json" not in {e.get("file")
                                      for e in read_manifest(run_dir)}
        capsys.readouterr()
        assert main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "stage times" in out
        assert all(f"  {name} " in out for name in stages)

    def test_run_prints_the_transport_stats_it_writes(self, tmp_path,
                                                       capsys):
        run_dir = tmp_path / "run"
        with default_scenario_path() as scenario_path:
            assert main(["run", str(scenario_path), "--seed", "3",
                         "--out", str(run_dir)]) == 0
        out = capsys.readouterr().out.splitlines()
        with (run_dir / "transport_stats.csv").open(newline="") as fh:
            rows = {row["protocol"]: row for row in csv.DictReader(fh)}
        assert list(rows) == list(transport.PROTOCOLS)
        for proto, row in rows.items():
            assert (f"{proto:8s} attempted={row['attempted']} "
                    f"delivered={row['delivered']} "
                    f"rate={float(row['delivery_rate']):.4f} "
                    f"energy={float(row['energy_mwh']):.2f} mWh "
                    f"latency={float(row['mean_latency_s']):.1f} s") in out
        ratio = (float(rows[transport.PUBSUB]["energy_mwh"])
                 / float(rows[transport.REQRESP]["energy_mwh"]))
        assert f"energy ratio (pubsub/reqresp): {ratio:.4f}" in out

    def test_seed_override_changes_run(self, tmp_path, capsys):
        with default_scenario_path() as scenario_path:
            main(["run", str(scenario_path), "--seed", "9",
                  "--out", str(tmp_path / "run9")])
        assert "seed: 9" in capsys.readouterr().out

    def test_negative_seed_override_is_reported_not_raised(self, tmp_path,
                                                           capsys):
        # numpy rejects a negative seed, which used to fail mid-run
        with default_scenario_path() as scenario_path:
            code = main(["run", str(scenario_path), "--seed", "-1",
                         "--out", str(tmp_path / "run")])
        assert code == 1
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_missing_scenario_is_reported_not_raised(self, tmp_path, capsys):
        bad = tmp_path / "nope.yaml"
        bad.write_text("not: [valid\n")
        code = main(["run", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert "ConfigurationError" in err
        code = main(["run", str(tmp_path / "absent.yaml")])
        assert code == 1
        err = capsys.readouterr().err
        assert "ConfigurationError" in err and "absent.yaml" in err

    def test_out_path_that_is_a_file_is_reported_not_raised(self, tmp_path,
                                                            capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        with default_scenario_path() as scenario_path:
            code = main(["run", str(scenario_path), "--out", str(taken)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [FileExistsError]: ") and "taken" in err

    def test_out_path_that_is_a_file_fails_before_the_season(
            self, tmp_path, capsys, monkeypatch):
        taken = tmp_path / "taken"
        taken.write_text("")

        def weather(*args):
            raise AssertionError("the season ran before the run directory "
                                 "was made")

        monkeypatch.setattr(pipeline, "generate_weather", weather)
        with default_scenario_path() as scenario_path:
            code = main(["run", str(scenario_path), "--out", str(taken)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error [FileExistsError]: ")
        assert taken.read_text() == ""

    def test_run_under_the_c_locale_matches_the_default_run(self, tmp_path):
        # the C locale's ASCII default encoding must reach no file: the
        # scenario is read as bytes and every artifact is written as UTF-8
        with default_scenario_path() as path:
            raw = yaml.safe_load(path.read_bytes())
        raw["field_id"] = "nnyiŋŋa-1"  # lands in every dispatch_log.csv row
        scenario_path = tmp_path / "nnyinga.yaml"
        scenario_path.write_bytes(yaml.safe_dump(raw, allow_unicode=True)
                                  .encode("utf-8"))
        src = Path(pipeline.__file__).resolve().parents[1]
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
               "PYTHONUTF8": "0", "PYTHONPATH": str(src)}
        for command in (["run", str(scenario_path), "--out",
                         str(tmp_path / "c")], ["report", str(tmp_path / "c")]):
            done = subprocess.run([sys.executable, "-m", "agrisim.cli",
                                   *command], env=env, capture_output=True)
            assert done.returncode == 0, done.stderr.decode(errors="replace")
        pipeline.run_season(load_scenario(scenario_path),
                            out_dir=tmp_path / "default")
        assert (tmp_path / "c" / "manifest.jsonl").read_bytes() == \
            (tmp_path / "default" / "manifest.jsonl").read_bytes()

    def test_report_on_empty_dir_fails_cleanly(self, default_run, tmp_path,
                                               capsys):
        good = (default_run.out_dir / "totals.json").read_text()
        no_economics = json.loads(good)
        del no_economics["economics"]
        # no file, a truncated file, a file missing a key
        for name, text in (("empty", None), ("truncated", good[:len(good) // 2]),
                           ("no-economics", json.dumps(no_economics))):
            run_dir = tmp_path / name
            run_dir.mkdir()
            if text is not None:
                (run_dir / "totals.json").write_text(text)
            code = main(["report", str(run_dir)])
            assert code == 1, name
            err = capsys.readouterr().err
            assert "totals.json" in err, name
            assert err.count("\n") == 1 and "Traceback" not in err, name

    def test_report_on_malformed_timings_fails_cleanly(self, default_run,
                                                       tmp_path, capsys):
        # a truncated file, a file missing a key, stages that are no mapping
        for name, text in (("truncated", '{"run_season_s": 0.1, "sta'),
                           ("no-stages", '{"run_season_s": 0.1}'),
                           ("stage-list", '{"run_season_s": 0.1, '
                                          '"stages_s": [0.1]}')):
            run_dir = tmp_path / name
            run_dir.mkdir()
            shutil.copy(default_run.out_dir / "totals.json", run_dir)
            (run_dir / "timings.json").write_text(text)
            code = main(["report", str(run_dir)])
            assert code == 1, name
            err = capsys.readouterr().err
            assert "timings.json" in err, name
            assert err.count("\n") == 1 and "Traceback" not in err, name
