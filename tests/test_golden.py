"""Golden outputs: the manifest of the shipped scenario and a digest of the
wet, lossy QoS-1 variant, pinned so that any change to a run's bytes is
caught. Update a pin only together with a note on why the bytes changed."""

import copy
import dataclasses
import hashlib
import json

import pytest
import yaml

from agrisim import pipeline
from agrisim.scenario import default_scenario_path, parse_scenario

MANIFEST_SHA256 = {
    0: "cc62b851bcf75f409eba92cb75fa60a209fb45ee18774beeb4e69a31d470b540",
    1: "76cec7008839b94b7a77b69cd615243292609ae4ed56edbefdb01cab513be1db",
    42: "7afdc55281f12dcc57c130aa3a3bd58af44779f4127cf58d74ed8190d4a20fc2",
}
WET_LOSSY_SEED_42_SHA256 = (
    "b3e88c7a9cc5758220f2cd4618e518313150b04bcd244977c24ecf5097c63ccd")


@pytest.fixture(scope="module")
def shipped_raw():
    with default_scenario_path() as path:
        with open(path) as fh:
            return yaml.safe_load(fh)


@pytest.mark.parametrize("seed", sorted(MANIFEST_SHA256))
def test_shipped_scenario_manifest(shipped_raw, seed, tmp_path):
    scenario = dataclasses.replace(parse_scenario(copy.deepcopy(shipped_raw)),
                                   seed=seed)
    pipeline.run_season(scenario, out_dir=tmp_path)
    manifest = (tmp_path / pipeline.MANIFEST_NAME).read_bytes()
    assert hashlib.sha256(manifest).hexdigest() == MANIFEST_SHA256[seed]


def test_wet_lossy_qos1_digest(shipped_raw):
    raw = copy.deepcopy(shipped_raw)
    raw["season"].update(dry_season=False, rain_probability=0.3,
                         rain_mean_mm=8.0)
    raw["link"].update(loss_prob=0.2, qos=1)
    raw["channel"]["min_update_interval_s"] = 600.0
    scenario = parse_scenario(raw)
    assert (scenario.seed, scenario.qos) == (42, 1)
    out = pipeline.run_season(scenario)
    blob = json.dumps({
        "totals": dataclasses.asdict(out.totals),
        "noise": [out.system_arm.noise_digest, out.baseline_arm.noise_digest],
        "transport": {p: dataclasses.asdict(s)
                      for p, s in out.transport_stats.items()},
    }, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == WET_LOSSY_SEED_42_SHA256
