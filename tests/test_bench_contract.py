"""The benchmark under perfbench/ drives agrisim by name: its traced run
wraps the attributes listed in perfbench/layers.py, and its gate tests wrap
decision.schedule_season as (policy, scenario, noise). These tests keep that
contract in the tier-1 suite, so a cleanup that breaks the benchmark fails
here too."""

import dataclasses
import importlib.util
from pathlib import Path

from agrisim import decision
from agrisim.decision import CropCalendar
from agrisim.fieldsim import NoiseStream

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in load_layers().TARGETS
               if not hasattr(owner, attr)]
    assert missing == []


def test_schedule_season_takes_policy_scenario_noise_positionally(
        default_scenario):
    days = 4
    scenario = dataclasses.replace(
        default_scenario,
        season=dataclasses.replace(default_scenario.season, days=days),
        calendar=CropCalendar.maize(days))
    result = decision.schedule_season(decision.SENSOR_DRIVEN, scenario,
                                      NoiseStream(0))
    assert len(result.samples) == days * 288
