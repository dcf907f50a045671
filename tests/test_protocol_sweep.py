"""``scripts/protocol_sweep.py`` on a short stream."""

import importlib.util
import sys
from pathlib import Path

import pytest

SWEEP = Path(__file__).resolve().parent.parent / "scripts" / \
    "protocol_sweep.py"


def _sweep():
    spec = importlib.util.spec_from_file_location("protocol_sweep", SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


def test_sweep_prints_one_row_per_loss_qos_and_protocol(monkeypatch, capsys):
    sweep = _sweep()
    monkeypatch.setattr(sys, "argv", ["protocol_sweep.py", "--packets", "50",
                                      "--losses", "0.0", "0.2"])

    assert sweep.main() == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["loss", "qos", "protocol", "rate",
                              "energy_mwh", "latency_s", "retx"]
    cells = [row.split() for row in rows]
    assert len(cells) == 8
    assert {(c[0], c[1], c[2]) for c in cells} == {
        (loss, qos, proto) for loss in ("0.00", "0.20") for qos in "01"
        for proto in ("PUBSUB", "REQRESP")}
    lossless = [c for c in cells if c[0] == "0.00"]
    assert len(lossless) == 4
    assert all(c[3] == "1.0000" and c[6] == "0" for c in lossless)


@pytest.mark.parametrize("args, message", [
    (["--losses", "0.0", "1.0"], "loss_prob must be in"),
    (["--packets", "-1"], "--packets must be non-negative"),
    (["--seed", "-1"], "--seed must be non-negative"),
], ids=["loss", "packets", "seed"])
def test_bad_arguments_are_usage_errors(monkeypatch, capsys, args, message):
    sweep = _sweep()
    monkeypatch.setattr(sys, "argv", ["protocol_sweep.py", "--packets", "50",
                                      *args])

    with pytest.raises(SystemExit) as exc:
        sweep.main()
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err and err.startswith("usage:")
