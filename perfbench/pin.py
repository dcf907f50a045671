"""Print the pinned digests of the benchmark's correctness gate as JSON.

    python3 perfbench/pin.py > perfbench/pinned.json

Pins are the digests of seeds 0, 1 and 42 at the commit that defined the
benchmark; a season-dry pin is the sha256 of the ``manifest.jsonl`` that
``agrisim run --seed N`` writes. Any other seed is gated by its invariants and
by a rerun that must match.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

PINNED_SEEDS = (0, 1, 42)


def main():
    pins = {}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for name, cls in workloads.WORKLOADS.items():
            table = pins[name] = {}
            for seed in PINNED_SEEDS:
                with cls(seed, Path(tmp)) as wl:
                    keys = wl.keys if name == "transport-sweep" else [seed]
                    for key in keys:
                        digest, problems = wl.check(key, wl.start(key)())
                        if problems:
                            raise SystemExit(f"{name} {key}: {problems}")
                        table[wl.pin_key(key)] = digest
    json.dump(pins, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
