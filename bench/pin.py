"""Write pinned_seed0.json: the seed-0 row checksums and exact outputs.

    PYTHONPATH=src python3 bench/pin.py

Run it only on a commit whose outputs are known good: it refuses to pin a
workload whose invariants fail.  A change that alters any pinned row makes
every seed-0 run of the benchmark report a failed check.
"""

from __future__ import annotations

import json
import sys

import gate
import workloads


def main() -> int:
    pins = {}
    for name, wl in workloads.WORKLOADS.items():
        inputs = wl.make_inputs(0)
        out = wl.run(wl.prepare(inputs))
        bad = [n for n, ok in wl.invariants(inputs, out) if not ok]
        if bad:
            print(f"{name}: invariants fail, not pinned: {bad}", file=sys.stderr)
            return 1
        pins[name] = gate.pin(wl, out)
        print(f"{name}: {pins[name]['rows_sha256']}")
    gate.PINNED_PATH.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
