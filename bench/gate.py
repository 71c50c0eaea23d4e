"""Output gate: every pass's outputs are checked before its time counts.

For every seed the workload's invariants must hold.  For seed 0 the rows,
formatted as the CLI formats them, must also hash to the pinned SHA-256 and
the exact integer outputs (hit sets, certified_to, breakpoints_used, term
counts) must equal the pinned values in ``pinned_seed0.json``.  A pin file
is written by ``python3 bench/pin.py`` from the root of a checkout.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINNED_PATH = Path(__file__).with_name("pinned_seed0.json")


def digest(rows: list[str]) -> str:
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def load_pins() -> dict:
    return json.loads(PINNED_PATH.read_text())


def pin(workload, outputs) -> dict:
    # JSON round trip, so that tuples compare equal to the pinned lists
    return {"rows_sha256": digest(workload.rows(outputs)),
            "exact": json.loads(json.dumps(workload.exact(outputs)))}


def check(workload, seed: int, inputs: dict, outputs: dict,
          pins: dict) -> list[tuple[str, bool]]:
    """(name, passed) for every check this pass's outputs must meet."""
    checks = list(workload.invariants(inputs, outputs))
    if seed == 0:
        want = pins.get(workload.name)
        got = pin(workload, outputs)
        checks += [
            ("rows match the pinned seed-0 checksum",
             want is not None and got["rows_sha256"] == want["rows_sha256"]),
            ("exact outputs match the pinned seed-0 values",
             want is not None and got["exact"] == want["exact"]),
        ]
    return checks
