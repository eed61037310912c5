"""Regenerate bench/pins.json, the sha256 of every workload output.

Run from the repository root:  PYTHONPATH=src python3 -m bench.pin

Every output is checked against its reference first; nothing is written if
any check fails.  A change that speeds qzeta up must leave these hashes
unchanged, so regenerating them belongs only in a change that means to
alter results.
"""

from __future__ import annotations

import json
import sys

from bench.child import refuse_optimized, run_pass
from bench.workloads import PINS_PATH, WORKLOADS, digest


def main() -> int:
    refuse_optimized()
    pins = {}
    for name, workload in WORKLOADS.items():
        ops, refs = workload.setup(0)
        outputs, raised, _ = run_pass(ops)
        checked = workload.judge(refs, outputs)
        errors = [f"{label}: raised {exc!r}" for label, exc in raised.items()]
        errors += [f"{item}: {err}" for item, (_, err) in checked.items() if err]
        if errors:
            print(f"{name}: not pinned, checks failed:", *errors, sep="\n  ", file=sys.stderr)
            return 1
        pins[name] = {item: digest(value) for item, (value, _) in sorted(checked.items())}
        print(f"{name}: pinned {len(pins[name])} outputs")
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
