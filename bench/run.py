"""qzeta benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload series --seed 1 --seconds 25 --trace 0

Every repetition runs in a fresh child interpreter (``bench/child.py``), so
each pays the cold start a CLI user pays: ``import qzeta``, building the
inputs, and an empty ``qcombinat`` partition memo.  Repetitions run one after
another, one process at a time (a closed loop with one caller), and a new one
starts only if it should end within ``--seconds``; there is always at least
one.

The machine's speed drifts, so every timing is restated at a fixed reference
speed by the speed gauge (``bench/gauge.py``) running in the child.
``--trace 0`` reports the end-to-end metrics: ``wall_s`` and ``cpu_s`` (one
pass over the workload's operations, computation only: the sum over
operations of each one's median restated time across the repetitions),
``setup_s`` (median restated time of ``import qzeta`` plus building the
inputs, in the child, over at least ``MIN_SETUPS`` set-ups) and
``peak_rss_mib`` (median peak resident memory of the child).  The raw times and the gauge's speed are printed above the
result line.

``--trace 1`` runs one untraced and one traced repetition and reports the
per-layer metrics from the traced one, the acceptance criteria's own timings
from the untraced one, and the tracing overhead (traced over untraced raw
wall time).  The traced repetition runs without the gauge.  Spans are
written to ``.bench_out/`` in the checkout.

Every output is checked (see ``bench/workloads.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``failed / attempted`` is the failure fraction, printed as
``fail_frac`` in the summary above it.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT))

from bench.child import refuse_optimized  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

MIN_SETUPS = 15
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, mode: str, spans: Path | None = None) -> dict:
    """Run one repetition in a fresh interpreter and return its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), str(ROOT), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "bench.child", "--workload", workload, "--seed", str(seed), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed the child and waited for it
        raise ChildFailed(f"{mode} child for {workload} ran past {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child for {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def median_pass(reps, key: str) -> float:
    """Sum over operations of each operation's median time across repetitions."""
    return sum(statistics.median(r[key][label] for r in reps) for label in reps[0][key])


def measure(workload: str, seed: int, seconds: float):
    reps = []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        reps.append(run_child(workload, seed, "measure"))
        now = time.perf_counter()
        if now - start + (now - rep_start) > seconds:
            break
    setups = reps[:]
    while len(setups) < MIN_SETUPS:
        setups.append(run_child(workload, seed, "setup"))
    metrics = {
        "wall_s": median_pass(reps, "op_wall_s"),
        "cpu_s": median_pass(reps, "op_cpu_s"),
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reps),
    }
    speeds = [v for r in reps for v in r["op_speed"].values()]
    note = (
        f"{len(reps)} repetitions, {len(setups)} set-ups; raw (unscaled) wall"
        f" {median_pass(reps, 'op_raw_wall_s'):.3f} s, set-up"
        f" {statistics.median(r['setup_raw_s'] for r in setups):.3f} s;"
        f" gauge speed {min(speeds):.3f}..{max(speeds):.3f} of the reference"
    )
    return reps, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, note


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def trace(workload: str, seed: int):
    plain = run_child(workload, seed, "measure")
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{workload}-seed{seed}.spans.jsonl"
    traced = run_child(workload, seed, "trace", spans)
    note = f"one untraced and one traced repetition; spans in {spans.relative_to(ROOT)}"
    return [plain, traced], layer_report(plain, traced), note


def layer_report(plain: dict, traced: dict) -> dict:
    """Per-layer metrics from a traced repetition, criterion timings from an untraced one."""
    metrics = {k: (v, _layer_unit(k)) for k, v in traced["layers"].items()}
    crit_s = plain.get("crit_s", {})
    for number in range(1, 15):
        metrics[f"verify.crit_{number:02d}.s"] = (crit_s.get(f"{number:02d}", 0.0), "s")
    overhead = median_pass([traced], "op_raw_wall_s") / median_pass([plain], "op_raw_wall_s")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    refuse_optimized()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qzeta" / "__init__.py").is_file():
        print(f"error: no qzeta sources under {SRC}", file=sys.stderr)
        return 2
    if not all(compileall.compile_dir(d, quiet=1) for d in (SRC, ROOT / "bench")):
        print("error: compiling the sources failed", file=sys.stderr)
        return 2

    try:
        if args.trace:
            reps, metrics, note = trace(args.workload, args.seed)
        else:
            reps, metrics, note = measure(args.workload, args.seed, args.seconds)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["errors"]) for r in reps)
    print(f"workload {args.workload}, seed {args.seed}: {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    print(f"  {'fail_frac':40s} {failed / attempted if attempted else 1.0:14.6f} ratio"
          f" ({failed} of {attempted} checked operations)")
    for r in reps:
        for item, err in r["errors"].items():
            print(f"  FAILED {item}: {err}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
