"""One repetition of one workload, in a fresh interpreter.

Run by ``bench/run.py`` as ``python -m bench.child``.  It imports qzeta and
builds the inputs (the set-up, which it times), runs every operation once in
a closed loop, checks every output, and prints one JSON line with the
measurements.  ``--mode setup`` stops after the set-up; ``--mode trace`` runs
the operations under the span tracer.

Outside trace mode every timing is reported both raw and restated at the
reference speed (``bench/gauge.py``): the set-up by an import-like probe run
just before it, the operations by the speed gauge running beside them.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from bench.gauge import Gauge, setup_speed


def refuse_optimized() -> None:
    """Every acceptance criterion is a bare ``assert``, which ``-O`` removes."""
    if sys.flags.optimize > 0:
        sys.exit("error: the benchmark refuses to run under python -O: qzeta's checks are asserts")


def run_pass(ops, tracer=None, gauge=None):
    """Run every operation once; returns (outputs, raised, {label: timing}).

    A timing has ``raw_wall_s``; with a gauge also ``wall_s``, ``cpu_s`` and
    ``speed`` at the reference speed (see ``Gauge.since``).
    """
    outputs, raised, times = {}, {}, {}
    for run_id, (label, op) in enumerate(ops):
        if tracer is not None:
            tracer.run_id = run_id
        mark = gauge.mark() if gauge is not None else None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            outputs[label] = op()
        except Exception as exc:  # a failed operation is counted, not fatal
            raised[label] = exc
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        times[label] = gauge.since(mark, wall, cpu) if gauge is not None else {"raw_wall_s": wall}
    return outputs, raised, times


def main(argv=None) -> int:
    refuse_optimized()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("measure", "setup", "trace"), default="measure")
    parser.add_argument("--spans", default=None, help="trace mode: write the spans here")
    args = parser.parse_args(argv)

    speed = setup_speed() if args.mode != "trace" else None
    setup_from = time.perf_counter()

    from bench.workloads import WORKLOADS, judge, load_pins

    ops, refs = WORKLOADS[args.workload].setup(args.seed)
    setup = {}
    if speed is not None:
        raw = time.perf_counter() - setup_from
        setup = {"setup_s": raw * speed, "setup_raw_s": raw}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.mode == "trace":
        from bench.tracer import Tracer, layer_metrics, traced

        tracer = Tracer()
        with traced(tracer):
            outputs, raised, times = run_pass(ops, tracer)
    else:
        gauge = Gauge().start()
        try:
            outputs, raised, times = run_pass(ops, gauge=gauge)
        finally:
            gauge.stop()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    verdict = judge(args.workload, refs, outputs, raised, load_pins().get(args.workload, {}))
    result = {
        **setup,
        **{f"op_{key}": {label: t[key] for label, t in times.items()} for key in next(iter(times.values()))},
        "peak_rss_mib": peak_kib / 1024,
        "attempted": len(verdict),
        "errors": {item: err for item, err in verdict.items() if err},
    }
    suite = outputs.get("run_suite(all)")
    if suite is not None:
        result["crit_s"] = {f"{r.number:02d}": r.seconds for r in suite}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
