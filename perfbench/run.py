"""scatopt benchmark: one command, four workloads, end-to-end or traced.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 10 --trace 0

`--trace 0` measures the end-to-end metrics; `--trace 1` measures the
per-layer metrics under the span tracer, plus the tracing overhead.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the full record (machine, library
versions, rounds, checks) goes to perfbench/out/.  See README.md.
"""

import os

# One BLAS thread for this process and every child it starts, set before
# numpy loads: a two-thread pool made build times swing by 60%.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "iterations": "count",
    "peak_rss_mb": "MB",
    "cold_start_s": "s",
}

# per-layer metric -> (unit, how it is read from the trace)
PER_LAYER = {
    "problems.build_s": ("s", ("total", "problems.build")),
    "interconnect.from_constraints_s": ("s", ("total", "interconnect.from_constraints")),
    "interconnect.cayley_s": ("s", ("total", "interconnect.cayley")),
    "interconnect.absorb_sources_s": ("s", ("total", "interconnect.absorb_sources")),
    "interconnect.check_orthonormal_s": ("s", ("total", "interconnect.check_orthonormal")),
    "interconnect.G_mb": ("MB_computed", ("extra", "interconnect.G_mb")),
    "interconnect.apply_s": ("s", ("total", "interconnect.apply")),
    "interconnect.apply_calls": ("count", ("calls", "interconnect.apply")),
    "elements.bank_s": ("s", ("total", "elements.bank")),
    "elements.bank_calls": ("count", ("calls", "elements.bank")),
    "elements.epigraph_prox_s": ("s", ("total", "elements.epigraph_prox")),
    "elements.epigraph_prox_calls": ("count", ("calls", "elements.epigraph_prox")),
    "elements.dissipativity_probe_s": ("s", ("total", "elements.dissipativity_probe")),
    "engine.self_s": ("s", ("self", "engine.run", "engine.run_ensemble")),
    "engine.triggers_s": ("s", ("total", "engine.triggers")),
    "engine.adopted_fraction": ("ratio", ("adopted",)),
    "engine.candidate_coords": ("count", ("counter", "engine.candidate_coords")),
    "engine.objective_s": ("s", ("total", "engine.objective")),
    "engine.objective_calls": ("count", ("calls", "engine.objective")),
    "pairs.readout_s": ("s", ("total", "pairs.readout")),
    "monitor.reference_fixed_point_s": ("s", ("total", "monitor.reference_fixed_point")),
    "monitor.certify_eq1_s": ("s", ("total", "monitor.certify_eq1")),
    "monitor.certify_eq2_s": ("s", ("total", "monitor.certify_eq2")),
    "oracles.solve_s": ("s", ("total", "oracles.solve")),
    "cli.self_s": ("s", ("self", "cli.run", "cli.verify", "cli.compare")),
    "cli.bytes_written": ("bytes", ("extra", "cli.bytes_written")),
    "cli.import_s": ("s", ("import",)),
    "trace.overhead_s": ("s", ("extra", "trace.overhead_s")),
}


def layer_metrics(tracer, extra) -> dict:
    table = tracer.layers()
    counters = tracer.counters
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    values = {}
    for metric, (_, (kind, *names)) in PER_LAYER.items():
        if kind == "total":
            value = table.get(names[0], empty)["total_s"]
        elif kind == "calls":
            value = table.get(names[0], empty)["calls"]
        elif kind == "self":
            value = sum(table.get(n, empty)["self_s"] for n in names)
        elif kind == "counter":
            value = counters.get(names[0], 0)
        elif kind == "adopted":
            base = counters.get("engine.candidate_coords", 0)
            value = counters.get("engine.adopted_coords", 0) / base if base else 0.0
        elif kind == "import":
            calls = counters.get("cli.commands", 0)
            value = counters.get("cli.import_s_sum", 0.0) / calls if calls else 0.0
        else:
            value = extra.get(names[0], 0.0)
        values[metric] = value
    return values


def machine() -> dict:
    import numpy
    import scipy

    uname = platform.uname()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "system": f"{uname.system} {uname.release} {uname.machine}",
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk", "ensemble", "scale", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "scatopt").is_dir():
        print(f"error: scatopt sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer

    workloads.OUT.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer)

    if tracer is None:
        metrics = {name: {"value": outcome.metrics[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        values = layer_metrics(tracer, outcome.layers)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
        stem = f"{args.workload}-seed{args.seed}"
        tracer.write(workloads.OUT / f"trace-{stem}.csv.gz", workloads.OUT / f"layers-{stem}.json",
                     {"workload": args.workload, "seed": args.seed, "metrics": values})

    correct = all(c.ok for c in outcome.checks) and bool(outcome.checks)
    result = {"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "result": result,
        "checks": [str(c) for c in outcome.checks], **outcome.record,
    }
    with open(workloads.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    print(json.dumps(record["machine"]))
    for check in outcome.checks:
        if not check.ok:
            print(f"check failed: {check}")
    print(f"{len(outcome.checks)} checks, {sum(not c.ok for c in outcome.checks)} failed; "
          f"{outcome.attempted} operations attempted, {outcome.failed} failed")
    for name, entry in metrics.items():
        print(f"{name:36s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
