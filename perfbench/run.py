"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 25 \
        --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` measures the workload with every other request
or round traced, probes each layer in-process under spans, prints the
per-layer metrics and writes the spans to ``.perfbench_run/traces/``.
Metric names, units and directions are read from ``BENCHMARK.json``.
Every output check that fails is printed with the key it concerns and
counts in ``ok_share`` and ``failed``.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import ROOT, WORK, BenchError, Tracer, require_program

WORKLOADS = ("sweep_cold", "serve_hot", "routed_mixed")


def _run_workload(name: str, seed: int, seconds: int,
                  tracer: Tracer) -> dict:
    if name == "sweep_cold":
        import sweep

        return sweep.run(seed, seconds, tracer)
    import serving

    if name == "serve_hot":
        return serving.run_serve_hot(seed, seconds, tracer)
    return serving.run_routed(seed, seconds, tracer)


def _layer_values(result: dict, declared: dict) -> dict:
    """Every declared per-layer metric; layers this workload does not
    cross read 0."""
    values = {name: 0.0 for name in declared}
    values.update(result["layers"])
    unknown = set(values) - set(declared)
    if unknown:
        raise BenchError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if opts.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        require_program()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        tracer = Tracer(bool(opts.trace))
        result = _run_workload(opts.workload, opts.seed, opts.seconds,
                               tracer)
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    problems = result["problems"]
    attempted = result["attempted"]
    if tracer.enabled:
        declared = {m["name"]: m for m in spec["per_layer"]}
        values = _layer_values(result, declared)
        path = WORK / "traces" / f"{opts.workload}-seed{opts.seed}.json"
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to "
              f"{path.relative_to(ROOT)}")
    else:
        declared = {m["name"]: m for m in spec["end_to_end"]}
        values = dict(result)
        values["ok_share"] = 1.0 - len(problems) / attempted
    for problem in problems:
        print(f"FAILED CHECK {problem}")
    metrics = {}
    for name, meta in declared.items():
        metrics[name] = {"value": float(values[name]), "unit": meta["unit"]}
        print(f"{opts.workload:>12} {name:<30} {values[name]:>14.4f} "
              f"{meta['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
