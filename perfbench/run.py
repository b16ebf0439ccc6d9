"""End-to-end benchmark of both engines, with an optional traced run.

Run from the root of a checkout (no build step: the program is pure
Python with numpy)::

    python3 perfbench/run.py --workload paper-csz --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload fabric-build --seed 1 --seconds 20 --trace 1

``--trace 0`` repeats the workload for ``--seconds`` (at least
``MIN_ITERATIONS`` times) with no tracing and reports the end-to-end
metrics: ``wall_s``, ``setup_s``, ``run_s`` (medians over iterations,
printed with quartiles and sample count) and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics, including ``trace.overhead_frac``.  Both modes check
every discipline run (see ``workloads.check_results``) and digest the
simulated statistics; iterations of one seed that digest differently
fail every run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (discipline runs, the ``runs`` metric),
``failed`` (``runs_failed``) and ``metrics``.  The line before it,
``env {...}``, records how the numbers were produced; ``compare.py``
refuses to read two outputs whose backends differ as a speed change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
MIN_ITERATIONS = 3  # untraced; a traced run needs one pair
#: Workers of the pooled workload (the benchmark host has two cores).
WORKERS = 2
#: The failure recorded for an iteration that raised.
CRASHED = "exception"
PHASE_METRICS = {
    "generate": "scenario.generate_s",
    "build": "scenario.build_s",
    "compile": "fluid.compile_s",
    "collect": "scenario.collect_s",
    "serialize": "scenario.serialize_s",
}


def _load_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found under {src}")
    sys.path.insert(0, str(src))


def environment() -> Dict:
    """How this run was produced: backends, switches, host."""
    from repro.fluid import FluidOptions
    from repro.fluid import model as fluid_model
    from repro.sim import backend_info

    fluid = FluidOptions.from_env().backend
    if fluid == "auto":
        fluid = "numpy" if fluid_model._np is not None else "pure"
    return {
        "packet_backend": backend_info(),
        "fluid_backend": fluid,
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def quartiles(values: Sequence[float]):
    """(q1, median, q3), as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def _iterate(workload, seed: int, params: Dict, workers: int, log: List[str]):
    """One iteration; an exception fails it (and is printed) instead of
    ending the benchmark."""
    from workloads import Iteration

    try:
        return workload.iterate(seed, workers, **params)
    except Exception:  # noqa: BLE001 - report any failure as a failed run
        traceback.print_exc()
        log.append(f"{workload.name}: iteration raised")
        return Iteration(wall=0.0, setup=0.0, run=0.0, phases={}, runs=1,
                         failures=[CRASHED], digest="")


def _until(seconds: float, step, minimum: int) -> List:
    """Call ``step()`` until ``seconds`` have passed and at least
    ``minimum`` results are in, or a step fails."""
    started = time.perf_counter()
    done = []
    while len(done) < minimum or time.perf_counter() - started < seconds:
        results = step()
        done.append(results)
        if any(CRASHED in r.failures for r in results):
            break
    return done


def peak_rss_mb() -> float:
    """High-water RSS of this process or any reaped worker (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def end_to_end(workload, seed, params, seconds, log) -> Tuple[List, Dict]:
    rounds = _until(seconds, lambda: [
        _iterate(workload, seed, params, WORKERS, log)
    ], MIN_ITERATIONS)
    iterations = [r[0] for r in rounds]
    metrics = {}
    for name, attr in (("wall_s", "wall"), ("setup_s", "setup"),
                       ("run_s", "run")):
        values = [getattr(it, attr) for it in iterations if not it.failures]
        values = values or [0.0]
        q1, median, q3 = quartiles(values)
        log.append(f"{name:<12} median {median:.4f} s  q1 {q1:.4f}  "
                   f"q3 {q3:.4f}  n {len(values)}")
        metrics[name] = {"value": median, "unit": "s"}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    log.append(f"{'peak_rss_mb':<12} {metrics['peak_rss_mb']['value']:.1f} MB")
    return iterations, metrics


def traced(workload, seed, params, seconds, log) -> Tuple[List, Dict]:
    """Per-layer metrics: phases from untraced iterations, spans and
    counters from traced ones, executor load from a pooled iteration."""
    from spans import FLUID_LAYERS, PACKET_LAYERS, Tracer

    tracer = Tracer()
    counts = {k: 0 for k in (
        "events", "injected", "delivered", "dropped", "batched",
        "departures", "reroutes", "flow_advances", "epochs", "exhausted",
    )}
    tracer.on_collect.append(lambda obj: _harvest(obj, counts, tracer))

    pooled = None
    if workload.pooled:
        pooled = _iterate(workload, seed, params, WORKERS, log)

    def pair():
        plain = _iterate(workload, seed, params, 1, log)
        with tracer:
            spanned = _iterate(workload, seed, params, 1, log)
        return [plain, spanned]

    rounds = _until(seconds, pair, 1)
    untraced = [r[0] for r in rounds]
    spanned = [r[1] for r in rounds]
    n = len(spanned)

    per: Dict[str, Dict] = {}

    def put(name, value, unit):
        per[name] = {"value": value, "unit": unit}

    for phase, name in PHASE_METRICS.items():
        put(name, statistics.median(it.phases.get(phase, 0.0) for it in untraced),
            "s")
    packets = counts["injected"] / n
    for layer in PACKET_LAYERS:
        self_s = tracer.self_s[layer] / n
        put(f"{layer}.self_s", self_s, "s")
        put(f"{layer}.calls", round(tracer.calls[layer] / n), "count")
        put(f"{layer}.ns_per_packet",
            self_s * 1e9 / packets if packets else 0.0, "ns")
    put("sim.events", round(counts["events"] / n), "count")
    put("net.packets_delivered", round(counts["delivered"] / n), "count")
    put("net.packets_dropped", round(counts["dropped"] / n), "count")
    put("net.batched_frac",
        counts["batched"] / counts["departures"] if counts["departures"]
        else 0.0, "ratio")
    put("control.reroutes", round(counts["reroutes"] / n), "count")
    for layer in FLUID_LAYERS:
        if layer == "net.fabric.ecmp_path":
            put("net.fabric.ecmp_path_s", tracer.self_s[layer] / n, "s")
            put("net.fabric.ecmp_path_calls",
                round(tracer.calls[layer] / n), "count")
        else:
            put(f"{layer}.self_s", tracer.self_s[layer] / n, "s")
            put(f"{layer}.calls", round(tracer.calls[layer] / n), "count")
    put("fluid.flow_advances", round(counts["flow_advances"] / n), "count")
    put("fluid.waterfill_calls",
        round(tracer.calls["fluid.waterfill"] / n), "count")
    put("fluid.congested_epoch_frac",
        tracer.calls["fluid.epoch_solve"] / counts["epochs"]
        if counts["epochs"] else 0.0, "ratio")
    put("fluid.waterfill_exhausted", round(counts["exhausted"] / n), "count")
    task_s = pooled.task_s_sum if pooled else 0.0
    put("executor.task_s_sum", task_s, "s")
    put("executor.busy_frac",
        task_s / (WORKERS * pooled.sweep_wall)
        if pooled and pooled.sweep_wall else 0.0, "ratio")
    walls = [it.wall for it in untraced], [it.wall for it in spanned]
    put("trace.overhead_frac",
        statistics.median(walls[1]) / statistics.median(walls[0]) - 1.0
        if all(walls[0]) else 0.0, "ratio")

    for layer in tracer.unmeasured():
        log.append(f"unmeasured {layer}: {', '.join(tracer.missing[layer])}")
    for layer, targets in sorted(tracer.missing.items()):
        if layer not in tracer.unmeasured():
            log.append(f"partial {layer}: missing {', '.join(targets)}")
    iterations = untraced + spanned + ([pooled] if pooled else [])
    return iterations, per


def _harvest(obj, counts: Dict[str, int], tracer) -> None:
    """Read one finished simulation's counters (packet context or fluid
    simulation); a counter that no longer exists is reported missing."""
    try:
        net = getattr(obj, "net", None)
        if net is not None:
            hosts, ports = net.hosts.values(), net.ports.values()
            counts["events"] += obj.sim.events_processed
            counts["injected"] += sum(h.packets_sent for h in hosts)
            counts["delivered"] += sum(h.packets_received for h in hosts)
            counts["dropped"] += sum(p.packets_dropped for p in ports)
            counts["batched"] += sum(p.batched_departures for p in ports)
            counts["departures"] += sum(p.packets_out for p in ports)
            if obj.controller is not None:
                counts["reroutes"] += sum(
                    f.reroutes for f in obj.controller.summary().flows
                )
        else:
            counts["flow_advances"] += obj.events_processed
            counts["epochs"] += obj.num_epochs
            counts["exhausted"] += obj.waterfill_exhausted
    except AttributeError as exc:
        tracer.missing.setdefault("counters", []).append(str(exc))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke-test size")
    args = parser.parse_args(argv)
    _load_program()
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    from repro.scenario import registry

    registry.names()  # import the registered scenarios before timing
    params = workload.sizes[args.size]
    log: List[str] = [f"workload {workload.name} seed {args.seed} "
                      f"size {args.size} {json.dumps(params)}"]
    measure = traced if args.trace else end_to_end
    iterations, metrics = measure(workload, args.seed, params, args.seconds, log)

    attempted = sum(it.runs for it in iterations)
    failed = sum(it.failed for it in iterations)
    digests = {it.digest for it in iterations if not it.failures}
    if len(digests) > 1:
        log.append(f"digest mismatch across repeats of seed {args.seed}: "
                   f"{sorted(digests)}")
        failed = attempted
    for it in iterations:
        log.extend(f"FAILED {message}" for message in it.failures)
    log.append(f"digest {workload.name} seed {args.seed} "
               f"{','.join(sorted(digests)) or '-'}")
    if not args.trace:
        log.append(f"runs {attempted}  runs_failed {failed}")
    else:
        metrics["runs"] = {"value": attempted, "unit": "count"}
        metrics["runs_failed"] = {"value": failed, "unit": "count"}
    for line in log:
        print(line)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
