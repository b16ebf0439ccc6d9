"""The benchmark's four workloads, one iteration at a time.

An iteration is what a user pays for one scenario: from a scenario name
and seed to the serialized result JSON, over every discipline (or the
whole sweep).  Each iteration also runs the correctness checks and
digests the simulated statistics, so a speed change can show that the
results it produces are unchanged.

Only public entry points are driven: ``registry.build``,
``ScenarioRunner.build(...).run()/.collect()``,
``FluidSimulation(spec, d, options).run().collect()``,
``SweepExecutor.run_sweep`` and ``DisciplineRunResult.to_dict``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.fluid import FluidOptions, FluidSimulation
from repro.scenario import ScenarioRunner, registry
from repro.scenario.executor import COMPLETED, SweepExecutor

from spans import Tracer

clock = time.perf_counter

#: The generated topologies are fixed and ``--seed`` seeds the traffic
#: (and outage process): a different sampled graph costs a different
#: amount, which would read as a speed change between seeds.
FABRIC_GEN_SEED = 1

COLLECT_PHASE = {"collect": ("repro.scenario.runner:ScenarioContext.collect",)}


@dataclasses.dataclass
class Iteration:
    """One iteration's host times, checks and digest."""

    wall: float
    setup: float
    run: float
    #: Seconds per phase: generate, build, compile, collect, serialize.
    phases: Dict[str, float]
    runs: int
    failures: List[str]
    digest: str
    #: Sweep only: summed task walls and the wall of the pooled sweep.
    task_s_sum: float = 0.0
    sweep_wall: float = 0.0

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``full`` is the measured size, ``tiny`` the smoke-test size.
    sizes: Dict[str, Dict[str, float]]
    #: ``iterate(seed, workers, **sizes[size])``; only the sweep uses
    #: ``workers``.
    iterate: Callable[..., Iteration]
    pooled: bool = False


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def _digest(results: Sequence) -> str:
    blob = json.dumps([r.comparable_dict() for r in results], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def check_results(spec, results: Sequence) -> List[str]:
    """Failed discipline runs of one spec, one message each: invariants
    not clean (on a validated spec), or ``generated`` counts that differ
    from the first discipline's (arrivals must be paired)."""
    failures = []
    paired = {f.name: f.generated for f in results[0].flows} if results else {}
    for r in results:
        if spec.validate and not (
            r.invariants is not None and all(c.ok for c in r.invariants)
        ):
            bad = [c.name for c in r.invariants or () if not c.ok]
            failures.append(f"{spec.name}/{r.discipline}: invariants {bad}")
        elif {f.name: f.generated for f in r.flows} != paired:
            failures.append(
                f"{spec.name}/{r.discipline}: generated counts differ from "
                f"{results[0].discipline} (arrivals not paired)"
            )
    return failures


def check_fluid_conservation(sim) -> Optional[str]:
    """generated = delivered + backlog + dropped + failure_drops, per
    flow, to the fluid model's own tolerance."""
    for f, generated in enumerate(sim.generated_bits):
        accounted = (
            sim.delivered_bits[f] + sim.backlog_bits[f]
            + sim.dropped_bits[f] + sim.failure_drop_bits[f]
        )
        if abs(generated - accounted) > 1e-6 * max(generated, 1.0) + 1.0:
            return (
                f"{sim.spec.name}/{sim.discipline.name}: flow "
                f"{sim.flow_names[f]} breaks conservation "
                f"({generated} generated vs {accounted} accounted bits)"
            )
    return None


def _serialize(spec, results) -> float:
    started = clock()
    json.dumps({
        "scenario": spec.name,
        "seed": spec.seed,
        "runs": [r.to_dict() for r in results],
    })
    return clock() - started


# ----------------------------------------------------------------------
# Iterations
# ----------------------------------------------------------------------


def packet_iteration(seed: int, scenario: str, duration: float) -> Iteration:
    """A registered packet scenario, each discipline built, run,
    collected and serialized in this process."""
    started = clock()
    spec = registry.build(scenario, duration=duration, seed=seed)
    generate = clock() - started
    build = run = collect = 0.0
    results, failures = [], []
    for discipline in spec.disciplines:
        t0 = clock()
        context = ScenarioRunner(spec).build(discipline)
        t1 = clock()
        context.run()
        t2 = clock()
        results.append(context.collect())
        t3 = clock()
        build, run, collect = build + t1 - t0, run + t2 - t1, collect + t3 - t2
    serialize = _serialize(spec, results)
    wall = clock() - started
    failures += check_results(spec, results)
    return Iteration(
        wall=wall, setup=generate + build, run=run,
        phases=dict(generate=generate, build=build, collect=collect,
                    serialize=serialize),
        runs=len(spec.disciplines), failures=failures,
        digest=_digest(results),
    )


def fluid_iteration(seed: int, scenario: str, **params) -> Iteration:
    """A generated fabric on the fluid engine: each discipline compiled,
    run, collected and serialized in this process."""
    started = clock()
    spec = registry.build(scenario, gen_seed=FABRIC_GEN_SEED, seed=seed, **params)
    generate = clock() - started
    options = FluidOptions.from_env()
    compile_, run, collect = 0.0, 0.0, 0.0
    results, failures = [], []
    for discipline in spec.disciplines:
        t0 = clock()
        sim = FluidSimulation(spec, discipline, options)
        t1 = clock()
        sim.run()
        t2 = clock()
        results.append(sim.collect())
        t3 = clock()
        compile_, run, collect = (
            compile_ + t1 - t0, run + t2 - t1, collect + t3 - t2
        )
        broken = check_fluid_conservation(sim)
        if broken:
            failures.append(broken)
        del sim
    serialize = _serialize(spec, results)
    wall = clock() - started
    failures += check_results(spec, results)
    return Iteration(
        wall=wall, setup=generate + compile_, run=run,
        phases=dict(generate=generate, compile=compile_, collect=collect,
                    serialize=serialize),
        runs=len(spec.disciplines), failures=failures,
        digest=_digest(results),
    )


def sweep_iteration(
    seed: int, workers: int, specs: int, **params
) -> Iteration:
    """``specs`` generated outage graphs, each under every default
    discipline, as whole-spec overrides through one executor.

    The executor builds and runs inside its workers, where this process
    cannot time them; set-up is therefore the generation here plus a
    separate in-process construction of every (spec, discipline)
    context, and run time is the engine's own ``wall_seconds`` per run.
    With ``workers=1`` the sweep runs in this process and the collect
    phase is timed by wrapping ``ScenarioContext.collect``.
    """
    collect_timer = Tracer(COLLECT_PHASE, counters=False) if workers <= 1 else None
    started = clock()
    generated = [
        registry.build("gen:outage", gen_seed=g, seed=seed, **params)
        for g in range(1, int(specs) + 1)
    ]
    generate = clock() - started
    with SweepExecutor(workers=workers) as executor:
        t0 = clock()
        with collect_timer or contextlib.nullcontext():
            outcome = executor.run_sweep(generated[0], over=generated)
        sweep_wall = clock() - t0
    t0 = clock()
    json.dumps(outcome.to_dict())
    serialize = clock() - t0
    wall = clock() - started

    build = 0.0
    for spec in generated:
        runner = ScenarioRunner(spec)
        for discipline in spec.disciplines:
            t0 = clock()
            runner.build(discipline)
            build += clock() - t0

    results, failures = [], []
    runs = sum(len(spec.disciplines) for spec in generated)
    for spec, sweep_run in zip(generated, outcome.runs):
        if sweep_run.status != COMPLETED:
            failures += [f"{spec.name}: {sweep_run.status}"] * len(
                spec.disciplines
            )
            continue
        results.extend(sweep_run.result.runs)
        failures += check_results(spec, sweep_run.result.runs)
    tasks = [task for sweep_run in outcome.runs for task in sweep_run.tasks]
    return Iteration(
        wall=wall, setup=generate + build,
        run=sum(r.wall_seconds for r in results),
        phases=dict(
            generate=generate, build=build, serialize=serialize,
            collect=collect_timer.self_s["collect"] if collect_timer else 0.0,
        ),
        runs=runs, failures=failures, digest=_digest(results),
        task_s_sum=sum(task.wall_seconds for task in tasks),
        sweep_wall=sweep_wall,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper-csz",
            "the paper's Figure-1 CSZ mix (guaranteed, predicted, datagram, "
            "TCP, admission) on the packet engine: per-packet layers are "
            "~97% of the wall",
            {"full": dict(duration=10.0), "tiny": dict(duration=1.0)},
            lambda seed, workers, **p: packet_iteration(seed, "table3", **p),
        ),
        Workload(
            "outage-sweep",
            "generated outage graphs x {FIFO, FIFO+, CSZ} through a 2-worker "
            "executor: audit taps, batched drain, SPF reroutes, spec "
            "generation and dispatch",
            {"full": dict(specs=4, duration=8.0, warmup=2.0,
                          outage_rate_per_second=1.0),
             "tiny": dict(specs=1, duration=2.0, warmup=0.5,
                          outage_rate_per_second=2.0)},
            sweep_iteration,
            pooled=True,
        ),
        Workload(
            "fabric-congested",
            "k=8 fat-tree, 10k flows at 1.3x load on the fluid engine: the "
            "per-epoch solve and waterfill are ~90% of the wall",
            {"full": dict(k=8, num_flows=10_000, target_utilization=1.3,
                          duration=2.0),
             "tiny": dict(k=4, num_flows=200, target_utilization=1.3,
                          duration=1.0)},
            lambda seed, workers, **p: fluid_iteration(
                seed, "gen:fat-tree", **p
            ),
        ),
        Workload(
            "fabric-build",
            "k=12 fat-tree, 30k flows at 0.6 load on the fluid engine: "
            "spec build (ECMP paths) and compile are ~95% of the wall",
            {"full": dict(k=12, num_flows=30_000, target_utilization=0.6,
                          duration=5.0, record_flows=8),
             "tiny": dict(k=4, num_flows=200, target_utilization=0.6,
                          duration=1.0, record_flows=8)},
            lambda seed, workers, **p: fluid_iteration(
                seed, "gen:fat-tree", **p
            ),
        ),
    )
}
