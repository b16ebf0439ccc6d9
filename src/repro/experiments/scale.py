"""Scale flagship: CSZ isolation and admission at 10k–100k+ flows.

The paper argues its service model *because* of scale: isolation (WFQ /
the unified scheduler) and admission control only earn their complexity
when many flows contend.  The packet engine demonstrates the mechanisms
at tens of flows; this experiment asks the paper's two core questions at
datacenter populations on the fluid engine:

* **Isolation.**  On a fat-tree carrying ``size`` flows just past
  saturation (hottest link at 1.05x, where the 2x-peak on/off bursts
  actually queue), compare FIFO against the unified CSZ scheduler: mean
  queueing delay of the recorded *realtime* (guaranteed + predicted)
  flows vs the recorded *datagram* flows.  Under FIFO every tier sees
  the same shared queue; under CSZ the realtime tiers are served first
  and datagram absorbs the queueing — the Figure-1 structure, holding at
  populations five orders of magnitude beyond the paper's.
* **Admission.**  The same fabric deliberately overloaded (offered load
  1.3x the bottleneck), every realtime flow carrying a service request,
  with admission control on: the quota admits what fits, denials ride
  as datagram, and the admitted realtime tier keeps its delay — the
  paper's argument that admission is what makes guarantees *mean*
  something under overload.

Each row also records the fluid engine's throughput (flow-advances per
wall-clock second) — the number ``BENCH_fluid.json`` tracks — so the
flagship doubles as a visible statement of why these questions are
answerable at all: at 100k flows the packet engine would need hours per
cell; the fluid engine needs seconds.  Populations beyond 100k (the
1M-flow regime) run the same way: ``run(sizes=(1_000_000,))``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fluid import FluidSimulation
from repro.scenario import DisciplineSpec, ScenarioRunner, registry

DEFAULT_SIZES: Tuple[int, ...] = (10_000, 100_000)
DEFAULT_DURATION_SECONDS = 60.0
RECORD_FLOWS = 48
#: Isolation leg: just past saturation so the 2x-peak bursts queue (at
#: the 0.85 operating point the deterministic fluid limit never backs
#: up and every scheduler looks identical).
BURST_UTILIZATION = 1.05
OVERLOAD_UTILIZATION = 1.3


def _k_for(size: int) -> int:
    """A fat-tree arity whose host count suits the population."""
    if size <= 2_000:
        return 4
    if size <= 20_000:
        return 8
    return 16


@dataclasses.dataclass
class ScaleRow:
    """One population size: isolation and admission, side by side.

    Delays are mean recorded queueing delay in milliseconds, split by
    service tier (``rt`` = guaranteed + predicted, ``dg`` = datagram).
    """

    size: int
    k: int
    flows_per_sec: float
    wall_seconds: float
    fifo_rt_ms: float
    fifo_dg_ms: float
    csz_rt_ms: float
    csz_dg_ms: float
    admitted: int
    denied: int
    overload_rt_ms: float
    overload_dg_ms: float
    invariants_clean: bool

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class ScaleResult:
    rows: List[ScaleRow]
    duration: float
    seed: int
    gen_seed: int

    @property
    def all_invariants_clean(self) -> bool:
        return all(row.invariants_clean for row in self.rows)

    def row(self, size: int) -> ScaleRow:
        for row in self.rows:
            if row.size == size:
                return row
        raise KeyError(f"no row for size {size}")

    def render(self) -> str:
        lines = [
            "Scale flagship (fluid engine): isolation + admission on "
            "fat-tree fabrics",
            f"  duration {self.duration:g}s  seed {self.seed}  "
            f"gen_seed {self.gen_seed}",
            "",
            f"{'flows':>9}  {'fabric':>7}  {'Mflow-adv/s':>11}  "
            f"{'FIFO rt/dg ms':>14}  {'CSZ rt/dg ms':>13}  "
            f"{'admit/deny':>11}  {'overload rt/dg ms':>17}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.size:>9,}  k={row.k:<5}  "
                f"{row.flows_per_sec / 1e6:>11.2f}  "
                f"{row.fifo_rt_ms:>6.2f}/{row.fifo_dg_ms:<7.2f}  "
                f"{row.csz_rt_ms:>5.2f}/{row.csz_dg_ms:<7.2f}  "
                f"{row.admitted:>5,}/{row.denied:<5,}  "
                f"{row.overload_rt_ms:>8.2f}/{row.overload_dg_ms:<8.2f}"
            )
        lines.append("")
        lines.append(
            "  rt = recorded guaranteed+predicted flows, dg = recorded "
            "datagram flows; overload = 1.3x offered load with admission on"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "duration": self.duration,
            "seed": self.seed,
            "gen_seed": self.gen_seed,
            "rows": [row.to_dict() for row in self.rows],
            "all_invariants_clean": self.all_invariants_clean,
        }


def _tier_delays_ms(run, spec) -> Tuple[float, float]:
    """(realtime_ms, datagram_ms) mean recorded queueing delay."""
    service = {f.name: f.service_class for f in spec.flows}
    rt: List[float] = []
    dg: List[float] = []
    for stats in run.flows:
        bucket = rt if service[stats.name].is_realtime else dg
        bucket.append(stats.mean_seconds * 1e3)
    return (
        sum(rt) / len(rt) if rt else 0.0,
        sum(dg) / len(dg) if dg else 0.0,
    )


def _build(size: int, duration: float, seed: int, gen_seed: int, **kwargs):
    return registry.build(
        "gen:fat-tree",
        gen_seed=gen_seed,
        k=_k_for(size),
        num_flows=size,
        duration=duration,
        seed=seed,
        record_flows=RECORD_FLOWS,
        engine="fluid",
        **kwargs,
    )


def run(
    duration: Optional[float] = None,
    seed: int = 1,
    gen_seed: int = 1,
    sizes: Optional[Sequence[int]] = None,
) -> ScaleResult:
    duration = duration or DEFAULT_DURATION_SECONDS
    if sizes is None:
        sizes = DEFAULT_SIZES  # resolved per call, so callers can rebind it
    rows: List[ScaleRow] = []
    for size in sizes:
        spec = _build(
            size, duration, seed, gen_seed,
            target_utilization=BURST_UTILIZATION,
            disciplines=(
                DisciplineSpec.fifo(),
                DisciplineSpec.unified(name="CSZ"),
            ),
        )
        runner = ScenarioRunner(spec)
        by_disc: Dict[str, object] = {
            d.name: runner.run_discipline(d) for d in spec.disciplines
        }
        fifo_rt, fifo_dg = _tier_delays_ms(by_disc["FIFO"], spec)
        csz_rt, csz_dg = _tier_delays_ms(by_disc["CSZ"], spec)
        csz = by_disc["CSZ"]

        # Admission leg: the same fabric pushed past its capacity, every
        # realtime flow asking, the quota deciding.  Built via
        # FluidSimulation directly so the admit/deny split is readable.
        overload_spec = _build(
            size, duration, seed, gen_seed,
            target_utilization=OVERLOAD_UTILIZATION,
            with_requests=True,
            admission=True,
            disciplines=(DisciplineSpec.unified(name="CSZ"),),
        )
        sim = FluidSimulation(overload_spec, overload_spec.disciplines[0])
        overload_run = sim.run().collect()
        over_rt, over_dg = _tier_delays_ms(overload_run, overload_spec)

        rows.append(
            ScaleRow(
                size=size,
                k=_k_for(size),
                flows_per_sec=csz.events_processed / csz.wall_seconds,
                wall_seconds=sum(
                    r.wall_seconds for r in by_disc.values()
                ) + overload_run.wall_seconds,
                fifo_rt_ms=fifo_rt,
                fifo_dg_ms=fifo_dg,
                csz_rt_ms=csz_rt,
                csz_dg_ms=csz_dg,
                admitted=len(sim.admitted),
                denied=len(sim.denied),
                overload_rt_ms=over_rt,
                overload_dg_ms=over_dg,
                invariants_clean=all(
                    c.ok
                    for r in (*by_disc.values(), overload_run)
                    for c in (r.invariants or ())
                ),
            )
        )
    return ScaleResult(
        rows=rows, duration=duration, seed=seed, gen_seed=gen_seed
    )
