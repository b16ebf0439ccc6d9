"""Discrete-event simulation substrate.

The paper's evaluation ran on a custom packet-level simulator written by
Lixia Zhang.  This subpackage is our from-scratch equivalent: an event
loop over plain ``(time, priority, seq, action)`` tuples with
deterministic tie-breaking, named timers, and seeded random streams so
that every experiment in the reproduction is replayable bit-for-bit.

Pending events live in one binary heap.  An optional compiled core
replaces the pure-Python loop when it is built — see :func:`backend_info`
and the README's Performance section.  The pure-Python engine is the
authoritative implementation; the compiled core must match it
bit-for-bit.
"""

from repro.sim.engine import (
    Engine,
    PySimulator,
    SimulationError,
    Simulator,
    backend_info,
)
from repro.sim.events import EventHandle
from repro.sim.randomness import RandomStreams, StreamRandom
from repro.sim.timers import PeriodicTimer

__all__ = [
    "Engine",
    "Simulator",
    "PySimulator",
    "SimulationError",
    "EventHandle",
    "RandomStreams",
    "StreamRandom",
    "PeriodicTimer",
    "backend_info",
]
