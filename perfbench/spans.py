"""Per-layer tracing from outside the program.

The tracer wraps each layer's entry-point methods on their classes (the
wrappers live here; nothing under ``src/`` changes) and keeps, per layer,
the summed *self* time (span minus the spans nested inside it) and the
call count.  Spans nest through one stack: a wrapper adds its elapsed
time to the enclosing span's child total, so a layer's self time never
double counts the layers it calls.

Entry points are resolved by name when tracing starts.  One that no
longer exists (a later refactor renamed it) is reported, and a layer
whose entry points are all gone reads as ``unmeasured`` rather than
crashing the benchmark.

``sim.engine`` is special: its span is ``ScenarioContext.run`` (the
packet engine's whole simulation loop), so its self time is the loop
itself plus any per-event work no other layer claims.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Tuple

#: Packet-engine layers, each with the (module, class, method) entry
#: points its span covers.  A ``*`` before the class name wraps the
#: method on every subclass that defines it (the schedulers).
PACKET_LAYERS: Dict[str, Tuple[str, ...]] = {
    "net.host": ("repro.net.node:Host.send", "repro.net.node:Host.receive"),
    "net.switch": ("repro.net.node:Switch.receive",),
    "net.port": (
        "repro.net.port:OutputPort.enqueue",
        "repro.net.port:OutputPort._send_next",
        "repro.net.port:OutputPort._drain_burst",
    ),
    "sched": (
        "repro.sched.base:*Scheduler.enqueue",
        "repro.sched.base:*Scheduler.dequeue",
        "repro.sched.base:*Scheduler.peek_next",
    ),
    "net.link": (
        "repro.net.link:Link.transmit",
        "repro.net.link:Link._complete",
        "repro.net.link:Link.serve_inline",
    ),
    "traffic.source": ("repro.traffic.source:PacketSource.emit",),
    "traffic.shaper": ("repro.traffic.token_bucket:TokenBucketFilter.check",),
    "traffic.sink": ("repro.traffic.sink:DelayRecordingSink.on_packet",),
    "core.admission": (
        "repro.core.measurement:SwitchMeasurement._on_depart",
        "repro.core.measurement:SwitchMeasurement.realtime_utilization_bps",
        "repro.core.measurement:SwitchMeasurement.class_delay_bound",
        "repro.core.admission:AdmissionController.check_predicted",
        "repro.core.admission:AdmissionController.check_guaranteed",
    ),
    "transport.tcp": (
        "repro.transport.tcp:TcpConnection.start",
        "repro.transport.tcp:TcpConnection._on_ack",
        "repro.transport.tcp:TcpConnection._on_data",
        "repro.transport.tcp:TcpConnection._on_rto",
    ),
    "control": (
        "repro.control.controller:LinkStateController.fail_link",
        "repro.control.controller:LinkStateController.restore_link",
    ),
    # The audit's per-port listeners are closures; the tracer wraps them
    # as SimulationAudit attaches them (see _wrap_audit_listeners).
    "validate": (
        "repro.validate.invariants:check_invariants",
        "repro.validate.audit:SimulationAudit.__init__",
        "repro.validate.audit:SimulationAudit.delivery_counter",
    ),
    "sim.engine": ("repro.scenario.runner:ScenarioContext.run",),
}

#: Fluid-kernel layers (the numpy backend's fused kernel).
FLUID_LAYERS: Dict[str, Tuple[str, ...]] = {
    "fluid.arrivals": ("repro.fluid.kernel:FluidKernel._on_block",),
    "fluid.closed_form": (
        "repro.fluid.kernel:FluidKernel._accumulate_uncongested",
    ),
    "fluid.epoch_solve": ("repro.fluid.kernel:FluidKernel._single_epoch",),
    "fluid.waterfill": ("repro.fluid.kernel:FluidKernel._waterfill",),
    "fluid.fast_forward": ("repro.fluid.kernel:FluidKernel._replay",),
    "net.fabric.ecmp_path": ("repro.net.fabric:EcmpPaths.path",),
}

LAYERS: Dict[str, Tuple[str, ...]] = {**PACKET_LAYERS, **FLUID_LAYERS}

#: Where the tracer reads per-run counters: the collect step of each
#: engine, which sees the finished simulation.
COLLECT_HOOKS = (
    "repro.scenario.runner:ScenarioContext.collect",
    "repro.fluid.model:FluidSimulation.collect",
)


def _resolve(target: str) -> List[Tuple[object, str]]:
    """``module:Class.method`` -> [(owner, attribute)].

    A module-level function resolves with the module as owner.  Raises
    ImportError / AttributeError when the entry point no longer exists.
    """
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    if "." not in path:
        getattr(module, path)
        return [(module, path)]
    class_name, method = path.split(".")
    every_subclass = class_name.startswith("*")
    cls = getattr(module, class_name.lstrip("*"))
    if not every_subclass:
        if method not in vars(cls):
            raise AttributeError(f"{cls.__name__} has no {method!r}")
        return [(cls, method)]
    # Import the whole package so every subclass is registered.
    package = module_name.rpartition(".")[0]
    importlib.import_module(package)
    found, pending = [], [cls]
    while pending:
        klass = pending.pop()
        pending.extend(klass.__subclasses__())
        if method in vars(klass):
            found.append((klass, method))
    if not found:
        raise AttributeError(f"no {cls.__name__} subclass defines {method!r}")
    return found


def resolve_all() -> Dict[str, List[str]]:
    """Entry points that fail to resolve, per layer (empty when all do)."""
    tracer = Tracer().install()
    tracer.uninstall()
    return tracer.missing


class Tracer:
    """Install span wrappers, accumulate per-layer self time and calls,
    and restore the original methods on :meth:`uninstall`."""

    def __init__(
        self, layers: Dict[str, Tuple[str, ...]] = LAYERS, counters: bool = True
    ):
        self.layers = layers
        self.counters = counters
        self.self_s: Dict[str, float] = {name: 0.0 for name in layers}
        self.calls: Dict[str, int] = {name: 0 for name in layers}
        self.missing: Dict[str, List[str]] = {}
        #: Called with each finished packet context / fluid simulation.
        self.on_collect: List[Callable[[object], None]] = []
        self._stack: List[float] = [0.0]  # child time of each open span
        self._saved: List[Tuple[object, str, object]] = []

    # -- install / uninstall -------------------------------------------
    def install(self) -> "Tracer":
        for layer, targets in self.layers.items():
            for target in targets:
                try:
                    resolved = _resolve(target)
                except (ImportError, AttributeError):
                    self.missing.setdefault(layer, []).append(target)
                    continue
                for owner, attr in resolved:
                    self._patch(owner, attr, self._span(layer, getattr(owner, attr)))
        for target in COLLECT_HOOKS if self.counters else ():
            try:
                ((owner, attr),) = _resolve(target)
            except (ImportError, AttributeError):
                self.missing.setdefault("counters", []).append(target)
                continue
            self._patch(owner, attr, self._collect_hook(getattr(owner, attr)))
        self._wrap_audit_listeners()
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def unmeasured(self) -> List[str]:
        """Layers none of whose entry points resolved."""
        return sorted(
            layer for layer, targets in self.layers.items()
            if len(self.missing.get(layer, ())) == len(targets)
        )

    # -- wrappers --------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _span(self, layer: str, fn):
        stack = self._stack
        self_s, calls = self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                stack[-1] += elapsed

        return span

    def _collect_hook(self, fn):
        hooks = self.on_collect

        @functools.wraps(fn)
        def collect(obj, *args, **kwargs):
            for hook in hooks:
                hook(obj)
            return fn(obj, *args, **kwargs)

        return collect

    def _wrap_audit_listeners(self) -> None:
        """The audit taps every port (and counts deliveries) through
        closures it creates; wrap those as the audit hands them out."""
        if "validate" not in self.layers:
            return
        try:
            from repro.validate.audit import SimulationAudit
        except ImportError:
            return
        wrap = functools.partial(self._span, "validate")
        init = SimulationAudit.__init__  # already the validate span

        @functools.wraps(init)
        def audited_init(audit, *args, **kwargs):
            init(audit, *args, **kwargs)
            ports = getattr(getattr(audit, "net", None), "ports", {})
            for port in ports.values():
                for listeners in (port.on_enqueue, port.on_depart, port.on_drop):
                    for i, listener in enumerate(listeners):
                        if getattr(listener, "__qualname__", "").startswith(
                            "SimulationAudit."
                        ):
                            listeners[i] = wrap(listener)

        self._patch(SimulationAudit, "__init__", audited_init)
        counter = vars(SimulationAudit).get("delivery_counter")
        if counter is not None:

            @functools.wraps(counter)
            def delivery_counter(*args, **kwargs):
                return wrap(counter(*args, **kwargs))

            self._patch(SimulationAudit, "delivery_counter", delivery_counter)
