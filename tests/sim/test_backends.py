"""Backend selection: factory routing, backend_info, pure-Python forcing.

The ``Simulator`` factory picks the compiled core when
``repro.sim._engine_c`` is importable, and the authoritative
``PySimulator`` otherwise.  ``REPRO_PURE_PYTHON=1`` (import-time) forces
pure Python.  The compiled core must mirror the Python engine's public
surface — including validation errors and handle semantics.
"""

import math
import os
import pathlib
import subprocess
import sys

import pytest

from repro.sim import (
    EventHandle,
    PySimulator,
    SimulationError,
    Simulator,
    backend_info,
)

INFO = backend_info()


class TestBackendInfo:
    def test_report_shape(self):
        assert INFO["engine"] in ("compiled-c", "pure-python")
        assert isinstance(INFO["compiled_available"], bool)
        assert INFO["pure_python_forced"] in (True, False)
        assert set(INFO) == {
            "engine", "compiled_available", "compiled_module",
            "pure_python_forced",
        }

    def test_engine_matches_availability(self):
        assert INFO["engine"] == (
            "compiled-c" if INFO["compiled_available"] else "pure-python"
        )

    @staticmethod
    def run_fresh(code, pure_python):
        """Run ``code`` in a new interpreter with ``REPRO_PURE_PYTHON``
        set, since the switch is read once at import."""
        repo_root = pathlib.Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src")
        env["REPRO_PURE_PYTHON"] = pure_python
        return subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(repo_root),
        )

    def test_pure_python_env_forces_py_engine(self):
        """In a fresh process with REPRO_PURE_PYTHON=1, the factory must
        return PySimulator even when the compiled core is built."""
        code = (
            "from repro.sim import Simulator, PySimulator, backend_info\n"
            "info = backend_info()\n"
            "assert info['engine'] == 'pure-python', info\n"
            "assert info['pure_python_forced'] is True, info\n"
            "assert isinstance(Simulator(), PySimulator)\n"
            "print('ok')\n"
        )
        result = self.run_fresh(code, "1")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"

    def test_pure_python_off_does_not_force(self):
        """``off`` is a false flag: the process keeps whichever engine
        is available."""
        code = (
            "from repro.sim import backend_info\n"
            "info = backend_info()\n"
            "assert info['pure_python_forced'] is False, info\n"
            "assert info['engine'] == ('compiled-c' if "
            "info['compiled_available'] else 'pure-python'), info\n"
            "print('ok')\n"
        )
        result = self.run_fresh(code, "off")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"

    def test_pure_python_garbage_fails_naming_the_variable(self):
        result = self.run_fresh("import repro.sim\n", "garbage")
        assert result.returncode != 0
        assert "ValueError" in result.stderr
        assert "REPRO_PURE_PYTHON='garbage'" in result.stderr


@pytest.mark.skipif(
    not INFO["compiled_available"], reason="compiled core not built"
)
class TestCompiledCoreContract:
    """The compiled engine's public surface mirrors PySimulator exactly."""

    def make(self):
        sim = Simulator()
        assert type(sim).__name__ == "CSimulator"
        return sim

    def test_validation_errors_are_simulation_errors(self):
        sim = self.make()
        with pytest.raises(SimulationError, match="finite and non-negative"):
            sim.schedule(-1.0, lambda: None)
        with pytest.raises(SimulationError, match="finite and non-negative"):
            sim.schedule(math.nan, lambda: None)
        with pytest.raises(SimulationError, match="finite and non-negative"):
            sim.schedule(math.inf, lambda: None)
        sim2 = Simulator(start_time=10.0)
        with pytest.raises(SimulationError, match="cannot schedule at"):
            sim2.schedule_at(9.0, lambda: None)

    def test_handles_are_canonical_event_handles(self):
        sim = self.make()
        handle = sim.schedule_handle(1.0, lambda: None)
        assert isinstance(handle, EventHandle)
        assert handle.active
        assert handle.time == 1.0
        handle.cancel()
        assert not handle.active
        assert sim.cancelled_pending == 1

    def test_run_until_and_clock_parking(self):
        sim = self.make()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1.0))
        sim.schedule(3.0, lambda: fired.append(3.0))
        assert sim.run(until=2.0) == 2.0
        assert fired == [1.0]
        assert sim.now == 2.0
        assert sim.run(until=3.0) == 3.0  # event exactly at `until` fires
        assert fired == [1.0, 3.0]

    def test_run_is_not_reentrant(self):
        sim = self.make()
        failure = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                failure.append(str(exc))

        sim.schedule(0.0, reenter)
        sim.run_until_idle()
        assert failure == ["run() is not reentrant"]

    def test_horizon_visible_during_run(self):
        sim = self.make()
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim.horizon))
        sim.run(until=5.0)
        assert seen == [5.0]
        assert sim.horizon == math.inf

    def test_peek_next_time_and_advance_to(self):
        sim = self.make()
        assert sim.peek_next_time() == math.inf
        sim.schedule(2.0, lambda: None)
        dead = sim.schedule_handle(1.0, lambda: None)
        dead.cancel()
        assert sim.peek_next_time() == 2.0  # dead head popped on the way
        before = sim.events_processed
        sim.advance_to(1.5)
        assert sim.now == 1.5
        # The jump stands in for exactly one elided event.
        assert sim.events_processed == before + 1

    def test_exception_propagates_and_engine_reusable(self):
        sim = self.make()

        def boom():
            raise ValueError("boom")

        sim.schedule(1.0, boom)
        sim.schedule(2.0, lambda: None)
        with pytest.raises(ValueError, match="boom"):
            sim.run()
        assert sim.now == 1.0
        assert sim.horizon == math.inf
        sim.run_until_idle()  # reusable after the failure
        assert sim.now == 2.0

    def test_same_time_priority_and_fifo_order(self):
        sim = self.make()
        fired = []
        sim.schedule(1.0, lambda: fired.append("late"), priority=5)
        sim.schedule(1.0, lambda: fired.append("early"), priority=-5)
        sim.schedule(1.0, lambda: fired.append("mid-a"))
        sim.schedule(1.0, lambda: fired.append("mid-b"))
        sim.run_until_idle()
        assert fired == ["early", "mid-a", "mid-b", "late"]

    def test_nested_step_counts_once_each(self):
        sim = self.make()
        fired = []
        sim.schedule(2.0, lambda: fired.append("inner"))

        def outer():
            fired.append("outer")
            sim.step()

        sim.schedule(1.0, outer)
        sim.run_until_idle()
        assert fired == ["outer", "inner"]
        assert sim.events_processed == 2
