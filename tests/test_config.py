"""Environment switches: one parser, one truth table.

Every ``REPRO_*`` switch is parsed by :mod:`repro.config`.  The truth
table crosses each of the five switches with the same eleven raw values
and reads the switch where the library reads it (port construction,
``FluidOptions.from_env``, ``effective_engine``), so a second parser
anywhere would show up as a wrong cell.  ``REPRO_PURE_PYTHON`` is read
once at import, so its table reads :func:`repro.config.pure_python`; the
fresh-process tests in ``tests/sim/test_backends.py`` cover the import.
"""

import pathlib
import re

import pytest

from repro import config
from repro.fluid import FluidOptions, effective_engine
from repro.net.link import Link
from repro.net.port import OutputPort
from repro.scenario import registry
from repro.sched.fifo import FifoScheduler
from repro.sim import Simulator

UNSET = None
RAW_VALUES = [
    UNSET, "", "0", "1", "off", "on", "false", "true", "no", "yes", "garbage",
]
REJECT = ValueError


def batching_enabled():
    sim = Simulator()
    link = Link(sim, "L", rate_bps=1000.0)
    return OutputPort(sim, "P", FifoScheduler(), link).batching_enabled


def engine_of_fluid_spec():
    return effective_engine(
        registry.build("gen:fat-tree", gen_seed=1, num_flows=64)
    )


def flag(default):
    table = {value: REJECT for value in RAW_VALUES}
    table.update({UNSET: default, "": default})
    table.update(dict.fromkeys(config.TRUE_WORDS, True))
    table.update(dict.fromkeys(config.FALSE_WORDS, False))
    return table


def choice(default, **valid):
    table = {value: REJECT for value in RAW_VALUES}
    table.update({UNSET: default, "": default})
    table.update(valid)
    return table


# variable -> (reader, {raw value: expected reading or REJECT}).  The
# extra valid values beyond RAW_VALUES pin the overrides themselves.
SWITCHES = {
    "REPRO_PURE_PYTHON": (config.pure_python, flag(False)),
    "REPRO_BATCHED_LINKS": (batching_enabled, flag(True)),
    "REPRO_ENGINE": (
        engine_of_fluid_spec,
        choice("fluid", packet="packet", fluid="fluid", PACKET="packet"),
    ),
    "REPRO_FLUID_BACKEND": (
        lambda: FluidOptions.from_env().backend,
        choice("auto", pure="pure", numpy="numpy", auto="auto"),
    ),
    "REPRO_FLUID_EPOCH": (
        lambda: FluidOptions.from_env().epoch_seconds,
        {
            **choice(None, **{"0.25": 0.25, "1": 1.0}),
            "-1": REJECT,
            "nan": REJECT,
            "inf": REJECT,
        },
    ),
}

CASES = [
    pytest.param(name, raw, expected, id=f"{name}-{raw}")
    for name, (_, table) in SWITCHES.items()
    for raw, expected in table.items()
]


class TestSwitchTruthTable:
    @pytest.mark.parametrize("name, raw, expected", CASES)
    def test_switch(self, monkeypatch, name, raw, expected):
        for other in SWITCHES:
            monkeypatch.delenv(other, raising=False)
        if raw is not UNSET:
            monkeypatch.setenv(name, raw)
        read = SWITCHES[name][0]
        if expected is REJECT:
            with pytest.raises(ValueError) as excinfo:
                read()
            message = str(excinfo.value)
            assert name in message
            assert "expected" in message
        else:
            assert read() == expected

    def test_explicit_fluid_options_beat_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLUID_EPOCH", "0.25")
        monkeypatch.setenv("REPRO_FLUID_BACKEND", "pure")
        options = FluidOptions.from_env(epoch_seconds=0.5, backend="numpy")
        assert (options.epoch_seconds, options.backend) == (0.5, "numpy")


def test_only_config_reads_the_environment():
    """``os.environ`` / ``os.getenv`` appear in ``repro/config.py`` and
    nowhere else under ``src/repro``."""
    package = pathlib.Path(config.__file__).resolve().parent
    pattern = re.compile(r"os\.(environ|getenv)\b")
    offenders = sorted(
        str(path.relative_to(package.parent))
        for path in package.rglob("*.py")
        if path.name != "config.py" or path.parent != package
        if pattern.search(path.read_text(encoding="utf-8"))
    )
    assert offenders == []
