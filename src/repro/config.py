"""The library's environment switches, parsed in one place.

Five ``REPRO_*`` variables pick an engine, a backend or a hot-path
mechanic.  None of them changes a result: every setting must reproduce
the same goldens.  This module is the only one in the package that reads
the process environment; it imports nothing but :mod:`os`, so any layer
can use it.  Each switch is read when its consumer asks:

* ``REPRO_PURE_PYTHON`` (flag, default off), once when :mod:`repro.sim`
  is imported: use the pure-Python packet engine even if the compiled
  core is built.
* ``REPRO_BATCHED_LINKS`` (flag, default on), at each output port's
  construction: batched link service; off serves one completion event
  per packet.
* ``REPRO_ENGINE`` (``packet`` | ``fluid``), at each run: overrides
  ``ScenarioSpec.engine``.
* ``REPRO_FLUID_BACKEND`` (``auto`` | ``numpy`` | ``pure``), in
  ``FluidOptions.from_env()``: the fluid backend.
* ``REPRO_FLUID_EPOCH`` (seconds, finite and > 0), in
  ``FluidOptions.from_env()``: a fixed fluid epoch length.

A flag accepts ``1/true/yes/on`` and ``0/false/no/off`` (any case).  For
every switch, unset or empty means the default.  Any other value raises
``ValueError`` naming the variable and the values it accepts.
"""

import os

TRUE_WORDS = ("1", "true", "yes", "on")
FALSE_WORDS = ("0", "false", "no", "off")
ENGINE_KINDS = ("packet", "fluid")
FLUID_BACKENDS = ("auto", "numpy", "pure")


def _read(name: str) -> str:
    """The switch's value, stripped and lower-cased ("" when unset)."""
    return os.environ.get(name, "").strip().lower()


def _invalid(name: str, value: str, accepted: str) -> ValueError:
    return ValueError(
        f"{name}={value!r} is not valid; expected {accepted} (or unset)"
    )


def _flag(name: str, default: bool) -> bool:
    value = _read(name)
    if not value:
        return default
    if value in TRUE_WORDS:
        return True
    if value in FALSE_WORDS:
        return False
    raise _invalid(
        name, value, "/".join(TRUE_WORDS) + " or " + "/".join(FALSE_WORDS)
    )


def _choice(name: str, choices: tuple) -> str | None:
    value = _read(name)
    if value and value not in choices:
        raise _invalid(name, value, " | ".join(choices))
    return value or None


def pure_python() -> bool:
    """``REPRO_PURE_PYTHON``: force the pure-Python packet engine."""
    return _flag("REPRO_PURE_PYTHON", False)


def batched_links() -> bool:
    """``REPRO_BATCHED_LINKS``: serve link bursts inside one event."""
    return _flag("REPRO_BATCHED_LINKS", True)


def engine() -> str | None:
    """``REPRO_ENGINE``: the engine override, or None to follow the spec."""
    return _choice("REPRO_ENGINE", ENGINE_KINDS)


def fluid_backend() -> str | None:
    """``REPRO_FLUID_BACKEND``: the fluid backend, or None for the default."""
    return _choice("REPRO_FLUID_BACKEND", FLUID_BACKENDS)


def fluid_epoch() -> float | None:
    """``REPRO_FLUID_EPOCH``: a fixed epoch in seconds, or None for auto."""
    value = _read("REPRO_FLUID_EPOCH")
    if not value:
        return None
    try:
        seconds = float(value)
    except ValueError:
        seconds = float("nan")
    if not 0.0 < seconds < float("inf"):
        raise _invalid(
            "REPRO_FLUID_EPOCH", value, "a finite number of seconds > 0"
        )
    return seconds
