"""Compare saved outputs of ``run.py`` for two versions of the program.

    python3 perfbench/compare.py --before a1.txt a2.txt --after b1.txt b2.txt

Each file is the standard output of one ``run.py`` invocation.  Prints
each metric's median on both sides and their ratio.  Outputs produced
on different backends (packet engine core, fluid backend, or any
``REPRO_*`` switch) are not a speed comparison: the script says so and
exits 2 instead of printing ratios.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Tuple


def read_output(path: str) -> Tuple[Dict, Dict]:
    """(environment, result) of one saved run."""
    with open(path) as handle:
        lines = handle.read().strip().splitlines()
    env = next(
        (json.loads(line[4:]) for line in lines if line.startswith("env ")),
        None,
    )
    if env is None or not lines:
        raise ValueError(f"{path}: not a perfbench output")
    return env, json.loads(lines[-1])


def backend(env: Dict) -> Dict:
    """The part of the environment that changes what code runs."""
    return {
        "packet_engine": env["packet_backend"]["engine"],
        "fluid_backend": env["fluid_backend"],
        "repro_env": env["repro_env"],
    }


def _medians(results: List[Dict]) -> Dict[str, Tuple[float, str]]:
    values: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    for result in results:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    return {name: (statistics.median(v), units[name]) for name, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--before", nargs="+", required=True)
    parser.add_argument("--after", nargs="+", required=True)
    args = parser.parse_args(argv)
    before = [read_output(p) for p in args.before]
    after = [read_output(p) for p in args.after]
    backends = {json.dumps(backend(env), sort_keys=True)
                for env, _ in before + after}
    if len(backends) > 1:
        print("backend mismatch: these outputs ran different code paths, "
              "so their difference is not a speed change:")
        for line in sorted(backends):
            print(f"  {line}")
        return 2
    if any(not r["correct"] for _, r in before + after):
        print("note: some runs failed their correctness checks")
    old, new = _medians([r for _, r in before]), _medians([r for _, r in after])
    print(f"{'metric':<36} {'before':>14} {'after':>14} {'after/before':>13}")
    for name in sorted(set(old) | set(new)):
        a, unit = old.get(name, (float("nan"), ""))
        b, unit = new.get(name, (float("nan"), unit))
        ratio = b / a if a else float("nan")
        print(f"{name:<36} {a:>14.6g} {b:>14.6g} {ratio:>13.3f} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
