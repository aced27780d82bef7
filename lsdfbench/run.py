"""linksdf benchmark: cycle latency, replan latency and memory per workload.

Run from the root of a linksdf source tree:

    python3 lsdfbench/run.py --workload stream --seed 1 --seconds 18 --trace 0

It imports linksdf from ``src/`` of the current directory, never from an
installed copy, and exits with a non-zero status when that tree is missing.
Human-readable lines come first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See DESIGN.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import sys

import numpy as np

import inputs


def import_linksdf(root: str):
    """Put ``<root>/src`` first on the path and import linksdf from it."""
    src = os.path.abspath(os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(src, "linksdf", "__init__.py")):
        raise SystemExit(f"error: no linksdf source tree under {src}")
    sys.path.insert(0, src)
    import linksdf

    if not os.path.abspath(linksdf.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: linksdf imported from {linksdf.__file__}, not {src}")
    return linksdf


def _blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, when it exposes one."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        llc = int(ctypes.CDLL(None).sysconf(194))  # glibc _SC_LEVEL3_CACHE_SIZE
    except (OSError, AttributeError):
        llc = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "llc_bytes": llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    import_linksdf(os.getcwd())
    import measure
    import report

    spec = inputs.WORKLOADS[args.workload]

    run = measure.Workload(spec, args.seed, bool(args.trace)).execute(args.seconds)
    rows = report.per_layer(run, spec) if args.trace else report.end_to_end(run)

    frames = list(run.frame_counts.values())
    n_points = sum(f[0] for f in frames)
    facts = machine_facts()
    facts.update(workload=spec.name, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("machine", json.dumps(facts))
    print("inputs", json.dumps({
        "configs": spec.n_configs,
        "frames": len(frames),
        "points_per_frame": n_points / len(frames),
        "occupied_voxels_per_frame": sum(f[2] for f in frames) / len(frames),
        "dropped_share": sum(f[1] for f in frames) / n_points,
        "live_voxel_fraction": run.live_fraction,
        "batch_mib": run.batch_bytes / 2**20,
    }))
    for name, value, unit, note in rows:
        print(f"{name:32s} {value:14.6g} {unit:6s} {note}")
    print(
        f"{'oracle':32s} {run.cycles_checked} cycles, {run.violations} of "
        f"{run.distances_checked} distances over budget, worst excess over the budget "
        f"{100 * run.worst_excess_m:+.2f} cm"
    )
    for error in run.errors:
        print("FAILED", error)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
