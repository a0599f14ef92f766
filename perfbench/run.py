"""Benchmark of vwsim's user-visible paths, with a traced per-layer run.

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else:

    python3 perfbench/run.py --workload pairs --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke            # every workload, both modes, tiny sizes

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``). The lines before it
are a readable report: the environment, then each metric with its unit and
sample count. Results and spans are also written under ``.perfbench_out/``.
See ``perfbench/README.md`` for the workloads and the metric mapping.
"""

from __future__ import annotations

import os

LOADAVG_START = os.getloadavg()
# One BLAS thread, set before numpy loads: with two, on a shared 2-CPU host
# the retrieval corpus index build took 25 ms in some periods and 60 ms in
# others, which the single-threaded host-speed kernel does not see.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path; refuse any other vwsim."""
    src = ROOT / "src"
    if not (src / "vwsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no vwsim package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import vwsim

    if Path(vwsim.__file__).resolve().parent != (src / "vwsim").resolve():
        sys.exit(f"perfbench: imported vwsim from {vwsim.__file__}, not from {src}")


def _fmt(value: float) -> str:
    return f"{value:.6g}" if abs(value) < 1e6 else f"{value:.0f}"


def run_one(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    from harness import HostSpeed, environment, peak_rss_mb
    from workloads import (END_TO_END_UNITS, FULL, SMOKE, WORKLOADS, Context,
                           per_layer_units)

    env = environment(LOADAVG_START)
    tag = f"{workload}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    workdir = OUT_DIR / f"work-{os.getpid()}-{tag}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = Context(seed=seed, seconds=seconds, trace=trace,
                      sizes=SMOKE if smoke else FULL, workdir=workdir)
        outcome = WORKLOADS[workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rss = peak_rss_mb()
    outcome.named["peak_rss_mb"] = (rss, "MB", 1)
    outcome.end_to_end["peak_rss_mb"] = (rss, 1)
    outcome.named["error_rate"] = (outcome.failed / max(outcome.attempted, 1), "ratio",
                                   outcome.attempted)
    host_s = ctx.host.median_s()

    print(f"perfbench workload={workload} seed={seed} seconds={seconds} trace={int(trace)}"
          f" sizes={'smoke' if smoke else 'full'}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"host-speed kernel median {host_s * 1e6:.1f} us (nominal"
          f" {HostSpeed.NOMINAL_S * 1e6:.0f} us); end-to-end times below are scaled to nominal")
    for name, unit in END_TO_END_UNITS.items():
        value, n = outcome.end_to_end[name]
        print(f"  {name:<28} {_fmt(value):>14} {unit:<6} n={n}")
    print("raw wall times, by operation:")
    for name, (value, unit, n) in outcome.named.items():
        print(f"  {name:<28} {_fmt(value):>14} {unit:<6} n={n}")
    if trace:
        units = per_layer_units()
        metrics = {name: {"value": outcome.layers[name], "unit": unit}
                   for name, unit in units.items()}
        print("per-layer (traced run; 0 where this workload never calls the layer):")
        for name, unit in units.items():
            print(f"  {name:<32} {_fmt(outcome.layers[name]):>14} {unit}")
    else:
        metrics = {name: {"value": outcome.end_to_end[name][0], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    for failure in outcome.failures:
        print(f"FAILED: {failure}")

    result = {"correct": outcome.failed == 0, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    record = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  smoke=smoke, environment=env, host_kernel_s=host_s, failures=outcome.failures,
                  end_to_end={name: {"value": v, "unit": END_TO_END_UNITS[name], "samples": n}
                              for name, (v, n) in outcome.end_to_end.items()},
                  raw={name: {"value": v, "unit": u, "samples": n}
                       for name, (v, u, n) in outcome.named.items()})
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if outcome.tracer is not None:
        outcome.tracer.write(OUT_DIR / f"spans-{tag}.csv.gz")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("pairs", "retrieval", "index"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; without --workload, runs every workload in both modes")
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required (or pass --smoke)")
    _import_program()

    workloads = (args.workload,) if args.workload else ("pairs", "retrieval", "index")
    traces = (args.trace,) if args.workload or not args.smoke else (0, 1)
    seconds = args.seconds if args.seconds is not None else (0.5 if args.smoke else 30.0)
    results = [run_one(w, args.seed, seconds, bool(t), args.smoke)
               for w in workloads for t in traces]
    # The last line is the machine-readable result of the last run. A single
    # run reports a failed check in its result; a smoke sweep in its status.
    for result in results:
        print(json.dumps(result))
    return 1 if len(results) > 1 and not all(r["correct"] for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
