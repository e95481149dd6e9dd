"""mvnewton benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The workloads (``sweep``, ``lagrange``, ``cli``) are defined in
``workloads.py``.  With ``--trace 0`` the metrics are end to end: medians
of the timed repetitions (``wall_s``, ``cpu_s``), the set-up time
(``setup_s``: import plus one tiny warm-up pass of every operation,
measured in this process and in fresh child processes) and the peak
resident memory.  With ``--trace 1`` half the time runs untraced and half
with every layer wrapped (``tracer.py``), and the metrics are per layer.
``--workload all`` runs each workload in a fresh process and prints one
table.  The last line of standard output is the result as JSON; the line
before it is the run record (environment, sizes, output digests, rates and
Lebesgue values).  A missing ``src/mvnewton`` is an error (exit 2).

Only the standard library is imported at module level: numpy and mvnewton
are imported inside the timed set-up.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import importlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("sweep", "lagrange", "cli")
# set-up is measured here and in this many fresh child processes
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for checking the harness")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_package(workload: str) -> float:
    """Import mvnewton from this checkout's ``src``; returns the seconds."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    module = importlib.import_module("mvnewton.cli" if workload == "cli" else "mvnewton")
    elapsed = time.perf_counter() - start
    if not Path(module.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: mvnewton was imported from {module.__file__}, not {SRC}")
    return elapsed


def _warm_up(workload: str) -> float:
    """One tiny pass of every operation of the workload; returns the seconds.

    Its inputs are fixed (seed 0), so set-up cannot depend on the run's seed.
    """
    from workloads import WORKLOADS

    tiny = WORKLOADS[workload](0, "tiny", ROOT)
    try:
        start = time.perf_counter()
        for op in tiny.ops:
            op.run()
        return time.perf_counter() - start
    finally:
        tiny.close()


def _probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _git_sha() -> str | None:
    """The commit of the checkout, if it is a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas() -> dict:
    """OpenBLAS version and the thread count in effect, read from the
    library numpy loaded."""
    import ctypes

    import numpy as np

    info = {"config": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, AttributeError):
        pass
    # numpy's wheels bundle scipy-openblas with 64-bit-integer symbol names
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in glob.glob(str(libs / "libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(path)
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
        info["threads"] = lib.scipy_openblas_get_num_threads64_()
        info["config"] = lib.scipy_openblas_get_config64_().decode()
    return info


def _environment(seed: int) -> dict:
    import numpy as np

    src = hashlib.sha256()
    for path in sorted((SRC / "mvnewton").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def _run_one(args) -> int:
    setup = [_import_package(args.workload) + _warm_up(args.workload)]
    if args.setup_probe:
        print(setup[0])
        return 0
    setup += [_probe_setup(args) for _ in range(SETUP_PROBES)]

    import harness
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.scale, ROOT)
    tally = harness.Tally()
    try:
        if args.trace:
            walls, cpus, peak_rss_mb = harness.measure(workload.ops, args.seconds / 2, tally)
            tracer = Tracer()
            traced, _, _ = harness.measure(workload.ops, args.seconds / 2, tally, tracer)
        else:
            walls, cpus, peak_rss_mb = harness.measure(workload.ops, args.seconds, tally)
    finally:
        workload.close()

    wall, cpu, setup_s = (harness.summary(v) for v in (walls, cpus, setup))
    if args.trace:
        metrics = tracer.layer_metrics(len(traced), sum(traced))
        metrics["trace_overhead"] = harness.summary(traced)["median"] / wall["median"] - 1.0
        units = {k: _layer_unit(k) for k in metrics}
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps(tracer.spans_json()))
    else:
        metrics = {
            "wall_s": wall["median"],
            "cpu_s": cpu["median"],
            "setup_s": setup_s["median"],
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    print(f"# workload={args.workload} seed={args.seed} scale={args.scale} trace={args.trace}")
    for name, stats in (("wall_s", wall), ("cpu_s", cpu), ("setup_s", setup_s)):
        print(f"# {name:12s} median {stats['median']:.4f} s  "
              f"q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}  n={stats['n']}")
    print(f"# peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"# fail_ratio   {tally.failed}/{tally.attempted} = {tally.fail_ratio:g}")
    for failure in tally.failures[:20]:
        print(f"# FAILED {failure}")
    record = {
        "environment": _environment(args.seed),
        "workload": args.workload,
        "scale": args.scale,
        "timings": {"wall_s": wall, "cpu_s": cpu, "setup_s": setup_s},
        "fail_ratio": tally.fail_ratio,
        "ops": {
            op.name: {**op.sizes, "outputs": tally.fingerprints.get(op.name)}
            for op in workload.ops
        },
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    return {
        "self_s": "s",
        "share": "ratio",
        "terms_per_s": "1/s",
        "bytes": "B",
        "matrix_bytes": "B",
        "f_calls": "calls/call",
        "trace_overhead": "ratio",
    }.get(suffix, "count")


def _run_all(args) -> int:
    """Each workload in a fresh process; one table of the metrics."""
    metrics, attempted, failed = {}, 0, 0
    print(f"{'workload':10s} {'wall_s':>9s} {'cpu_s':>9s} {'setup_s':>9s} "
          f"{'peak_rss_mb':>12s} {'fail_ratio':>11s}")
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        got = result["metrics"]
        for key, value in got.items():
            metrics[f"{name}.{key}"] = value
        if not args.trace:
            ratio = result["failed"] / result["attempted"]
            print(f"{name:10s} {got['wall_s']['value']:8.3f}s {got['cpu_s']['value']:8.3f}s "
                  f"{got['setup_s']['value']:8.3f}s {got['peak_rss_mb']['value']:9.1f} MB "
                  f"{ratio:11.4f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "mvnewton" / "__init__.py").is_file():
        print(f"perfbench: no mvnewton package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
