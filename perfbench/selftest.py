"""Self-test of the benchmark harness, at tiny sizes.

    python3 perfbench/selftest.py            # about half a minute
    python3 perfbench/selftest.py --full     # also the determinism check at full size

It shows that

1. every workload passes its checks as it stands (fail_ratio 0);
2. every check is not vacuous: each deliberately wrong result listed in an
   op's ``mutations`` is caught (fail_ratio > 0), and so is an evaluator
   that disagrees with ``eval_recursive``;
3. a repetition whose outputs differ from the first one's fails;
4. two runs with the same seed print identical output digests, fitted
   rates and Lebesgue values;
5. without ``src/mvnewton`` the benchmark exits nonzero and prints no result.

Exits 0 when all hold, 1 otherwise.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import mvnewton  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


def one_rep(ops) -> harness.Tally:
    tally = harness.Tally()
    _, _, results = harness.run_rep(ops)
    harness.check_rep(ops, results, tally)
    return tally


def mutated(op, mutate):
    return dataclasses.replace(op, run=lambda: mutate(op.run()))


@contextmanager
def patched(owner, name, value):
    original = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


def check_workloads() -> None:
    for name, build in WORKLOADS.items():
        workload = build(SEED, "tiny", ROOT)
        try:
            tally = one_rep(workload.ops)
            expect(tally.failed == 0, f"{name}: unmodified run passes {tally.failures}")
            for i, op in enumerate(workload.ops):
                for label, mutate in op.mutations.items():
                    ops = list(workload.ops)
                    ops[i] = mutated(op, mutate)
                    tally = one_rep(ops)
                    caught = any(f.startswith(op.name + ":") for f in tally.failures)
                    expect(caught and tally.fail_ratio > 0,
                           f"{name}.{op.name}: wrong {label} is caught")
            tally = harness.Tally(fingerprints={op.name: {"other": 1} for op in workload.ops})
            _, _, results = harness.run_rep(workload.ops)
            harness.check_rep(workload.ops, results, tally)
            expect(tally.failed == len(workload.ops),
                   f"{name}: outputs that differ between repetitions fail")
        finally:
            workload.close()


def check_evaluator_fault() -> None:
    workload = WORKLOADS["sweep"](SEED, "tiny", ROOT)
    original = mvnewton.eval_recursive
    with patched(mvnewton, "eval_recursive", lambda poly, x: original(poly, x) + 1e-10):
        tally = one_rep(workload.ops)
    caught = any(f.startswith("convergence_values:") for f in tally.failures)
    expect(caught, "sweep: eval_recursive/eval_iterative disagreement is caught")


def run_bench(root: Path, workload: str, scale: str):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", "0", "--scale", scale]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=root)


def outputs(stdout: str) -> dict:
    record = json.loads(stdout.strip().splitlines()[-2])["record"]
    return {name: op["outputs"] for name, op in record["ops"].items()}


def check_determinism(scale: str) -> None:
    for name in WORKLOADS:
        first, second = run_bench(ROOT, name, scale), run_bench(ROOT, name, scale)
        if first.returncode or second.returncode:
            expect(False, f"{name} ({scale}): runs succeed\n{first.stderr}{second.stderr}")
            continue
        a, b = outputs(first.stdout), outputs(second.stdout)
        expect(a == b and all(v is not None for v in a.values()),
               f"{name} ({scale}): same seed gives identical outputs")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run_bench(bare, "sweep", "tiny")
        expect(done.returncode != 0 and not done.stdout.strip(),
               "without src/mvnewton: nonzero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="self-test of the mvnewton benchmark")
    parser.add_argument("--full", action="store_true",
                        help="also check determinism at full size (a few minutes)")
    args = parser.parse_args(argv)
    check_workloads()
    check_evaluator_fault()
    check_determinism("tiny")
    if args.full:
        check_determinism("full")
    check_bare_directory()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
