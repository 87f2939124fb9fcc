"""Self-test of the benchmark's tracing; exits 0 only if every check holds.

    python3 perfbench/selftest.py

1. Two traced passes of one seed give identical count metrics (calls,
   coeff_ops, PFD terms, degrees and coefficient bits).
2. Traced passes produce the same outputs (SHA-256) as an untraced pass.
3. Installing the tracer replaces every traced function under every name
   the package looks it up by, including the ``poincare_series`` that
   ``cli`` and ``golden`` bind at import; spans show up under ``cli.main``
   and ``golden.check_record``; uninstalling restores every original.

Checks 1 and 2 run on every workload with seed 1.
"""

from __future__ import annotations

import json
import sys
import time

import run

sys.path.insert(0, str(run.ROOT / "src"))

from poincare_series import golden  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer, package_modules  # noqa: E402

SEED = 1
# three passes of the largest workload take well under this
PASS_LIMIT_S = 300.0


def check_passes(workload: str) -> list[str]:
    deadline = time.perf_counter() + PASS_LIMIT_S
    base = ["--workload", workload, "--seed", str(SEED)]
    plain = json.loads(run.launch(base, deadline))
    traced = [json.loads(run.launch(base + ["--trace"], deadline)) for _ in range(2)]
    problems = []
    counts = [
        {name: m["value"] for name, m in p["layers"].items() if m["unit"] in run.COUNT_UNITS}
        for p in traced
    ]
    differing = sorted(name for name in counts[0] if counts[0][name] != counts[1][name])
    if differing:
        problems.append(f"{workload}: count metrics differ between traced passes: {differing}")
    if any(p["sha256"] != plain["sha256"] for p in traced):
        problems.append(f"{workload}: traced outputs differ from untraced outputs")
    for p in (plain, *traced):
        problems += [f"{workload}: {failure}" for failure in p["failures"]]
    return problems


def check_patching() -> list[str]:
    tracer = Tracer()
    tracer.install()
    patches = list(tracer.patches)
    problems = []
    try:
        originals = {id(original) for _, _, original in patches}
        for module in package_modules():
            for attr, value in vars(module).items():
                if id(value) in originals:
                    problems.append(f"{module.__name__}.{attr} still refers to an untraced function")
        tracer.run_request(0, workloads.execute,
                           workloads.Request("cli", ("--d", "2,3", "--format", "json")))
        record = golden.parse_record("d=1,1; kind=semiinvariants; num=1; den=(1,2)(2,1)", 1)
        tracer.run_request(1, golden.check_record, record)
    finally:
        tracer.uninstall()
    parents = {tracer.names[tracer.span_name[p]]
               for sid, p in enumerate(tracer.parent)
               if tracer.names[tracer.span_name[sid]] == "springer.poincare_series" and p >= 0}
    for caller in ("cli.main", "golden.check_record"):
        if caller not in parents:
            problems.append(f"poincare_series called from {caller} was not traced")
    for owner, attr, original in patches:
        if getattr(owner, attr) is not original:
            problems.append(f"{owner.__name__}.{attr} left patched")
    return problems


def main() -> int:
    problems = check_patching()
    print(f"patching: {'ok' if not problems else 'FAILED'}")
    for workload in workloads.WORKLOADS:
        found = check_passes(workload)
        print(f"{workload}: {'ok' if not found else 'FAILED'}")
        problems += found
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
