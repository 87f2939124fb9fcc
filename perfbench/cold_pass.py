"""One cold pass over a workload, in the interpreter that runs this file.

The package keeps unbounded in-process caches (the series cache in
``springer`` and the weight-count rows in ``counting``), so a second pass
in the same process would mostly measure dictionary lookups. Each pass
therefore runs in a fresh interpreter started by ``run.py``.

    python3 perfbench/cold_pass.py --workload cli-session --seed 1 [--trace]

prints one JSON line: per-request latencies, measured and scaled to the
reference speed (see ``speed.py``), peak RSS, the failures found by the
output checks (run after the timed region) and a SHA-256 of the outputs;
with ``--trace``, also the per-layer metrics.
With ``--setup-only`` it imports the package, generates the inputs and
exits, which is what ``run.py`` times as set-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from speed import Span  # noqa: E402
from tracing import Tracer  # noqa: E402

SPAN_DIR = ROOT / ".perfbench"


def run_pass(requests, tracer: Tracer | None) -> dict:
    latencies, scaled, pauses, results = [], [], [], []
    for request_id, request in enumerate(requests):
        with Span(sample=True) as span:
            try:
                if tracer is None:
                    result = workloads.execute(request)
                else:
                    result = tracer.run_request(request_id, workloads.execute, request)
            except Exception as exc:  # a failing request is counted, not fatal
                result = exc
        latencies.append(span.seconds)
        scaled.append(span.scaled)
        pauses += span.pauses
        results.append(result)
    # KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"latencies_s": latencies, "scaled_latencies_s": scaled, "peak_rss_mb": peak_rss_mb,
            "pauses": pauses, "results": results}


def check_outputs(requests, results) -> tuple[list, str]:
    failures = []
    digest = hashlib.sha256()
    for request, result in zip(requests, results):
        if isinstance(result, Exception):
            failures.append(f"{request.label()}: raised {type(result).__name__}: {result}")
            digest.update(f"raised {type(result).__name__}\n".encode())
            continue
        try:
            reason = workloads.check(request, result)
        except Exception as exc:  # unparsable output is a failed request
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"{request.label()}: {reason}")
        digest.update(workloads.output_text(request, result).encode())
    return failures, digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    requests = workloads.generate(args.workload, args.seed)
    if args.setup_only:
        return 0
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    outcome = run_pass(requests, tracer)
    results = outcome.pop("results")
    pauses = outcome.pop("pauses")
    report = dict(outcome)
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.layer_metrics(pauses)
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.write_spans(SPAN_DIR / f"spans-{args.workload}.tsv")
    failures, sha256 = check_outputs(requests, results)
    report.update(attempted=len(requests), failures=failures, sha256=sha256)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
