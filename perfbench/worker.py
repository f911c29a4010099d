"""One fresh interpreter: import monokit, set up one workload, run its ops.

Usage: python perfbench/worker.py SPEC.json

SPEC holds the workload, the mode ("setup" stops once set-up is done),
whether to trace, and the paths of the inputs, the results and the spans.
The results file records the monotonic time at which set-up ended and,
per op, its start, end, answer or error.  run.py starts this process and
validates the answers; nothing here judges them.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import traceback


def report_op(argv: list) -> dict:
    from monokit import cli

    return {"exit": cli.main(argv)}


def main(spec_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    workload = spec["workload"]
    importlib.import_module("monokit.cli" if workload == "report-cli-d6" else "monokit")
    import workloads

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workloads.setup(workload)
    results: dict = {"ready": time.monotonic(), "ops": []}
    if spec["mode"] == "measure":
        op = workloads.OPS.get(workload, report_op)
        with open(spec["inputs"]) as handle:
            inputs = json.load(handle)
        for i, item in enumerate(inputs):
            if tracer is not None:
                tracer.op = i
            start = time.perf_counter()
            try:
                out, error = op(item), None
            except Exception:  # a failed op is recorded and the batch goes on
                out, error = None, traceback.format_exc(limit=3)
            end = time.perf_counter()
            results["ops"].append({"start": start, "end": end, "out": out, "error": error})
        if tracer is not None:
            tracer.op = -1
            tracer.dump(spec["spans"])
    with open(spec["results"], "w") as handle:
        json.dump(results, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
