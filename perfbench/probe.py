"""Time one cold start of a workload's serving stack in a fresh interpreter.

Prints one JSON object: ``import_s`` (``import repro.cli``, the import
``repro serve`` pays), ``predictor_load_s`` (``InterferencePredictor.load``),
``stack_build_s`` (building the serving stack, lazy imports included)
and ``first_decision_s`` (serving the first two arrivals of the trace
made from ``SEED``; the second is scored against the first one's server,
where the models' lazy tree packing happens), plus their sum
``setup_s``.  Making the input is not timed.

    python3 perfbench/probe.py WORKLOAD SEED
"""

import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    workload_name, seed = sys.argv[1], int(sys.argv[2])
    src = os.path.join(os.path.dirname(HERE), "src")
    sys.path.insert(0, src)
    t0 = perf_counter()
    import repro.cli  # noqa: F401

    t1 = perf_counter()
    sys.path.insert(0, HERE)
    import json
    from dataclasses import replace

    import stack

    workload = stack.WORKLOADS[workload_name]
    t2 = perf_counter()
    predictor = stack.load_predictor(workload.predictor)
    t3 = perf_counter()
    catalog = stack.make_catalog(workload)
    built = stack.build_stack(workload, predictor, catalog)
    t4 = perf_counter()
    two = replace(workload, warmup=2, timed=0)
    sessions = stack.make_trace(two, seed, predictor.db.names())
    t5 = perf_counter()
    stack.first_decisions(workload, built, sessions)
    t6 = perf_counter()
    parts = {
        "import_s": t1 - t0,
        "predictor_load_s": t3 - t2,
        "stack_build_s": t4 - t3,
        "first_decision_s": t6 - t5,
    }
    parts["setup_s"] = sum(parts.values())
    print(json.dumps(parts))


if __name__ == "__main__":
    main()
