"""One round of a workload in a fresh interpreter: set up, run, check.

Run by run.py as ``python3 bench/round.py --spec SPEC --result OUT`` from
the root of a checkout.  The round imports ``qtoric`` from ``src/``, builds
the workload's program objects (the measured set-up), runs the operation
list once in a closed loop with one caller, records each operation's
latency, and only then checks every output against the oracles.  With
``--trace 1`` the program's public functions are wrapped before the
objects are built and the per-layer summary is added to the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--spec", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    import checks
    import tracing
    import workloads
    _, build, operations, shuffled = workloads.WORKLOADS[spec["workload"]]
    sys.path.insert(0, os.path.join(ROOT, "src"))

    t0 = time.perf_counter()
    import qtoric
    import qtoric.cli  # noqa: F401  (the CLI modules are part of every import)
    t_import = time.perf_counter()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    t_build = time.perf_counter()
    ctx = build(spec)
    t_ready = time.perf_counter()
    origin = os.path.abspath(qtoric.__file__)
    if not origin.startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"qtoric was imported from {origin}, not from this checkout")
    result = {"setup_s": t_ready - t0, "import_s": t_import - t0, "build_s": t_ready - t_build}
    if args.setup_only:
        _write(args.result, result)
        return

    ops = operations(ctx)
    order = list(range(len(ops)))
    if shuffled:
        random.Random(f"{spec['seed']}/{args.round}").shuffle(order)
    texts = [None] * len(ops)
    latencies = []
    done = []
    failures = []
    first_text = {}
    errors = []
    digest = hashlib.sha256()
    t_start = time.perf_counter()
    for index in order:
        op = ops[index]
        t = time.perf_counter()
        try:
            text, payload = op.fn()
        except Exception as exc:  # the round goes on; the failure is counted and reported
            latencies.append(time.perf_counter() - t)
            failures.append((op, exc))
            texts[index] = f"raised {type(exc).__name__}"
            continue
        latencies.append(time.perf_counter() - t)
        texts[index] = text
        # a repeated operation must answer as before; its first answer is checked
        if op.name not in first_text:
            first_text[op.name] = text
            done.append((op, payload))
        elif first_text[op.name] != text:
            errors.append(f"{op.name}: a repetition gave another answer")
    t_end = time.perf_counter()
    for op, text in zip(ops, texts):
        digest.update(f"{op.name}\0{text}\0".encode())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary(t_end - t_build)
        if args.spans:
            tracer.write(args.spans)

    for op, exc in failures:
        if not (op.expect_fail and isinstance(exc, RecursionError)):
            errors.append(f"{op.name}: unexpected {type(exc).__name__}: {exc}")
    # a traced round is checked through its untraced twin: their digests must agree
    if tracer is None:
        check = {"cli-session": lambda: checks.check_cli_session(spec, done),
                 "lattice-straighten": lambda: checks.check_lattice_straighten(spec, ctx, done),
                 "cone-ladder": lambda: checks.check_cone_ladder(spec, done)}[spec["workload"]]
        errors += check()
    result.update({
        "wall_s": t_end - t_start,
        "build_ops_s": t_end - t_build,
        "names": [ops[index].name for index in order],
        "latencies": latencies,
        "attempted": len(ops),
        "failed": len(failures),
        "failed_ops": [f"{op.name}: {type(exc).__name__}" for op, exc in failures],
        "errors": errors,
        "outputs_sha256": digest.hexdigest(),
        "peak_rss_kib": peak_kib,
    })
    _write(args.result, result)


def _write(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


if __name__ == "__main__":
    main()
