"""qtoric benchmark: one command, end-to-end and per-layer metrics.

    python3 bench/run.py --workload cone-ladder --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  For each round a fresh single-threaded
interpreter (bench/round.py) imports qtoric from src/, builds the
workload's objects and runs its fixed operation list in a closed loop with
one caller; rounds repeat until --seconds have passed, and every round's
outputs are checked against independent oracles.  With --trace 1 each
traced round runs beside an untraced twin on the same inputs (one per
core), and the per-layer metrics are reported instead of the end-to-end
ones.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("peak_rss_mib", "MiB")]
SETUP_PROBES = 10
ROUND_TIMEOUT_S = 170
TAIL_BEYOND = 10


def _env():
    env = dict(os.environ)
    env.pop("QTORIC_BOUND", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _start(run_dir, spec_path, tag, trace=False, setup_only=False, index=0):
    out = os.path.join(run_dir, f"{tag}.json")
    argv = [sys.executable, os.path.join(HERE, "round.py"), "--spec", spec_path,
            "--result", out, "--trace", str(int(trace)), "--round", str(index)]
    if setup_only:
        argv.append("--setup-only")
    if trace:
        argv += ["--spans", os.path.join(run_dir, "spans.bin")]
    proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    return tag, proc, out


def _finish(started):
    tag, proc, out = started
    try:
        _, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"round {tag} exited {proc.returncode}:\n{err[-4000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _child(*args, **kwargs):
    return _finish(_start(*args, **kwargs))


def _tail(latencies):
    """(value, percentile): the sample with exactly TAIL_BEYOND samples above it."""
    n = len(latencies)
    if n < 4 * TAIL_BEYOND:
        return statistics.median(latencies), 50.0
    return sorted(latencies)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_workload(name, seed, seconds, trace, lines):
    import selftest
    import tracing
    import workloads
    errors = [f"oracle self-test: {p}" for p in selftest.run()]
    run_dir = os.path.join(HERE, "_out", f"{name}-seed{seed}-trace{trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    spec = workloads.WORKLOADS[name][0](seed, run_dir)
    spec_path = os.path.join(run_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    with open(spec_path, "rb") as fh:
        spec_digest = hashlib.sha256(fh.read()).hexdigest()

    rounds, traced = [], []
    setups = []

    def probe_setup(count):
        # set-up-only processes, half before and half after the rounds
        if not trace:
            setups.extend(_child(run_dir, spec_path, f"setup{len(setups)}",
                                 setup_only=True)["setup_s"] for _ in range(count))

    probe_setup(SETUP_PROBES // 2)
    start = time.monotonic()
    while True:
        if trace:
            # the traced round and its untraced twin run side by side, one per core
            twins = [_start(run_dir, spec_path, f"round{len(rounds)}", index=len(rounds)),
                     _start(run_dir, spec_path, f"traced{len(traced)}", trace=True,
                            index=len(rounds))]
            untraced_result, traced_result = [_finish(t) for t in twins]
            rounds.append(untraced_result)
            traced.append(traced_result)
        else:
            rounds.append(_child(run_dir, spec_path, f"round{len(rounds)}", index=len(rounds)))
        if time.monotonic() - start >= seconds:
            break
    probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    digests = {r["outputs_sha256"] for r in rounds + traced}
    if len(digests) != 1:
        errors.append("outputs differ between rounds" + (" (traced and untraced)" if trace else ""))
    for r in rounds + traced:
        errors += r["errors"]
    attempted = sum(r["attempted"] for r in rounds + traced)
    failed = sum(r["failed"] for r in rounds + traced)

    lines.append(f"{name}: seed {seed}, {len(rounds)} round(s) of {rounds[0]['attempted']} "
                 f"operations, spec sha256 {spec_digest[:16]}"
                 + (f", model sha256 {spec['model_sha256'][:16]}" if "model_sha256" in spec else ""))
    lines.append(f"  operations attempted {attempted}, failed {failed}")
    for item in sorted(set(op for r in rounds for op in r["failed_ops"])):
        lines.append(f"    failed: {item}")

    if trace:
        metrics = {}
        summaries = [t["trace"] for t in traced]
        for key, unit in tracing.PER_LAYER:
            if key == "trace.overhead_s":
                values = [t["build_ops_s"] - r["build_ops_s"] for t, r in zip(traced, rounds)]
            else:
                values = [s[key] for s in summaries]
            metrics[key] = {"value": statistics.median(values), "unit": unit}
        for s in summaries:
            accounted = s["trace.self_sum_s"] + s["trace.unspanned_s"]
            if abs(accounted - s["trace.wall_s"]) > 1e-6 * max(1.0, s["trace.wall_s"]):
                errors.append("self times and untraced remainder do not add up to the traced wall")
        lines.append(f"  per-layer metrics from {len(traced)} traced round(s); "
                     f"spans in {os.path.relpath(os.path.join(run_dir, 'spans.bin'), ROOT)}")
    else:
        # each operation at its median over all its runs (rounds, and repetitions
        # within a round), so that a brief stall of the machine moves no metric
        samples = {}
        for r in rounds:
            for op_name, latency in zip(r["names"], r["latencies"]):
                samples.setdefault(op_name, []).append(latency)
        per_op = [statistics.median(v) for v in samples.values()]
        tail, tail_pct = _tail(per_op)
        values = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
            "wall_s": sum(per_op),
            "op_p50_ms": statistics.median(per_op) * 1000,
            "op_tail_ms": tail * 1000,
            "peak_rss_mib": statistics.median(r["peak_rss_kib"] for r in rounds) / 1024,
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}
        notes = {
            "setup_s": f"median of {len(setups) + len(rounds)} set-ups",
            "wall_s": f"sum over {len(per_op)} operations, each the median of its "
                      f"{min(map(len, samples.values()))} to {max(map(len, samples.values()))} runs",
            "op_p50_ms": f"median of {len(per_op)} per-operation medians",
            "op_tail_ms": f"p{tail_pct:.1f} of {len(per_op)} per-operation medians, "
                          f"{TAIL_BEYOND} beyond it",
            "peak_rss_mib": f"median over {len(rounds)} round processes",
        }
        for key, unit in END_TO_END:
            lines.append(f"  {key:<13} = {values[key]:.6g} {unit}  ({notes[key]})")
    for e in errors[:20]:
        lines.append(f"  CHECK FAILED: {e}")
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qtoric", "__init__.py")):
        print(f"error: no qtoric sources under {os.path.join(ROOT, 'src')}; run from a checkout",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    lines = []
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace, lines)
    print("\n".join(lines))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
