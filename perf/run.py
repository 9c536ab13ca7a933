#!/usr/bin/env python3
"""The one benchmark command for the whole stack.

    python3 perf/run.py --seed S                 all four workloads, tracing off
    python3 perf/run.py --trace                  the separate traced run
    python3 perf/run.py --quick                  both, at 1/20 size (smoke)
    python3 perf/run.py --workload W --seed S --seconds N --trace 0|1

The last form is what ``BENCHMARK.json`` names: one workload in this
process, the last stdout line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without ``--workload`` each
workload runs in a fresh child process of that form and the results are
tabulated (and written to ``--out``).  See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
OUT_DIR = PERF_DIR / "out"
WORKLOADS = ("ingest_powerlaw", "churn_uniform", "analytics_stream",
             "serve_mixed")
DEFAULT_SECONDS = 20
QUICK_SECONDS = 1


def _import_program() -> None:
    """Put this checkout's ``src/`` first on the path; refuse to measure
    anything else (an installed ``repro`` is not this checkout)."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perf/run.py: no program to measure: {ROOT / 'src' / 'repro'}"
                 f" is missing")
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401 - fail here, loudly, if it cannot import
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        sys.exit(f"perf/run.py: imported repro from {repro.__file__}, "
                 f"not from this checkout")


def environment() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"cores": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "commit": commit or "not a git checkout"}


# --------------------------------------------------------------------- #
# one workload, in this process
# --------------------------------------------------------------------- #
def _module(name: str):
    import wl_analytics
    import wl_churn
    import wl_ingest
    import wl_serve

    return {m.NAME: m for m in (wl_ingest, wl_churn, wl_analytics,
                                wl_serve)}[name]


def _check_pin(ctx, state) -> None:
    """Fingerprint the inputs set-up made; at the pinned seed they must
    match ``pins.json`` (a changed generator must not silently change the
    load)."""
    import inputs

    digest = ctx.notes["inputs_sha256"] = inputs.fingerprint(state["inp"])
    pins = json.loads((PERF_DIR / "pins.json").read_text())
    if ctx.seed == pins["seed"]:
        want = pins["quick" if ctx.quick else "full"].get(ctx.workload)
        ctx.checks.expect(
            digest == want,
            f"inputs for seed {ctx.seed} hash to {digest}, pins.json has "
            f"{want}: the load generator changed")


def _self_peak_rss_mb(_state) -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(ctx, wl, sz) -> dict:
    from harness import Deadline, quiet_gc, timed_setups

    state, setup = timed_setups(ctx, lambda: wl.setup(ctx, sz), wl.teardown)
    try:
        _check_pin(ctx, state)
        with quiet_gc():
            slices = wl.run(ctx, state,
                            Deadline(ctx.seconds, at_least=sz["min_units"]))
        peak = getattr(wl, "peak_rss_mb", _self_peak_rss_mb)(state)
        wl.verify(ctx, state)
    finally:
        wl.teardown(state)
    metrics = {"setup_s": setup, "peak_rss_mb": peak}
    metrics.update(wl.end_to_end(slices))
    ctx.notes["machine_slowdown"] = ctx.clock.median_slowdown
    ctx.notes["raw_wall_clock"] = {
        name: value["median"] if isinstance(value, dict) else value
        for name, value in wl.end_to_end(slices, raw=True).items()}
    return metrics


def run_traced(ctx, wl, sz) -> dict:
    import probes
    from harness import Deadline, quiet_gc
    from spans import format_table

    tracer = ctx.tracer
    state = wl.setup(ctx, sz)
    try:
        _check_pin(ctx, state)
        units = sz["traced_units"]
        with quiet_gc():
            plain = wl.run(ctx, state, Deadline(0, exactly=units))
            tracer.enabled = True
            try:
                traced = wl.run(ctx, state, Deadline(0, exactly=units),
                                traced=True)
            finally:
                tracer.enabled = False
        wl.verify(ctx, state)
        stream = wl.probe_stream(state).copy()
    finally:
        wl.teardown(state)
    table = tracer.layer_table(wall_ns=int(traced.wall_s * 1e9))
    print(format_table(
        table, f"{wl.NAME}: layers over the traced pass "
               f"({traced.wall_s:.3f} s of timed calls)", traced.wall_s))
    metrics = {f"{layer}.{col}": table[layer][col]
               for layer in ("core", "engine", "service", "net")
               for col in ("calls", "busy_s", "self_s", "share")}
    metrics["perf.outside_spans_share"] = \
        1.0 - sum(row["share"] for row in table.values())
    metrics["perf.trace_overhead_share"] = \
        wl.unit_cost(traced) / wl.unit_cost(plain) - 1.0
    metrics.update(probes.run_all(ctx, stream))
    m = metrics
    print(f"  durable-ack path, ms p50 (probes): insert ack over the wire "
          f"{m['net.insert_ack_ms_p50']:.3f} = wire "
          f"{m['net.wire_overhead_ms_p50']:.3f} + service ack "
          f"{m['service.ack_ms_p50']:.3f} [= WAL append+sync "
          f"{m['service.wal.append_sync_ms_p50']:.3f} + store apply "
          f"{m['service.store_apply_ms_p50']:.3f} + unattributed (wait for "
          f"the flush trigger, hand-off) "
          f"{m['service.unattributed_ms_p50']:.3f}]")
    metrics["perf.machine_slowdown"] = ctx.clock.median_slowdown
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{wl.NAME}.json")
    return metrics


def run_workload(args) -> int:
    _import_program()
    sys.path.insert(0, str(PERF_DIR))
    from clock import RefClock
    from harness import END_TO_END, PER_LAYER, Ctx
    from spans import Tracer

    wl = _module(args.workload)
    sz = wl.sizes(args.quick)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    cpus = tuple(sorted(os.sched_getaffinity(0)))
    make_clock = getattr(wl, "make_clock", lambda cpus: RefClock())
    ctx = Ctx(workload=wl.NAME, seed=args.seed, seconds=args.seconds,
              quick=args.quick, tmp=tmp, cpus=cpus, clock=make_clock(cpus),
              tracer=Tracer(wl.NAME))
    try:
        if args.trace:
            values = run_traced(ctx, wl, sz)
            declared = [(n, u) for n, u, _ in PER_LAYER]
        else:
            values = run_untraced(ctx, wl, sz)
            declared = list(END_TO_END)
    finally:
        ctx.clock.close()
        shutil.rmtree(tmp, ignore_errors=True)

    missing = [n for n, _ in declared if n not in values]
    extra = sorted(set(values) - {n for n, _ in declared})
    if missing or extra:
        sys.exit(f"perf/run.py: metric set mismatch: missing {missing}, "
                 f"undeclared {extra}")
    detail, metrics = {}, {}
    for name, unit in declared:
        value = values[name]
        spread = value if isinstance(value, dict) else {"median": value}
        detail[name] = dict(spread, unit=unit)
        metrics[name] = {"value": float(spread["median"]), "unit": unit}
    checks = ctx.checks
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    report = {"workload": wl.NAME, "why": wl.WHY, "seed": args.seed,
              "seconds": args.seconds, "quick": args.quick,
              "trace": args.trace, "sizes": sz,
              "inputs_sha256": ctx.notes.pop("inputs_sha256"),
              "notes": ctx.notes, "messages": checks.messages,
              "environment": environment(), "detail": detail, **result}
    if args.detail_file:
        Path(args.detail_file).write_text(json.dumps(report, default=str))
    for message in checks.messages:
        print(f"FAILED: {message}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# --------------------------------------------------------------------- #
# every workload, each in a fresh child
# --------------------------------------------------------------------- #
def _print_report(report: dict) -> None:
    mode = "traced (per-layer)" if report["trace"] else "end-to-end"
    print(f"\n== {report['workload']} — {mode} — seed {report['seed']}, "
          f"inputs sha256 {report['inputs_sha256'][:16]}… ==")
    print(f"   sizes {report['sizes']}")
    print(f"   notes {report['notes']}")
    print(f"   {'metric':<44}{'value':>16} {'unit':<8}"
          f"{'q1':>14}{'q3':>14}{'n':>6}")
    for name, d in report["detail"].items():
        tail = (f"{d['q1']:>14.6g}{d['q3']:>14.6g}{d['n']:>6}"
                if "n" in d else "")
        print(f"   {name:<44}{d['median']:>16.6g} {d['unit']:<8}{tail}")
    print(f"   attempted {report['attempted']}  failed {report['failed']}  "
          f"correct {report['correct']}")
    for message in report["messages"]:
        print(f"   FAILED: {message}")


def run_all(args) -> int:
    traces = {"0": [0], "1": [1], "both": [0, 1]}[args.trace_mode]
    OUT_DIR.mkdir(exist_ok=True)
    reports, status = [], 0
    for workload in WORKLOADS:
        for trace in traces:
            with tempfile.NamedTemporaryFile(dir=OUT_DIR, prefix="detail-",
                                             suffix=".json") as detail:
                cmd = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--detail-file", detail.name]
                if args.quick:
                    cmd.append("--quick")
                child = subprocess.run(cmd, capture_output=True, text=True)
                text = Path(detail.name).read_text()
            if not text:
                print(child.stdout, child.stderr, sep="\n", file=sys.stderr)
                print(f"{workload} (trace {trace}) exited with "
                      f"{child.returncode} and no result", file=sys.stderr)
                status = 1
                continue
            report = json.loads(text)
            if trace:  # the layer table is printed by the child
                print("\n".join(line for line in child.stdout.splitlines()
                                if line.startswith("  ")))
            _print_report(report)
            reports.append(report)
            status = status or child.returncode
    if reports:
        print(f"\nenvironment {reports[0]['environment']}")
    failed = sum(r["failed"] for r in reports)
    attempted = sum(r["attempted"] for r in reports)
    print(f"\nfailed_ops_share {failed}/{attempted} = "
          f"{failed / max(1, attempted):.6f}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "quick": args.quick,
             "reports": reports}, indent=1, default=str))
        print(f"wrote {args.out}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured seconds per run (default "
                             f"{DEFAULT_SECONDS}, {QUICK_SECONDS} with --quick)")
    parser.add_argument("--trace", nargs="?", const="1", default=None,
                        choices=["0", "1", "both"],
                        help="1: the traced per-layer run; 0: end-to-end")
    parser.add_argument("--quick", action="store_true",
                        help="sizes / 20, both runs: a smoke test, not a "
                             "measurement")
    parser.add_argument("--out", help="write every report to this JSON file")
    parser.add_argument("--detail-file", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    if args.workload:
        if args.trace == "both":
            parser.error("--trace both needs all workloads (no --workload)")
        args.trace = int(args.trace or 0)
        return run_workload(args)
    args.trace_mode = args.trace or ("both" if args.quick else "0")
    _import_program()  # fail before spawning anything
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
