"""spintorus benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload newton-polish --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the program is imported from its
`src/`.  Every line but the last is for people: the run metadata, each op's
gate verdict and every metric by name with its unit.  The last line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: with
`--trace 0` the end-to-end metrics, with `--trace 1` the per-layer metrics
derived from spans.  The metric names and units are those BENCHMARK.json
lists.  A traced run alternates untraced and traced ops, so
`trace.overhead_frac` compares ops of the same run.  End-to-end metrics come
only from untraced runs.  `--tiny` runs one op (one round) at the warm-up
grid sizes and is what `perfbench/selftest.py` uses.

The workloads and the reasons for every choice are in perfbench/NOTES.md.
"""

from __future__ import annotations

import os

# One closed-loop client; BLAS/OpenMP pools are pinned to one thread in this
# process and its children only, before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import collections
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Fresh-interpreter set-up probes per untraced run, spread evenly over its op
# time so that their median samples the same stretch of machine time as the ops.
SETUP_PROBES = 12


def parse_args(spec: dict, argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="one op at warm-up sizes")
    return parser.parse_args(argv)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_meta(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_omp_threads": int(BLAS_THREADS),
        "load": "closed loop, one client in one process",
        "working_set": (
            "a complex field at N=256 is 1 MiB per component, far inside the "
            "last-level cache; no memory-bandwidth claim is made"
        ),
    }


def tail(times: list[float]) -> tuple[float, str]:
    """Highest whole percentile with at least ten ops beyond it (nearest rank)."""
    n = len(times)
    ordered = sorted(times)
    if n <= 10:
        return ordered[-1], f"max of {n} ops (fewer than 11)"
    pct = math.floor(100 * (n - 10) / n)
    return ordered[math.ceil(pct * n / 100) - 1], f"p{pct} of {n} ops"


def setup_probe(workload: str, env: dict, work: Path):
    """A function returning the wall time from interpreter start to a finished warm-up op."""
    if workload == "cli-readme":
        argv = [sys.executable, "-m", "spintorus.cli", "--version"]
    else:
        argv = [sys.executable, str(HERE / "probe.py"), workload, str(work)]

    def probe() -> float:
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=60)
        return time.perf_counter() - t0

    return probe


def closed_loop(wl, args, work: Path, tracer, counted, probe, n_probes):
    """Run ops back to back until --seconds of op time have passed (whole rounds).

    Input construction, the gate, printing and the set-up probes run outside
    the timed region.  Probe k runs once k/n_probes of the op time has passed.
    With a tracer, odd ops are traced and even ops are not.  Returns the op
    records, the op time and the probe times.
    """
    from tracing import NullTracer

    null = NullTracer()
    n_grid = wl.tiny_grid if args.tiny else wl.n_grid
    stream = wl.inputs(args.seed, n_grid, work)
    min_ops = 2 if tracer else 1
    records = []
    setup_times = []
    untimed = elapsed = 0.0
    start = time.perf_counter()
    while True:
        u0 = time.perf_counter()
        while len(setup_times) < n_probes and elapsed >= len(setup_times) * args.seconds / n_probes:
            setup_times.append(probe())
        inp = next(stream)
        i = len(records)
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.op = i
        counts = dict.fromkeys(counted, 0)
        t0 = time.perf_counter()
        try:
            out, error = wl.op(inp, tracer if traced else null, counts), None
        except Exception as exc:  # an op that raises is a failed op, not a harness error
            out, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if error is None:
            try:
                ok, detail = wl.gate(inp, out, counts)
            except Exception as exc:
                ok, detail = False, f"gate error {type(exc).__name__}: {exc}"
        else:
            ok, detail = False, error
        del out
        records.append({"t": t1 - t0, "ok": ok, "traced": traced, "counts": counts})
        print(
            f"op {i} {'traced ' if traced else ''}{inp.get('desc', inp.get('command', ''))} "
            f"time {t1 - t0:.4f} s gate {'PASS' if ok else 'FAIL'}: {detail}",
            flush=True,
        )
        untimed += (t0 - u0) + (time.perf_counter() - t1)
        elapsed = time.perf_counter() - start - untimed
        done = len(records) % wl.round_size == 0 and len(records) >= min_ops
        if done and (args.tiny or elapsed >= args.seconds):
            while len(setup_times) < n_probes:
                setup_times.append(probe())
            return records, elapsed, setup_times


def end_to_end(records, loop_time, setup_times, rss_mb) -> tuple[dict, dict]:
    """Values and notes of the end-to-end metrics."""
    times = [r["t"] for r in records]
    tail_value, tail_note = tail(times)
    values = {
        "setup_s": statistics.median(setup_times),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_value,
        "ops_per_s": len(records) / loop_time,
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} probes",
        "op_s_p50": f"median of {len(times)} ops",
        "op_s_tail": tail_note,
    }
    return values, notes


def per_layer(records, tracer) -> dict:
    """Values of the per-layer metrics from the traced ops' spans and counts.

    Every per-layer name starts as a count (0 unless an op added to it); a
    `<span>.s` name then takes the median self time per op of that span, and
    ratios and the trace overhead are computed from the totals.
    """

    def ratio(num, den):
        return num / den if den else 0.0

    traced = [r for r in records if r["traced"]]
    values = {name: sum(r["counts"][name] for r in traced) for name in traced[0]["counts"]}
    per_op = collections.defaultdict(list)
    for spans in tracer.self_times().values():
        for span, own in spans.items():
            per_op[span].append(own)
    total = collections.defaultdict(float, {span: sum(t) for span, t in per_op.items()})
    values.update({f"{span}.s": statistics.median(t) for span, t in per_op.items()})
    values["solver.s_per_newton_step"] = ratio(
        total["solver.solve_at_exponent"], values["solver.newton_steps"])
    values["functional.s_per_iter"] = ratio(
        total["functional.maximize_Fq"], values["functional.ascent_iters"])
    values["weierstrass.export_mesh.mb_per_s"] = ratio(
        values["weierstrass.export_mesh.bytes"] / 1e6, total["weierstrass.export_mesh"])
    plain = statistics.median([r["t"] for r in records if not r["traced"]])
    values["trace.overhead_frac"] = (statistics.median([r["t"] for r in traced]) - plain) / plain
    return values


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(spec, argv)
    if not (SRC / "spintorus" / "__init__.py").is_file():
        print(f"error: no spintorus package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        import spintorus
        from tracing import Tracer
        from workloads import WORKLOADS, warmup

        if not Path(spintorus.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: imported spintorus from {spintorus.__file__}, not {SRC}", file=sys.stderr)
            return 2
        meta = run_meta(args)
        print("meta " + json.dumps(meta, sort_keys=True), flush=True)
        wl = WORKLOADS[args.workload]
        wl.prepare(work, env)
        in_process = args.workload != "cli-readme"
        if in_process:  # caches filled and lazy set-up done before timing
            print(f"warm-up gate {warmup(wl, work)}", flush=True)
        tracer = Tracer() if args.trace else None
        n_probes = 0 if args.trace else 1 if args.tiny else SETUP_PROBES
        counted = [m["name"] for m in spec["per_layer"]]
        records, loop_time, setup_times = closed_loop(
            wl, args, work, tracer, counted, setup_probe(args.workload, env, work), n_probes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not r["ok"] for r in records)
    print(f"workload {args.workload} seed {args.seed}: {len(records)} ops, {failed} failed, "
          f"{loop_time:.3f} s of op time")
    key = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        values, notes = per_layer(records, tracer), {}
        trace_dir = ROOT / ".perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, meta)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        values, notes = end_to_end(records, loop_time, setup_times, rss_mb)
    print(f"fail_frac = {failed / len(records)!r}  ({failed} of {len(records)} ops failed)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[key]}
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}  {notes.get(name, '')}".rstrip())
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
