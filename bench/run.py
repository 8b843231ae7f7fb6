"""soundcue's benchmark: seeded workloads driven through the real CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N   every workload in turn
    python3 bench/run.py --smoke                   tiny inputs; checks that
                                                   every metric BENCHMARK.json
                                                   names is printed with its unit

Workloads (see workloads.py and BENCHMARK.json for why each exists):
impulse_dense (60 s take, 8 tonal impulse cues every 0.25 s), long_take
(120 s take, noise-burst impulses plus continuous segments, one pattern
stored at 22.05 kHz) and synth_timeline (`soundcue synth` on a 600 s
timeline at 120 fps).

Closed loop with one client: each pass is a fresh worker process that
calls soundcue.cli.main(argv) once, and the next pass starts only after
it has ended. The benchmark starts no threads. Passes repeat until the
next one would end after --seconds (at least MIN_PASSES). Set-up is
measured apart, in SETUP_PROBES fresh processes that import the CLI,
load the pattern WAVs and parse the scene. Every pass is checked (see
checks.py) and its files must be byte-identical to the first pass's.

--trace 0 prints the end-to-end metrics, medians over passes:
  wall_s            one pass, argv to all files written (s)
  audio_x_realtime  seconds of take per wall second; synth_timeline
                    reads no audio, so its take is the timeline's span
  frames_per_s      curve rows written (objects x frames) per wall second
  peak_rss_mb       ru_maxrss of the pass process
  setup_s           process start to ready to process the first track
  recall, precision the worst pass's (1.0 or the run is incorrect)
--trace 1 alternates untraced and traced passes and prints the
per-layer metrics (tracing.py) of the traced pass with the median wall
time; trace.overhead_s is its wall minus the untraced median.

The last line of stdout is one JSON object with the keys correct,
attempted (passes), failed (passes) and metrics; failed_frac, the share
of passes that failed, is printed in the report above it. The command
exits 1 if any pass failed, and 2 without a result when the checkout
holds no soundcue sources. baseline.json holds the figures measured on
the code before any optimisation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"

SETUP_PROBES = 11
MIN_PASSES = 3
RUN_LIMIT_S = 170.0  # every run must end within 180 s

E2E_UNITS = {
    "wall_s": "s",
    "audio_x_realtime": "x",
    "frames_per_s": "frames/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "recall": "ratio",
    "precision": "ratio",
}


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a pass failing)."""


def environment() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = {k: config["Build Dependencies"][k].get("openblas configuration") or config["Build Dependencies"][k].get("name")
                for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = None
    meminfo = Path("/proc/meminfo")
    mem_kb = None
    if meminfo.exists():
        for line in meminfo.read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "mem_total_mb": round(mem_kb / 1024) if mem_kb else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_fft": getattr(np.fft, "_pocketfft", np.fft).__name__,
        "blas": blas,
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                      "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
        },
        "platform": platform.platform(),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _setup_probe(prep, env: dict, timeout: float) -> float:
    cmd = [sys.executable, str(WORKER), "setup", prep.scene] + ([prep.manifest] if prep.manifest else [])
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed with exit code {proc.returncode}:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.split()[-1]) - start


def _one_pass(prep, work: Path, index: int, traced: bool, env: dict, timeout: float) -> dict:
    """Run one pass in a fresh process, check its files, then delete them."""
    from workloads import OUT

    out = work / f"out{index}"
    result_path = work / f"pass{index}.json"
    log_path = work / f"pass{index}.log"
    argv = [a.replace(OUT, str(out)) for a in prep.argv]
    cmd = [sys.executable, str(WORKER), "pass", str(result_path), "1" if traced else "0", str(index), *argv]
    started = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, timeout=timeout)
    record = {"traced": traced, "process_s": time.perf_counter() - started, "problems": []}
    if proc.returncode != 0 or not result_path.exists():
        tail = log_path.read_text(errors="replace")[-2000:]
        record["problems"].append(f"worker exited with code {proc.returncode}: {tail}")
        return record
    record.update(json.loads(result_path.read_text(encoding="utf-8")))
    if record["exit_code"] != 0:
        record["problems"].append(f"soundcue exited with code {record['exit_code']}")
    else:
        problems, record["recall"], record["precision"] = checks.check_outputs(prep, out)
        record["problems"] += problems
        record["digest"] = checks.digest(out)
    shutil.rmtree(out, ignore_errors=True)
    return record


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> tuple[dict, list]:
    """Measure one workload; returns the result object and report lines."""
    import workloads

    began = time.perf_counter()
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    env = _child_env()
    try:
        prep = workloads.prepare(name, seed, work / "in", smoke)
        setups = [_setup_probe(prep, env, 60) for _ in range(SETUP_PROBES)]

        passes, first_digest = [], None
        measure_start = time.perf_counter()
        min_passes = 2 if trace else MIN_PASSES
        while True:
            remaining = began + RUN_LIMIT_S - time.perf_counter()
            record = _one_pass(prep, work, len(passes), trace and len(passes) % 2 == 1, env, remaining)
            if "digest" in record:
                if first_digest is None:
                    first_digest = record["digest"]
                elif record["digest"] != first_digest:
                    record["problems"].append("outputs differ from the first pass")
            passes.append(record)
            longest = max(p["process_s"] for p in passes)
            now = time.perf_counter()
            if now + longest > began + RUN_LIMIT_S:
                break
            if len(passes) >= min_passes and now - measure_start + longest > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass
    return _summarize(name, prep, setups, passes, trace)


def _summarize(name, prep, setups, passes, trace) -> tuple[dict, list]:
    failed = [p for p in passes if p["problems"]]
    ok = [p for p in passes if "wall_s" in p]
    untraced = [p for p in ok if not p["traced"]]
    report = [f"workload {name}: {len(passes)} pass(es), {len(failed)} failed, {len(setups)} set-up probes"]
    for i, p in enumerate(passes):
        state = "FAILED: " + "; ".join(p["problems"]) if p["problems"] else "ok"
        wall = f"{p['wall_s']:.4f} s" if "wall_s" in p else "-"
        report.append(f"  pass {i} {'traced' if p['traced'] else 'untraced'} wall {wall} {state}")

    metrics = {}
    if untraced and not trace:
        wall = statistics.median(p["wall_s"] for p in untraced)
        rows = len(prep.objects) * prep.frames
        values = {
            "wall_s": wall,
            "audio_x_realtime": prep.audio_s / wall,
            "frames_per_s": rows / wall,
            "peak_rss_mb": statistics.median(p["maxrss_mb"] for p in untraced),
            "setup_s": statistics.median(setups),
            "recall": min(p.get("recall", 0.0) for p in passes),
            "precision": min(p.get("precision", 0.0) for p in passes),
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        report.append(f"  wall_s samples {sorted(round(p['wall_s'], 4) for p in untraced)}")
        report.append(f"  setup_s samples {sorted(round(s, 4) for s in setups)}")
    traced = sorted((p for p in ok if p["traced"]), key=lambda p: p["wall_s"])
    if trace and traced and untraced:
        chosen = traced[(len(traced) - 1) // 2]
        base = statistics.median(p["wall_s"] for p in untraced)
        values = tracing.layer_metrics(chosen["spans"], chosen["counters"], chosen["wall_s"], base)
        metrics = {k: {"value": v, "unit": tracing.METRICS[k]} for k, v in values.items()}
    width = max((len(k) for k in metrics), default=0)
    for key, m in metrics.items():
        note = "  (computed)" if key in tracing.COMPUTED else ""
        report.append(f"  {key:<{width}}  {m['value']:.6g} {m['unit']}{note}")
    failed_frac = len(failed) / len(passes) if passes else 1.0
    report.append(f"  {'failed_frac':<{width}}  {failed_frac:.6g} ratio")
    result = {
        "correct": bool(passes) and not failed and bool(metrics),
        "attempted": len(passes),
        "failed": len(failed),
        "metrics": metrics,
    }
    return result, report


def smoke() -> int:
    """Tiny inputs, both trace modes: every declared metric, with its unit."""
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    names = [w["name"] for w in declared["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {list(workloads.WORKLOADS)}")
    for name in workloads.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, report = run_workload(name, 1, 0.5, trace, smoke=True)
            print("\n".join(report))
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: incorrect")
            want = {m["name"]: m["unit"] for m in declared[section]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={int(trace)}: printed {got}, declared {want}")
            if trace and result["metrics"]:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                parts = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) + m["cli.self_s"]
                if abs(parts - m["trace.wall_s"]) > 1e-9 * max(1.0, m["trace.wall_s"]):
                    problems.append(f"{name}: layer self times sum to {parts}, traced wall is {m['trace.wall_s']}")
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("SMOKE PASS" if not problems else "SMOKE FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="soundcue benchmark")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "soundcue" / "__init__.py").is_file():
        print(f"bench: no soundcue sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.smoke:
        return smoke()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")

    print("environment " + json.dumps(environment(), sort_keys=True))
    results = {}
    try:
        for name in names:
            result, report = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(report), flush=True)
            results[name] = result
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        for name, result in results.items():
            print(f"{name} " + json.dumps(result))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
