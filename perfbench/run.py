"""wildsemi benchmark: one closed-loop client driving the CLI in-process.

    python3 perfbench/run.py --workload induct --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from its src/.
One run builds the workload's job set from the seed, then repeats it in
passes, one job after another, for about --seconds.  Every job's output is checked after its clock stops; a
wrong or failed job counts in `failed` and makes `correct` false.

--trace 0 reports the end-to-end metrics.  Their times are scaled to one
speed of the box (see boxspeed.py): each is a wall time times the ratio
of a reference chunk time to the chunk time sampled beside it, so that a
run on a slow phase of the shared host reads the same as one on a fast
phase.  The raw wall times are in the env line.

    setup_s      median of fresh interpreters importing wildsemi.cli and
                 loading the built-in cover, timed from process start;
                 two start before the first pass and one more per three
                 seconds of pass time after each pass, so the samples
                 span the whole run
    wall_s       one pass over the job set (run total / passes)
    cold_pass_s  the part of a pass that starts from an empty store
    warm_pass_s  one repeat of the window on the store the cold part
                 filled (store only; the other workloads keep no state
                 between invocations, so both equal wall_s there)
    jobs_per_s   verified invocations per second of job time
    job_p50_ms   median over the job set of each invocation's latency,
                 itself the mean over the passes
    peak_rss_mb  peak resident memory of the run

and prints job_p95_ms, which no workload but store has enough
invocations to estimate, and failed_share, which is 0 unless something
is wrong; neither is part of the JSON result.

--trace 1 alternates untraced and traced passes.  The traced passes
wrap the package's functions (see tracing.py) and report per-layer call
counts and self times; the untraced ones give the tracing overhead.
These times are raw wall times: the speed probe is off.
Exact counts must repeat across the passes of a run and across runs of
one seed on one version of the package; a record of them is kept under
perfbench/.work/counts/.

Lines before the last describe the run environment, every metric with
its unit, and failed_share; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import boxspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import wildsemi.cli; "
    "from wildsemi.residue import load_builtin_coverage; load_builtin_coverage(); "
    "print('ready', flush=True)"
)
HARD_STOP_S = 150  # no new pass starts after this, whatever --seconds says
SETUP_EVERY_S = 3.0  # one set-up sample per this many seconds of pass time


@dataclass
class Pass:
    traced: bool
    times: list[tuple[str, float]] = field(default_factory=list)  # (phase, seconds) per job
    clock: list[tuple[float, float]] = field(default_factory=list)  # (start, end) per job
    problems: list[str] = field(default_factory=list)
    tracer: tracing.Tracer | None = None

    def seconds(self, phase: str | None = None) -> float:
        return sum(t for p, t in self.times if phase is None or p == phase)

    def scaled(self, probe: boxspeed.SpeedProbe) -> "Pass":
        times = [(phase, probe.scaled(a, b, t)) for (phase, t), (a, b) in zip(self.times, self.clock)]
        return replace(self, times=times)


def setup_samples(repeats: int, probe: boxspeed.SpeedProbe) -> list[tuple[float, float, float]]:
    """(start, end, seconds) from process start to wildsemi ready, one per fresh interpreter.

    The probe keeps sampling in this process meanwhile.  Over 40 samples,
    scaling by those samples cut the spread of set-up times from 0.078
    to 0.051; scaling by chunks the fresh interpreter timed itself once
    ready raised it to 0.081.
    """
    samples = []
    for _ in range(repeats):
        spent = probe.spent
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            end = time.perf_counter()
            samples.append((start, end, end - start - (probe.spent - spent)))
            proc.stdout.read()
            rc = proc.wait()
        if line != "ready\n" or rc != 0:
            raise RuntimeError(f"set-up interpreter failed (exit {rc})")
    return samples


def import_package():
    if not (SRC / "wildsemi" / "cli.py").is_file():
        raise RuntimeError(f"no wildsemi sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy
    import wildsemi
    from wildsemi import certify, cli, core, residue, wildprove

    if not Path(wildsemi.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"wildsemi imported from {wildsemi.__file__}, not from {SRC}")
    modules = {"cli": cli, "core": core, "certify": certify, "residue": residue, "wildprove": wildprove}
    return modules, numpy.__version__


def corrupt(path: Path) -> None:
    """Raise the exponent of the last factor of a certificate file by one."""
    lines = path.read_text().splitlines()
    *head, exp = lines[-1].split()
    lines[-1] = " ".join(head + [str(int(exp) + 1)])
    path.write_text("\n".join(lines) + "\n")


def run_pass(workload: workloads.Workload, modules, probe: boxspeed.SpeedProbe, traced: bool, tamper: bool) -> Pass:
    record = Pass(traced=traced)
    workload.reset()
    if traced:
        record.tracer = tracing.Tracer()
        record.tracer.install(modules)
    cli = modules["cli"]
    try:
        for job in workload.jobs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                spent = probe.spent
                start = time.perf_counter()
                try:
                    result = cli.main(job.argv) if job.argv is not None else job.call()
                except Exception as exc:  # a traceback is a failed job, not a failed benchmark
                    result = exc
                end = time.perf_counter()
            record.times.append((job.phase, end - start - (probe.spent - spent)))
            record.clock.append((start, end))
            if tamper and job.cert_path is not None:
                corrupt(job.cert_path)
                tamper = False
            if isinstance(result, Exception):
                problem = f"raised {type(result).__name__}: {result}"
            else:
                problem = job.check(result, out.getvalue())
            if problem:
                record.problems.append(f"{job.label}: {problem}")
    finally:
        if record.tracer is not None:
            record.tracer.uninstall()
    return record


def job_set_digest(workload: workloads.Workload) -> str:
    """Names one version of the package and of this harness, with one job set."""
    h = hashlib.sha256()
    sources = sorted((SRC / "wildsemi").rglob("*")) + sorted(HERE.glob("*.py"))
    for path in sources:
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    h.update(json.dumps([job.label for job in workload.jobs]).encode())
    return h.hexdigest()[:16]


def check_counts_across_runs(workload: workloads.Workload, counts: dict) -> str | None:
    """Compare with the counts an earlier run of the same jobs and source recorded."""
    path = WORK / "counts" / f"{workload.name}-{job_set_digest(workload)}.json"
    if path.exists():
        before = json.loads(path.read_text())
        if before != counts:
            diff = sorted(k for k in set(before) | set(counts) if before.get(k) != counts.get(k))
            return f"exact counts differ from an earlier run of the same job set: {diff}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))
    return None


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, tuple[float, str]]:
    """Pass times are totals over the run divided by the number of passes.

    Passes repeat identical work, so their spread is the box, which on a
    shared 2-core machine switches between a fast and a slow state every
    half minute or so; a median over a handful of passes then jumps from
    one state to the other, while the run's total averages over both.
    """
    phases = list(dict.fromkeys(phase for phase, _ in passes[0].times))
    warm = [ph for ph in phases if ph != "cold"]
    total = sum(p.seconds() for p in passes)
    # a job's latency is its mean over the passes; the median is then
    # taken across the job set
    latencies = [statistics.mean(p.times[i][1] for p in passes) for i in range(len(passes[0].times))]
    verified = sum(len(p.times) - len(p.problems) for p in passes)
    cold_s = sum(p.seconds("cold") for p in passes) / len(passes)
    return {
        "wall_s": (total / len(passes), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "jobs_per_s": (verified / total, "1/s"),
        "job_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "cold_pass_s": (cold_s, "s"),
        # without a store no state is carried between invocations, so
        # every pass is both cold and warm
        "warm_pass_s": (
            sum(p.seconds(ph) for p in passes for ph in warm) / (len(passes) * len(warm)) if warm else cold_s,
            "s",
        ),
    }


def job_p95_ms(passes: list[Pass]) -> float:
    """95th percentile of invocation latency over all passes.

    Printed, not part of the result: only the store job set has the 200
    invocations a p95 needs to have ten samples beyond it.
    """
    latencies = [t for p in passes for _, t in p.times]
    if len(latencies) < 2:
        return latencies[0] * 1000
    return statistics.quantiles(latencies, n=20, method="inclusive")[18] * 1000


def per_layer(passes: list[Pass]) -> tuple[dict[str, tuple[float, str]], dict, str | None]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    per_pass = [p.tracer.metrics() for p in traced]
    metrics = {
        name: (statistics.median(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    traced_s = statistics.median(p.seconds() for p in traced)
    plain_s = statistics.median(p.seconds() for p in plain)
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    counts = traced[0].tracer.counts()
    problem = None
    if any(p.tracer.counts() != counts for p in traced[1:]):
        problem = "exact counts differ between traced passes of one run"
    return metrics, counts, problem


def largest_layer(metrics: dict) -> str:
    layers = {k: v for k, (v, _) in metrics.items() if k.startswith("layer.")}
    return max(layers, key=layers.get)


def run_workload(name, seed, seconds, trace, sizes, tamper=False):
    """One benchmark run; returns (result dict, report lines)."""
    loadavg = os.getloadavg()
    modules, numpy_version = import_package()
    workload = workloads.BUILDERS[name](seed, sizes, (WORK / name).relative_to(ROOT))

    # the probe stays closed in a traced run: its handler would land in
    # the self time of whichever span it interrupts
    probe = boxspeed.SpeedProbe()
    setup: list[tuple[float, float, float]] = []
    passes: list[Pass] = []
    with contextlib.nullcontext() if trace else probe:
        if not trace:
            setup += setup_samples(2, probe)
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            traced = trace and len(passes) % 2 == 1
            passes.append(run_pass(workload, modules, probe, traced, tamper=tamper and not passes))
            if trace:
                probe.sample()  # the box's speed between passes, for the env line
            else:
                setup += setup_samples(max(1, round(passes[-1].seconds() / SETUP_EVERY_S)), probe)
            now = time.perf_counter()
            # stop when another pass would end more than half a pass late, so
            # runs average close to --seconds of work whatever the pass length
            if len(passes) >= (2 if trace else 1) and (
                now + (now - pass_start) / 2 - start > seconds or now - start > HARD_STOP_S
            ):
                break

    problems = [f"pass {i}: {msg}" for i, p in enumerate(passes) for msg in p.problems]
    env_speed = {}
    if trace:
        metrics, counts, problem = per_layer(passes)
        problem = problem or check_counts_across_runs(workload, counts)
        if problem:
            problems.append(problem)
    else:
        scaled = [p.scaled(probe) for p in passes]
        setup_scaled = [probe.scaled(*sample) for sample in setup]
        metrics = end_to_end(scaled, statistics.median(setup_scaled))
        tail = job_p95_ms(scaled)
        env_speed = {
            "setup_ms": {
                "median": statistics.median(s for _, _, s in setup) * 1000,
                "scaled_median": statistics.median(setup_scaled) * 1000,
                "samples": len(setup),
            },
            "scaled_pass_s": [round(p.seconds(), 4) for p in scaled],
        }

    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.problems) for p in passes)
    chunk_ms = statistics.quantiles([c * 1000 for c in probe.chunk_s], n=10, method="inclusive")
    env = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "loadavg_at_start": loadavg,
        "chunk_ms": {
            "reference": boxspeed.REFERENCE_S * 1000,
            "p10": chunk_ms[0],
            "median": chunk_ms[4],
            "p90": chunk_ms[8],
            "samples": len(probe.chunk_s),
        },
        "passes": len(passes),
        "pass_s": [round(p.seconds(), 4) for p in passes],
        **env_speed,
        "jobs_per_pass": len(workload.jobs),
        "inputs": workload.inputs,
    }
    lines = [f"env {json.dumps(env)}"]
    lines += [f"metric {key} = {value:.6g} {unit}" for key, (value, unit) in metrics.items()]
    if not trace:
        lines.append(f"job_p95_ms = {tail:.6g} ms (over {len(workload.jobs)} jobs; not gated, see BENCHMARK.json)")
    lines.append(f"failed_share = {failed / attempted:.6g} ({failed} failed of {attempted} attempted jobs)")
    if trace:
        lines.append(f"largest layer by self time: {largest_layer(metrics)}")
    if trace and name == "store":
        put_share = metrics["wildprove.store.put.total_s"][0] / metrics["trace.wall_s"][0]
        lines.append(f"store.put inclusive share of a traced pass: {put_share:.3f}")
    lines += [f"FAIL {msg}" for msg in problems[:20]]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return result, lines


def smoke() -> list[str]:
    """Every workload at tiny sizes, both modes; returns what went wrong."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    for name in workloads.BUILDERS:
        for trace in (0, 1):
            result, lines = run_workload(name, 1, 0, trace, workloads.SMOKE)
            print("\n".join(lines))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                errors.append(f"{name} trace={trace}: metrics {got} != BENCHMARK.json {wanted[trace]}")
            if not result["correct"] or result["failed"]:
                errors.append(f"{name} trace={trace}: not correct")
    for name in ("primes", "store"):
        result, lines = run_workload(name, 1, 0, 0, workloads.SMOKE, tamper=True)
        if result["correct"] or result["failed"] != 1:
            errors.append(f"{name}: a corrupted certificate file passed the correctness gate")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=tuple(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, self-test")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    try:
        if args.smoke:
            errors = smoke()
            print("\n".join(errors) or "smoke: every metric present, gate fires on a corrupted certificate")
            return 1 if errors else 0
        if args.workload is None:
            parser.error("--workload is required")
        result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace, workloads.FULL)
    except (RuntimeError, ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
