"""walkdyn benchmark: three seeded, closed-loop workloads with one client each.

    python3 bench/run.py --workload certify|orbit|cli|all --seed N \\
        --seconds S --trace 0|1 [--smoke]

Workloads (see bench/README.md for why each exists and which layer metric
should move which end-to-end metric):

  certify  certificates in process: right inverse and kernel bases
  orbit    long forward iterations in process: apply and FinSeq arithmetic
  cli      one `python -m walkdyn.cli` subprocess per job, all subcommands

With --trace 0 the run measures jobs for --seconds seconds, untraced, and
reports the end-to-end metrics.  With --trace 1 it runs the same job list
twice, untraced and then under the outside-in tracer (bench/tracer.py),
and reports the per-layer metrics.  Every job's output is checked against
an independent reference (bench/checks.py); failures count in `failed`.
An `undetermined` where the reference decides is sound, so it is not a
failure; such jobs are counted and listed as undecided.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  A full
report, and the spans of a traced run, are written under .bench_out/.
--smoke shrinks every input so that a one-second run exercises the
harness end to end.
"""

from __future__ import annotations

import time

# set-up is timed from here, so the imports below (numpy among them) count in it
START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import jobs as J  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("certify", "orbit", "cli")
REPEATS = 5  # fresh processes per set-up or interpreter probe; medians are reported
JOB_TIMEOUT_S = 120.0

# name, unit; the contract file BENCHMARK.json lists the same names.
END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
)

LAYERS = ("seqspace", "operators", "inverse_kernel", "classify", "spectral",
          "dynamics", "walk_oracle", "cli")
CORE = ("seqspace", "operators", "inverse_kernel")

# Per-layer metrics.  Counts and times are per traced job, so runs that
# fit a different number of jobs into their time stay comparable.
PER_LAYER = (
    ("operators.apply.calls", "calls/job"),
    ("operators.apply.self_s", "s/job"),
    ("operators.apply.entries", "entries/job"),
    ("operators.apply.ns_per_entry", "ns/entry"),
    ("operators.apply_transpose.calls", "calls/job"),
    ("operators.apply_transpose.self_s", "s/job"),
    ("operators.apply_transpose.entries", "entries/job"),
    ("seqspace.arith.calls", "calls/job"),
    ("seqspace.arith.self_s", "s/job"),
    ("seqspace.arith.entries", "entries/job"),
    ("seqspace.norm.calls", "calls/job"),
    ("seqspace.norm.self_s", "s/job"),
    ("inverse_kernel.right_inverse.calls", "calls/job"),
    ("inverse_kernel.right_inverse.self_s", "s/job"),
    ("inverse_kernel.right_inverse.entries", "entries/job"),
    ("inverse_kernel.right_inverse.tail_errors", "1/job"),
    ("inverse_kernel.kernel_basis.calls", "calls/job"),
    ("inverse_kernel.kernel_basis.self_s", "s/job"),
    ("inverse_kernel.kernel_basis.window_rows", "rows/job"),
    ("inverse_kernel.kernel_basis.kept_ratio", "ratio"),
    ("inverse_kernel.kernel_window_for_tol.calls", "calls/job"),
    ("inverse_kernel.kernel_window_for_tol.self_s", "s/job"),
    ("inverse_kernel.kernel_window_for_tol.cap_hits", "1/job"),
    ("dynamics.fhc_chaos_certificate.self_s", "s/job"),
    ("dynamics.supercyclicity_criterion_certificate.self_s", "s/job"),
    ("dynamics.orbit_density_probe.self_s", "s/job"),
    ("dynamics.constant_tail_obstruction.self_s", "s/job"),
    ("dynamics.line_walk_lower_bound.self_s", "s/job"),
    ("dynamics.verdict.yes", "1/job"),
    ("dynamics.verdict.no", "1/job"),
    ("dynamics.verdict.undetermined", "1/job"),
    ("classify.classify.calls", "calls/job"),
    ("classify.classify.self_s", "s/job"),
    ("spectral.point_spectrum_probe.calls", "calls/job"),
    ("spectral.point_spectrum_probe.self_s", "s/job"),
    ("spectral.certified_disk_radius.self_s", "s/job"),
    ("spectral.dual_point_spectrum_report.self_s", "s/job"),
    ("walk_oracle.estimate_transition.calls", "calls/job"),
    ("walk_oracle.estimate_transition.self_s", "s/job"),
    ("walk_oracle.steps", "steps/job"),
    ("walk_oracle.ns_per_step", "ns/step"),
    ("cli.interp_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s/job"),
    ("cli.emit.bytes", "bytes/job"),
    ("checks.undecided_share", "fraction"),
) + tuple((f"{layer}.self_s", "s/job") for layer in LAYERS) + (
    ("harness.self_s", "s/job"),
    ("trace.jobs", "jobs"),
    ("trace.job_s", "s/job"),
    ("trace.core_share", "fraction"),
    ("trace.overhead_frac", "fraction"),
)


# -- environment -----------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("WALKDYN_TOL", None)  # the CLI must see only the generated inputs
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def import_walkdyn():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import walkdyn

    return walkdyn


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


# -- running one job -------------------------------------------------------


def run_cli(argv) -> tuple[int, str, str, int, float]:
    """One CLI subprocess: (exit code, stdout, stderr, max RSS KiB, seconds)."""
    with tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "walkdyn.cli", *argv],
            stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT,
        )
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        finally:
            timer.cancel()
            proc.stdout.close()
        # wait4 rather than wait: it returns this child's own peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        dt = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return (proc.returncode, out.decode("utf-8", "replace"),
                err.read().decode("utf-8", "replace"), usage.ru_maxrss, dt)


def replay_cli(cli, argv) -> tuple[int, str]:
    """Run walkdyn.cli.main(argv) in process with stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


class Outcome:
    """Failed and undecided jobs of one run, with the inputs behind them."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []
        self.undecided: list[dict] = []

    def record(self, job, reason) -> None:
        self.attempted += 1
        if isinstance(reason, checks.Undecided):
            self.undecided.append({"job": J.describe(job), "reason": str(reason)})
        elif reason is not None:
            self.failures.append({"job": J.describe(job), "reason": reason})


def _run_inprocess(wd, job):
    """(digest of the output, failure reason or None, raw result)."""
    try:
        res = J.run_job(wd, job)
    except Exception as exc:  # a job that raises is a failed job
        return None, f"raised {type(exc).__name__}: {exc}", None
    return repr(res), None, res


# -- set-up ------------------------------------------------------------------


def setup_probe(args) -> int:
    """Child mode: one set-up, timed from this process's start."""
    gen = J.stream(args.workload, args.seed, args.smoke)
    if args.workload == "cli":
        t0 = time.perf_counter()
        next(gen)
        code, *_ = run_cli(J.WARMUPS["cli"]["argv"])
        if code != 0:
            return 1
    else:
        t0 = START
        wd = import_walkdyn()
        next(gen)
        J.run_job(wd, J.WARMUPS[args.workload])
    print(repr(time.perf_counter() - t0))
    return 0


def _probe_once(argv, env) -> float:
    res = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT,
                         timeout=JOB_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {res.stderr.strip()[-500:]}")
    return float(res.stdout.strip().splitlines()[-1])


def setup_argv(args) -> list[str]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    return argv + (["--smoke"] if args.smoke else [])


def _timed_python(code: str) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT, check=True,
                   capture_output=True, timeout=JOB_TIMEOUT_S)
    return time.perf_counter() - t0


def interpreter_probes() -> tuple[float, float]:
    """(median bare interpreter start, median import walkdyn.cli on top of it)."""
    interp = statistics.median(_timed_python("pass") for _ in range(REPEATS))
    imp = statistics.median(_timed_python("import walkdyn.cli") for _ in range(REPEATS))
    return interp, imp - interp


# -- untraced run: end-to-end metrics ---------------------------------------


def percentile_90(times):
    return statistics.quantiles(times, n=10)[8] if len(times) >= 2 else times[0]


def run_untraced(args, wd) -> tuple[dict, Outcome, dict]:
    gen = J.stream(args.workload, args.seed, args.smoke)
    outcome = Outcome()
    times: list[float] = []
    by_kind: dict[str, list[float]] = {}
    rss_kib = 0
    setup: list[float] = []
    probe = setup_argv(args)
    gc.collect()
    # The set-ups are spread evenly over the run rather than made back to
    # back, so that their median samples the machine over the same span as
    # the jobs do.  Time spent in them does not count towards --seconds.
    start, paused = time.perf_counter(), 0.0
    while (ran := time.perf_counter() - start - paused) < args.seconds:
        if len(setup) < REPEATS and ran >= args.seconds * len(setup) / REPEATS:
            t0 = time.perf_counter()
            setup.append(_probe_once(probe, child_env()))
            paused += time.perf_counter() - t0
            continue
        job = next(gen)
        if job["kind"] == "cli":
            code, out, err, child_rss, dt = run_cli(job["argv"])
            rss_kib = max(rss_kib, child_rss)
            reason = checks.check_cli(job, code, out)
            if reason is not None and not isinstance(reason, checks.Undecided) and err.strip():
                reason += f" [stderr: {err.strip()[-200:]}]"
        else:
            t0 = time.perf_counter()
            _, reason, res = _run_inprocess(wd, job)
            dt = time.perf_counter() - t0
            if reason is None:
                reason = checks.check_result(job, res)
        times.append(dt)
        by_kind.setdefault(job.get("expect", job["kind"]), []).append(dt * 1e3)
        outcome.record(job, reason)
    while len(setup) < REPEATS:  # a run too short for every set-up slot
        setup.append(_probe_once(probe, child_env()))
    if args.workload != "cli":
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ms = sorted(t * 1e3 for t in times)
    p90 = percentile_90(ms)
    metrics = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": len(times) / sum(times),
        "job_ms_p50": statistics.median(ms),
        "job_ms_p90": p90,
        "peak_rss_mb": rss_kib / 1024.0,
    }
    samples = {
        "setup_runs_s": setup,
        "jobs": len(times),
        "job_ms_p50": len(ms),
        "job_ms_p90": len(ms),
        "beyond_p90": sum(1 for t in ms if t > p90),
        "by_kind_count_mean_ms": {
            k: [len(v), round(statistics.fmean(v), 2)] for k, v in sorted(by_kind.items())
        },
    }
    return metrics, outcome, samples


# -- traced run: per-layer metrics -------------------------------------------


def _pass(wd, jobs, tracer=None) -> tuple[list, float, int]:
    """Run a job list once: ([(job, output digest, failure)], job seconds, bytes)."""
    results, total, emitted = [], 0.0, 0
    for k, job in enumerate(jobs):
        if job["kind"] == "cli":
            call = lambda job=job: replay_cli(wd.cli, job["argv"])  # noqa: E731
        else:
            call = lambda job=job: _run_inprocess(wd, job)  # noqa: E731
        t0 = time.perf_counter()
        out = tracer.job_span(k, call) if tracer else call()
        total += time.perf_counter() - t0
        if job["kind"] == "cli":
            code, stdout = out
            emitted += len(stdout.encode("utf-8"))
            results.append((job, (code, stdout), checks.check_cli(job, code, stdout)))
        else:
            digest, reason, res = out
            if reason is None:
                reason = checks.check_result(job, res)
            results.append((job, digest, reason))
    return results, total, emitted


def run_traced(args, wd) -> tuple[dict, Outcome, dict]:
    import walkdyn.cli  # noqa: F401  (loaded before wrapping, replayed by cli)

    interp_s, import_s = interpreter_probes()
    gen = J.stream(args.workload, args.seed, args.smoke)
    if args.workload == "cli":
        replay_cli(wd.cli, J.WARMUPS["cli"]["argv"])
    # untraced pass over half the time fixes the job list for both passes
    jobs, plain, untraced = [], [], 0.0
    gc.collect()
    deadline = time.perf_counter() + args.seconds / 2.0
    while time.perf_counter() < deadline:
        jobs.append(next(gen))
        done, secs, _ = _pass(wd, jobs[-1:])
        plain += done
        untraced += secs
    gc.collect()
    with Tracer(wd) as tracer:
        traced, traced_s, emitted = _pass(wd, jobs, tracer)

    outcome = Outcome()
    for (job, digest, reason), (_, digest_t, reason_t) in zip(plain, traced):
        outcome.record(job, reason)
        if (reason_t is None or isinstance(reason_t, checks.Undecided)) and digest_t != digest:
            reason_t = "traced output differs from the untraced output"
        outcome.record(job, reason_t)

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.csv.gz")
    metrics = layer_metrics(tracer, len(jobs), traced_s, untraced, emitted)
    metrics["cli.interp_s"] = interp_s
    metrics["cli.import_s"] = import_s
    metrics["checks.undecided_share"] = len(outcome.undecided) / outcome.attempted
    return metrics, outcome, {"jobs": len(jobs), "spans": len(tracer.start)}


def layer_metrics(tracer, n_jobs, traced_s, untraced_s, emitted) -> dict:
    st = tracer.self_times()
    counts = tracer.counts
    job_s = tracer.job_seconds()

    def calls(name):
        return st.get(name, (0, 0.0))[0]

    def self_s(name):
        return st.get(name, (0, 0.0))[1]

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    m = {
        "operators.apply.ns_per_entry": ratio(
            self_s("operators.apply"), counts.get("operators.apply.entries", 0.0), 1e9),
        "inverse_kernel.kernel_basis.kept_ratio": ratio(
            counts.get("inverse_kernel.kernel_basis.kept", 0.0),
            counts.get("inverse_kernel.kernel_basis.computed", 0.0)),
        "walk_oracle.ns_per_step": ratio(
            self_s("walk_oracle.estimate_transition"),
            counts.get("walk_oracle.steps", 0.0), 1e9),
        "cli.emit.bytes": emitted / n_jobs,
        "harness.self_s": self_s("job") / n_jobs,
        "trace.jobs": float(n_jobs),
        "trace.job_s": job_s / n_jobs,
        "trace.core_share": ratio(
            sum(s for k, (_, s) in st.items() if k.split(".", 1)[0] in CORE), job_s),
        "trace.overhead_frac": ratio(traced_s, untraced_s) - 1.0,
    }
    for name, _unit in PER_LAYER:
        span, _, leaf = name.rpartition(".")
        if name in m or name in ("cli.interp_s", "cli.import_s", "checks.undecided_share"):
            continue
        if leaf == "calls":
            m[name] = calls(span) / n_jobs
        elif leaf == "self_s" and span in LAYERS:
            m[name] = sum(s for k, (_, s) in st.items() if k.startswith(span + ".")) / n_jobs
        elif leaf == "self_s":
            m[name] = self_s(span) / n_jobs
        else:
            m[name] = counts.get(name, 0.0) / n_jobs
    return m


# -- reporting ---------------------------------------------------------------


def emit(args, env, metrics, units, outcome, samples) -> None:
    attempted = outcome.attempted
    failed = len(outcome.failures)
    values = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}{'  smoke' if args.smoke else ''}")
    print("env " + "  ".join(f"{k}={env[k]}" for k in
                             ("git_sha", "python", "numpy", "nproc", "cpu")))
    print(f"samples {json.dumps(samples)}")
    width = max(len(n) for n in units)
    for name, unit in units.items():
        note = ""
        if name == "setup_s":
            note = (f"  (median of {len(samples['setup_runs_s'])} set-ups in fresh "
                    "processes, spread over the run)")
        elif name == "job_ms_p50":
            note = f"  (n={samples['job_ms_p50']})"
        elif name == "job_ms_p90":
            note = f"  (n={samples['job_ms_p90']}, {samples['beyond_p90']} beyond)"
        print(f"{name:<{width}}  {metrics[name]:.6g} {unit}{note}")
    print(f"{'error_rate':<{width}}  {failed / attempted:.6g} fraction  "
          f"({failed} failed of {attempted} attempted)")
    undecided = len(outcome.undecided)
    print(f"{'undecided':<{width}}  {undecided} of {attempted} jobs answered undetermined "
          "where the reference decides (sound, not failures)")
    for f in outcome.failures[:10]:
        print(f"FAILED {f['job']}: {f['reason']}")
    if failed > 10:
        print(f"... {failed - 10} more failures in the report file")
    for u in outcome.undecided[:5]:
        print(f"UNDECIDED {u['job']}: {u['reason']}")
    if undecided > 5:
        print(f"... {undecided - 5} more undecided jobs in the report file")
    OUT.mkdir(exist_ok=True)
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({
        "environment": env, "samples": samples, "metrics": values,
        "attempted": attempted, "failed": failed,
        "failures": outcome.failures, "undecided": outcome.undecided,
    }, indent=1) + "\n")
    print(f"report {report.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
    }))


def run_all(args) -> int:
    """Each workload in its own fresh process; metrics prefixed by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        res = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        lines = res.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if res.returncode != 0 or not lines:
            sys.stderr.write(res.stderr)
            return res.returncode or 1
        last = json.loads(lines[-1])
        total["correct"] &= last["correct"]
        total["attempted"] += last["attempted"]
        total["failed"] += last["failed"]
        total["metrics"].update({f"{w}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "walkdyn" / "__init__.py").is_file():
        print(f"error: walkdyn sources not found under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)

    env = environment(args)
    wd = None
    if args.trace or args.workload != "cli":
        wd = import_walkdyn()
    if args.workload != "cli":
        J.run_job(wd, J.WARMUPS[args.workload])

    if args.trace:
        metrics, outcome, samples = run_traced(args, wd)
        units = dict(PER_LAYER)
    else:
        metrics, outcome, samples = run_untraced(args, wd)
        units = dict(END_TO_END)
    emit(args, env, metrics, units, outcome, samples)
    return 0


if __name__ == "__main__":
    sys.exit(main())
