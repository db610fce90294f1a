"""scqsim benchmark: batch-study workloads timed end to end and per layer.

Usage::

    python3 perfbench/run.py --workload qec_rb --seed 1 --seconds 25 --trace 0

Workloads (job lists in ``jobs.py``):

* ``lindblad_sweep``: two-tone spectroscopy points at the demo-02
  parameters, CLI ``evolve`` at the default dt, CLI ``experiment``
  rabi / t1 / ramsey with shot noise and their fits.  Nearly all of it is
  static-generator RK4 and per-sample repair in ``dynamics``.
* ``pulse_gates``: ``cz_adiabatic_simulate`` at three excursion lengths,
  plain and DRAG leakage, GRAPE (CLI default and the demo's bounded
  12-slice problem), CLI echo / gate / spectrum, and one driven
  ``lindblad_evolve``: the piecewise-propagator loops, ``expm_hermitian``
  and the time-dependent Lindblad path.
* ``qec_rb``: CLI ``qec`` threshold sweep at d = 3, 5 over p = 1e-3 .. 0.15,
  d = 5 tableau cycles, CLI ``rb`` standard and interleaved.  No Lindblad
  or expm work.  The d = 5, p = 0.15 point, and some d = 5, p = 0.08
  calls, abort on the decoder capacity today; they count as failed but
  leave the run correct.  Any other error or wrong answer makes it
  incorrect.

One client (this process) drives one worker process (``worker.py``) in a
closed loop, a job at a time, with BLAS pinned to one thread.  A run makes
passes of fresh job lists while another pass fits in ``--seconds``, and in
any case until ``MIN_SAMPLES`` job latencies and ``MIN_PASSES`` passes are
in hand.

Every job timing is expressed at one reference machine speed
(``calibrate.py``): on a shared 2-core machine the core speed was seen
to drift by up to 1.8x within a minute, and the benchmark's own probe
kernel, timed before, during and after each call, takes that drift out.
The unscaled figures are kept in the environment stamp.  Set-up and import
times are reported as measured.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median time from
a fresh interpreter to ``scqsim.cli`` imported), ``wall_s`` (median over
passes of the sum of a pass's job latencies, the benchmark's own checks
excluded), ``job_p50_ms`` / ``job_p90_ms`` (Harrell-Davis quantiles of
the pooled job latencies), ``peak_rss_mb`` of the worker and
``ops_ok_frac`` (jobs that neither raised nor failed their check, over jobs
attempted).  Latencies count only jobs that returned a checked result: a
job that aborts takes no time to a result, and the time of the expected
decoder-capacity aborts depends on where in the seeded draws the first
oversized syndrome falls.

``--trace 1`` prints the per-layer metrics: untraced and traced passes
alternate on the same job lists; the traced ones record a span per public
scqsim call (``tracing.py``) and give per-layer self time, calls and
errors per pass, plus ``trace.overhead_s``.  It adds the unit costs of
``units.py``, the per-module import time from ``python -X importtime``
and the input properties of the QEC jobs.

The last stdout line is the JSON result; the line before it stamps the
environment.  Spans, job records and output digests are written to
``.bench_out/`` at the root of the checkout.  ``--workload all`` runs every
workload with and without tracing and prints one metric per line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import betainc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import jobs as joblists  # noqa: E402
from calibrate import REFERENCE_S  # noqa: E402
from tracing import LAYERS  # noqa: E402

SETUP_RUNS = 6
IMPORT_RUNS = 3
MIN_SAMPLES = 100        # so that at least 10 job latencies lie beyond p90
MIN_PASSES = 4           # wall_s is a median over passes
LAST_PASS_START_S = 120  # hard stop, whatever --seconds says
PINS = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                         "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def child_env() -> dict:
    env = dict(os.environ, **PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """The worker process and its request / reply pipe."""

    def __init__(self, scratch: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(scratch)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT)

    def ask(self, op: str, **fields) -> dict:
        self.proc.stdin.write(json.dumps(dict(op=op, **fields)) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited during {op!r}")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"op": "exit"}) + "\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


def scaled(record: dict) -> float:
    """A job's latency at the reference speed of ``calibrate``, from the
    mean of the probes taken before, during and after it."""
    return record["elapsed_s"] * REFERENCE_S / record["probe_s"]


def ok(record: dict) -> bool:
    """The job returned a result that passed its check."""
    return not (record["error"] or record["wrong"])


def run_pass(worker: Worker, jobs: list) -> tuple:
    """Runs a job list; returns its wall time (sum of the scaled latencies
    of the jobs that returned a checked result) and the job records."""
    records = [worker.ask("job", job=job) for job in jobs]
    return sum(scaled(r) for r in records if ok(r)), records


# a fresh interpreter: import scqsim.cli and print the time it is ready
SETUP_CODE = "import time; import scqsim.cli; print(time.perf_counter())"


def timed_imports(n: int, extra=()) -> tuple:
    """Times from the start of each of ``n`` fresh interpreters to
    scqsim.cli imported, unscaled, and their stderr."""
    raw, logs = [], []
    for _ in range(n):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *extra, "-c", SETUP_CODE],
                              env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, check=True)
        raw.append(float(proc.stdout) - start)
        logs.append(proc.stderr)
    return raw, logs


def import_ms(log: str) -> dict:
    """Per layer: self import time plus the non-scqsim imports it pulled in
    first, from one ``-X importtime`` log (children print before parents)."""
    pending = {}
    out = {}
    for line in log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line.split("|")
        try:
            self_us, cum_us = int(fields[0].split(":")[1]), int(fields[1])
        except ValueError:
            continue                                   # the header line
        raw = fields[2][1:]
        depth = (len(raw) - len(raw.lstrip(" "))) // 2
        name = raw.strip()
        children = pending.pop(depth + 1, [])
        pending.setdefault(depth, []).append((name, cum_us))
        if name.startswith("scqsim."):
            layer = name.split(".", 1)[1]
            outside = sum(c for n, c in children if not n.startswith("scqsim"))
            out[layer] = (self_us + outside) / 1e3
    return out


def percentile(values: list, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: a weighted mean of all
    order statistics, with Beta((n + 1) q, (n + 1)(1 - q)) weights.  Job
    latencies come in groups of one kind each, and a nearest-rank
    percentile that falls between two groups jumps from one to the other
    with the noise of a single job."""
    ordered = np.sort(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    return float(np.diff(betainc(a, b, np.arange(n + 1) / n)) @ ordered)


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def deterministic(workload: str, seed: int) -> bool:
    a = [joblists.pass_jobs(workload, seed, k) for k in range(3)]
    b = [joblists.pass_jobs(workload, seed, k) for k in range(3)]
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def qec_names() -> list:
    return [f"surface_code.{m}.d{d}_p{p:g}"
            for d, p in joblists.QEC_POINTS
            for m in ("nontrivial_shot_frac", "distinct_syndrome_frac", "max_defects")]


def measure(worker: Worker, workload: str, seed: int, seconds: float,
            trace: bool, tag: str) -> dict:
    """Passes of fresh job lists; with ``trace`` each is run again traced."""
    m = {"walls": [], "traced_walls": [], "records": [], "traced_records": [],
         "layer_runs": [], "qec_jobs": [], "passes": 0}
    durations = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        full = trace or (sum(map(ok, m["records"])) >= MIN_SAMPLES
                         and m["passes"] >= MIN_PASSES)
        # stop before a pass that would run past --seconds, once enough is in
        if durations and ((full and elapsed + statistics.median(durations) > seconds)
                          or elapsed > LAST_PASS_START_S):
            return m
        jobs = joblists.pass_jobs(workload, seed, m["passes"])
        m["qec_jobs"] += [j for j in jobs if j["kind"] == "cli_qec"]
        wall, records = run_pass(worker, jobs)
        m["walls"].append(wall)
        m["records"] += records
        if trace:
            worker.ask("trace_on")
            wall, records = run_pass(worker, jobs)
            m["layer_runs"].append(worker.ask("trace_off", spans_path=str(
                OUT / f"spans-{tag}-p{m['passes']}.jsonl")))
            m["traced_walls"].append(wall)
            m["traced_records"].append(records)
        m["passes"] += 1
        durations.append(time.perf_counter() - start - elapsed)


def end_to_end(m: dict, setup: list, rss: float) -> dict:
    lat = [scaled(r) * 1e3 for r in m["records"] if ok(r)]
    failed = sum(1 for r in m["records"] if not ok(r))
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(m["walls"]), "s"),
        "job_p50_ms": (percentile(lat, 0.5), "ms"),
        "job_p90_ms": (percentile(lat, 0.9), "ms"),
        "peak_rss_mb": (rss, "MB"),
        "ops_ok_frac": (1 - failed / len(m["records"]), "frac"),
    }


def raw_end_to_end(m: dict) -> dict:
    """The timings of ``end_to_end`` before scaling, for the record."""
    done = [r for r in m["records"] if ok(r)]
    lat = [r["elapsed_s"] * 1e3 for r in done]
    passes = {}
    for r in done:
        key = r["id"].split("-", 1)[0]
        passes[key] = passes.get(key, 0.0) + r["elapsed_s"]
    return {"wall_s": statistics.median(passes.values()),
            "job_p50_ms": percentile(lat, 0.5), "job_p90_ms": percentile(lat, 0.9)}


def per_layer(m: dict, imports: dict, unit: dict, qec: dict) -> dict:
    totals = {layer: [0.0, 0, 0] for layer in LAYERS}
    for run, records in zip(m["layer_runs"], m["traced_records"]):
        scale = {r["id"]: REFERENCE_S / r["probe_s"] for r in records}
        for job, layers in run["layers"].items():
            for layer, (self_s, calls, errors) in layers.items():
                totals[layer][0] += self_s * scale[job]
                totals[layer][1] += calls
                totals[layer][2] += errors
    runs = len(m["layer_runs"])
    out = {}
    for layer in LAYERS:
        self_s, calls, errors = totals[layer]
        out[f"{layer}.self_s"] = (self_s / runs, "s")
        out[f"{layer}.calls"] = (calls / runs, "count")
        out[f"{layer}.errors"] = (errors / runs, "count")
    for layer in LAYERS:
        out[f"{layer}.import_ms"] = (imports.get(layer, 0.0), "ms")
    for name, value in unit.items():
        out[name] = (value, "us" if "_us" in name else "ms")
    for name in qec_names():
        out[name] = (qec.get(name, 0), "count" if ".max_defects." in name else "frac")
    out["trace.overhead_s"] = (statistics.median(m["traced_walls"])
                               - statistics.median(m["walls"]), "s")
    return out


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, one metric per output line."""
    for workload in joblists.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            print(f"{workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=joblists.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if not (SRC / "scqsim" / "__init__.py").is_file():
        print(f"no scqsim sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    scratch = ROOT / ".bench_run" / str(os.getpid())
    checks = {"job_list_deterministic": deterministic(args.workload, args.seed)}
    setup_raw, import_logs = [], []
    worker = Worker(scratch)
    try:
        env = worker.ask("env")
        if Path(env["scqsim_path"]).resolve() != (SRC / "scqsim").resolve():
            raise RuntimeError(f"worker imported scqsim from {env['scqsim_path']}")
        timed_imports(1)                    # compile bytecode once, untimed
        if args.trace:
            _, import_logs = timed_imports(IMPORT_RUNS, ["-X", "importtime"])
        else:
            setup_raw, _ = timed_imports(SETUP_RUNS)
        m = measure(worker, args.workload, args.seed, args.seconds,
                    bool(args.trace), tag)
        unit = qec = {}
        if args.trace:
            unit = worker.ask("units")
            qec = worker.ask("qec_props", jobs=m["qec_jobs"]) if m["qec_jobs"] else {}
            checks["trace_wrappers_removed"] = all(r["restored"] for r in m["layer_runs"])
        rss = worker.ask("rss")["peak_rss_mb"]
    finally:
        worker.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    records = m["records"] + [r for recs in m["traced_records"] for r in recs]
    # import times are reported as measured: an import is half a second of
    # file reads, unmarshalling and dlopen whose speed the probe kernel,
    # timed in the same interpreter or over the whole run, did not predict
    parsed = [import_ms(log) for log in import_logs]
    imports = {layer: statistics.median(p.get(layer, 0.0) for p in parsed)
               for layer in LAYERS} if parsed else {}
    metrics = (per_layer(m, imports, unit, qec) if args.trace
               else end_to_end(m, setup_raw, rss))
    checks["metric_names_match"] = sorted(metrics) == sorted(wanted)
    if not checks["metric_names_match"]:
        print(f"metric names differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(wanted))}", file=sys.stderr)
        return 1

    failed = [r for r in records if not ok(r)]
    # a wrong answer, or any error but the known decoder-capacity aborts
    # (worker.expected_failure), makes the run incorrect
    bad = [r for r in failed if r["wrong"] or not r["expected"]]
    for r in bad[:10]:
        print(f"job {r['id']}: {r['wrong'] or r['error']}", file=sys.stderr)
    n = sum(map(ok, m["records"]))        # the latencies behind p50 and p90
    stamp = dict(env, git_commit=git_commit(), workload=args.workload,
                 seed=args.seed, trace=args.trace, passes=m["passes"],
                 job_samples=n, beyond_p90=n - math.ceil(0.9 * n),
                 setup_samples=len(setup_raw), self_checks=checks,
                 reference_probe_s=REFERENCE_S,
                 median_probe_s=statistics.median(r["probe_s"] for r in records),
                 unscaled=raw_end_to_end(m))
    (OUT / f"result-{tag}.json").write_text(json.dumps({
        "environment": stamp, "setup_s": setup_raw,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "pass_walls_s": m["walls"], "traced_pass_walls_s": m["traced_walls"],
        "jobs": records}, indent=1))
    print("env " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": not bad and all(checks.values()),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
