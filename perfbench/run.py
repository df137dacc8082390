"""transposim benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --self-test

Run from the repository root.  With --trace 0 the last stdout line is a JSON
object carrying the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of a traced run (see NOTES.md).  Each workload is one
single-threaded closed-loop client; the BLAS/OpenMP pools are pinned to one
thread here and in every child process.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, so the pools start with one thread
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import workloads as wls  # noqa: E402
from tracer import LAYERS, Tracer, merge  # noqa: E402

SETUP_SAMPLES = 5  # this process plus four fresh interpreters
IMPORT_SAMPLES = 3
BLOCK = 32  # in-process ops per untraced/traced block of a traced run

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (span or counter name, statistic); see NOTES.md for the
# end-to-end metric each one is expected to move
SPAN_METRICS = {
    "linalg.DensityMatrix.calls_per_op": ("linalg.DensityMatrix", "calls"),
    "linalg.Operator.calls_per_op": ("linalg.Operator", "calls"),
    "linalg.DensityMatrix.self_us_per_op": ("linalg.DensityMatrix", "self_us"),
    "linalg.partial_transpose.self_us_per_op": ("linalg.partial_transpose", "self_us"),
    "witness.detect.self_us_per_op": ("witness.detect", "self_us"),
    "witness.ppt_check.self_us_per_op": ("witness.ppt_check", "self_us"),
    "estimator.detect_with_confidence.self_us_per_op": ("estimator.detect_with_confidence",
                                                         "self_us"),
    "channels.apply_channel.self_us_per_op": ("channels.apply_channel", "self_us"),
    "channels.apply_to_factor.self_us_per_op": ("channels.apply_to_factor", "self_us"),
    "channels.measure_prepare_from_design.self_us_per_op": (
        "channels.measure_prepare_from_design", "self_us"),
    "channels.channel_from_measure_prepare.self_us_per_op": (
        "channels.channel_from_measure_prepare", "self_us"),
    "channels.kraus_ops.calls_per_op": ("channels.kraus_ops", "calls"),
    "designs.sic_from_fiducial.self_us_per_op": ("designs.sic_from_fiducial", "self_us"),
    "designs.mub_prime.self_us_per_op": ("designs.mub_prime", "self_us"),
    "designs.hw_orbit.calls_per_op": ("designs.hw_orbit", "calls"),
    "designs.fiducial_search.self_ms_per_op": ("designs.fiducial_search", "self_ms"),
    "twostep.build_two_step.calls_per_op": ("twostep.build_two_step", "calls"),
    "twostep.build_two_step.self_us_per_op": ("twostep.build_two_step", "self_us"),
    "twostep.simulate_circuit.self_us_per_op": ("twostep.simulate_circuit", "self_us"),
    "optics.build_fig2_pipeline.self_us_per_op": ("optics.build_fig2_pipeline", "self_us"),
    "optics.run_pipeline.self_us_per_op": ("optics.run_pipeline", "self_us"),
    "fileio.parse_state_file.self_us_per_op": ("fileio.parse_state_file", "self_us"),
    "fileio.write_json.self_us_per_op": ("fileio.write_json", "self_us"),
}
COUNT_METRICS = {
    "numpy.eigvalsh.calls_per_op": "numpy.eigvalsh",
    "numpy.eigh.calls_per_op": "numpy.eigh",
    "designs.minimize.calls_per_op": "designs.minimize",
    "designs.minimize.nit_per_op": "designs.minimize.nit",
}
UNITS = {"calls": "calls/op", "self_us": "us/op", "self_ms": "ms/op"}
# layers whose self time should hold most of a workload's op time; on
# fiducial-search it is the inclusive time of designs.fiducial_search, on
# cli-session the cold import's share of the median call
TARGET_LAYERS = {
    "detect-stream": ("linalg", "witness"),
    "realize-transpose": ("channels", "designs", "twostep", "optics"),
}
CRITERIA = [f"criterion_{i:02d}" for i in range(1, 14)]


def per_layer_names() -> list:
    names = list(SPAN_METRICS) + list(COUNT_METRICS)
    names += ["witness.multipartite_aew.self_ms", "cli.import_over_numpy_s",
              "cli.import_share_of_p50"]
    names += [f"cli.{sub}.p50_ms" for sub in wls.CliSession.SUBCOMMANDS]
    names += [f"acceptance.{c}.s" for c in CRITERIA]
    names += [f"{layer}.self_share" for layer in LAYERS]
    names += ["trace.target_share", "trace.untraced_ops_per_s", "trace.traced_ops_per_s",
              "trace.overhead_ratio", "trace.traced_ops"]
    return names


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def quantile_ms(lat_ns, q) -> float:
    return float(np.percentile(np.asarray(lat_ns, dtype=float), q)) / 1e6


def provenance(seed: int) -> dict:
    try:
        # the ceiling keeps git from finding a repository above the checkout
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, check=True,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
                                ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    digest = hashlib.sha256()
    for path in sorted((SRC / "transposim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
    }


def child_env() -> dict:
    pp = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + pp if pp else ""))


def time_setup_in_children(name: str, count: int) -> list:
    out = []
    for _ in range(count):
        res = subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-only",
                              "--workload", name], capture_output=True, text=True,
                             env=child_env(), cwd=ROOT, timeout=120, check=True)
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def import_over_numpy(count: int) -> list:
    """Cold `import transposim` in a fresh interpreter, after a bare `import numpy`."""
    code = ("import time; t0 = time.perf_counter(); import numpy; "
            "t1 = time.perf_counter(); import transposim; print(time.perf_counter() - t1)")
    return [float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 env=child_env(), cwd=ROOT, timeout=120,
                                 check=True).stdout.strip()) for _ in range(count)]


class Loop:
    """Closed-loop execution with per-op latency, outcome and error records."""

    def __init__(self, wl):
        self.wl = wl
        self.errors: dict = {}
        self.outcomes = Counter()
        self.attempted = []

    def execute(self, item, traced: bool = False):
        t0 = perf_counter_ns()
        try:
            out = self.wl.run(item, traced)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            dt = perf_counter_ns() - t0
            key = type(exc).__name__
            if key not in self.errors:
                self.errors[key] = traceback.format_exc()
                print(f"op failed: {self.errors[key]}", file=sys.stderr)
            self.outcomes[wls.FAILED] += 1
            return dt, None
        dt = perf_counter_ns() - t0
        self.outcomes[self.wl.check(item, out)] += 1
        return dt, out


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def run_plain(wl, items, seconds: float, setup_first: float) -> tuple[dict, Loop, dict]:
    # half the fresh set-ups before the timed loop and half after, so their
    # median spans the run rather than one moment of a host whose speed drifts
    before = (SETUP_SAMPLES - 1) // 2
    setups = [setup_first] + time_setup_in_children(wl.name, before)
    loop = Loop(wl)
    lat, rss_kb = [], 0
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline:
        item = items[i % len(items)]
        i += 1
        dt, out = loop.execute(item)
        lat.append(dt)
        loop.attempted.append(item)
        if not wl.in_process and out is not None:
            rss_kb = max(rss_kb, out.maxrss_kb)
    if wl.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups += time_setup_in_children(wl.name, SETUP_SAMPLES - 1 - before)
    n = len(lat)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(n / (sum(lat) / 1e9), "1/s"),
        "op_p50_ms": metric(quantile_ms(lat, 50), "ms"),
        "op_p90_ms": metric(quantile_ms(lat, 90), "ms"),
        "peak_rss_mb": metric(rss_kb / 1024, "MB"),
    }
    extra = {"setup_s": len(setups), "ops_per_s": n, "op_p50_ms": n, "op_p90_ms": n,
             "peak_rss_mb": 1}
    report = {"samples": extra, "setup_samples_s": [round(s, 4) for s in setups]}
    if n >= 1000:
        report["op_p99_ms"] = quantile_ms(lat, 99)
    if isinstance(wl, wls.CliSession):
        va = [t for t, it in zip(lat, loop.attempted) if it.sub == "verify-all"]
        if va:
            report["verify_all_s"] = statistics.median(va) / 1e9
            report["verify_all_samples"] = len(va)
    return metrics, loop, report


def traced_setup(wl) -> dict:
    """Import the program, then build the reused objects under the tracer."""
    wl.import_program()
    tracer = Tracer()
    tracer.phase = "setup"
    if wl.in_process:
        tracer.install()
    try:
        wl.build()
    finally:
        tracer.uninstall()
    return tracer.dump()


def run_traced(wl, items, seconds: float, setup_stats: dict) -> tuple[dict, Loop, dict]:
    """Alternate blocks of the same items untraced and traced."""
    import_s = import_over_numpy(IMPORT_SAMPLES)
    tracer = Tracer()
    loop = Loop(wl)
    plain, traced = [], []
    plain_by_sub = defaultdict(list)
    stats = setup_stats if wl.in_process else {}
    import_in_op = []
    block = BLOCK if wl.in_process else 1
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline:
        chunk = [items[(i + j) % len(items)] for j in range(block)]
        i += block
        for item in chunk:
            dt, _ = loop.execute(item)
            plain.append(dt)
            if not wl.in_process:
                plain_by_sub[item.sub].append(dt)
        if wl.in_process:
            tracer.install()
        try:
            for item in chunk:
                dt, out = loop.execute(item, traced=True)
                traced.append(dt)
                loop.attempted.append(item)
                if wl.in_process or out is None:
                    continue
                stats_file = out.out_dir / "trace.json"
                if stats_file.exists():
                    doc = json.loads(stats_file.read_text())
                    import_in_op.append(doc.pop("import_s"))
                    merge(stats, doc)
        finally:
            if wl.in_process:
                tracer.uninstall()
    if wl.in_process:
        merge(stats, tracer.dump())
    m = layer_metrics(wl.name, stats, traced, plain, plain_by_sub)
    m["cli.import_over_numpy_s"] = metric(statistics.median(import_s), "s")
    share = statistics.median(import_in_op) * 1e3 / quantile_ms(plain, 50) if import_in_op else 0
    m["cli.import_share_of_p50"] = metric(share, "fraction")
    if wl.name == wls.CliSession.name:
        m["trace.target_share"] = m["cli.import_share_of_p50"]
    m = {name: m[name] for name in per_layer_names()}
    return m, loop, {"samples": {"traced_ops": len(traced), "untraced_ops": len(plain)}}


def layer_metrics(workload: str, stats: dict, traced: list, plain: list,
                  plain_by_sub: dict) -> dict:
    n, traced_ns = len(traced), sum(traced)
    op_spans = stats.get("spans", {}).get("op", {})
    op_counts = stats.get("counts", {}).get("op", {})
    m = {}
    for name, (span, stat) in SPAN_METRICS.items():
        calls, _, self_ns = op_spans.get(span, [0, 0, 0])
        value = {"calls": calls, "self_us": self_ns / 1e3, "self_ms": self_ns / 1e6}[stat]
        m[name] = metric(value / n, UNITS[stat])
    for name, counter in COUNT_METRICS.items():
        m[name] = metric(op_counts.get(counter, 0) / n,
                         "iters/op" if counter.endswith(".nit") else "calls/op")
    # per call over set-up and ops: the witnesses of detect-stream are built in set-up
    aew = [p.get("witness.multipartite_aew", [0, 0, 0]) for p in stats.get("spans", {}).values()]
    calls, self_ns = sum(a[0] for a in aew), sum(a[2] for a in aew)
    m["witness.multipartite_aew.self_ms"] = metric(self_ns / 1e6 / calls if calls else 0, "ms")
    for sub in wls.CliSession.SUBCOMMANDS:
        lat = plain_by_sub.get(sub)
        m[f"cli.{sub}.p50_ms"] = metric(quantile_ms(lat, 50) if lat else 0, "ms")
    for c in CRITERIA:
        hit = [v for k, v in op_spans.items() if k.startswith(f"acceptance.{c}_")]
        m[f"acceptance.{c}.s"] = metric(hit[0][1] / hit[0][0] / 1e9 if hit else 0, "s")
    layer_self = Counter()
    for span, (_, _, self_ns) in op_spans.items():
        layer_self[span.split(".")[0]] += self_ns
    for layer in LAYERS:
        m[f"{layer}.self_share"] = metric(layer_self[layer] / traced_ns, "fraction")
    if workload == wls.FiducialSearch.name:
        target = op_spans.get("designs.fiducial_search", [0, 0, 0])[1]
    else:
        target = sum(layer_self[x] for x in TARGET_LAYERS.get(workload, ()))
    m["trace.target_share"] = metric(target / traced_ns, "fraction")
    untraced_rate = len(plain) / (sum(plain) / 1e9)
    traced_rate = n / (traced_ns / 1e9)
    m["trace.untraced_ops_per_s"] = metric(untraced_rate, "1/s")
    m["trace.traced_ops_per_s"] = metric(traced_rate, "1/s")
    m["trace.overhead_ratio"] = metric(untraced_rate / traced_rate, "ratio")
    m["trace.traced_ops"] = metric(n, "count")
    return m


def error_contract(wl) -> dict:
    """Run each CLI error-contract case once: ok, failed (exit 1 or a traceback) or wrong."""
    return {name: wl.check(item, wl.run(item)) for name, item in wl.contract_cases().items()}


def run_workload(args) -> int:
    work = HERE / "_work" / f"run-{os.getpid()}"
    wl = wls.make(args.workload, work, child_env())
    try:
        if args.trace:
            setup_stats = traced_setup(wl)
            items = wl.make_inputs(args.seed)
            metrics, loop, report = run_traced(wl, items, args.seconds, setup_stats)
        else:
            t0 = perf_counter()
            wl.setup()
            setup_first = perf_counter() - t0
            items = wl.make_inputs(args.seed)
            metrics, loop, report = run_plain(wl, items, args.seconds, setup_first)
        inputs = wl.describe(loop.attempted)
        if not wl.in_process:
            report["error_contract"] = error_contract(wl)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    attempted = sum(loop.outcomes.values())
    failed = loop.outcomes[wls.FAILED]
    # a malformed error-contract input that the CLI accepts is a wrong answer
    wrong = loop.outcomes[wls.WRONG] + list(report.get("error_contract", {}).values()).count(
        wls.WRONG)
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    samples = report.pop("samples")
    for name, v in metrics.items():
        n = samples.get(name, samples.get("traced_ops"))
        print(f"  {name:<52} {v['value']:>14.6g} {v['unit']:<9} n={n}")
    report.update({"attempted": attempted, "failed": failed, "wrong": wrong,
                   "failed_share": failed / attempted if attempted else 0.0})
    if loop.errors:
        report["error_types"] = sorted(loop.errors)
    print("report " + json.dumps(report, sort_keys=True))
    print("inputs " + json.dumps(inputs, sort_keys=True))
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    print(json.dumps({"correct": wrong == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every declared workload in its own process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wls.NAMES:
        res = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)], capture_output=True, text=True,
                             cwd=ROOT, timeout=600)
        sys.stderr.write(res.stderr)
        lines = res.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if res.returncode != 0 or not lines:
            print(f"workload {name} exited with {res.returncode}", file=sys.stderr)
            return 1
        doc = json.loads(lines[-1])
        combined["correct"] &= doc["correct"]
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        for k, v in doc["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    # on SIGTERM unwind normally, so the work directory and any CLI child go away
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=wls.NAMES + wls.EXTRA_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print the set-up time of one workload and exit")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "transposim" / "__init__.py").is_file():
        print(f"error: transposim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_only:
        wl = wls.make(args.workload, HERE / "_work", child_env())
        t0 = perf_counter()
        wl.setup()
        print(perf_counter() - t0)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
