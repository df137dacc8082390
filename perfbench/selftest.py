"""Self-test of the benchmark: oracles, metric names, trace coverage, seeds.

Run through `python3 perfbench/run.py --self-test` from the repository root.
It shows that
  1. every oracle accepts a correct output and rejects a wrong one (for
     example a plain transpose with no noise mixed in);
  2. the metrics printed are exactly those BENCHMARK.json declares;
  3. a traced run of each workload reaches the layers it is meant to
     exercise (non-zero) and not the ones it is meant to bypass (zero);
  4. a second seed runs clean on every workload;
  5. without the transposim sources the runner exits non-zero and prints
     no result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles as orc
import run
import workloads as wls

CUT_METRICS = [f"cli.{s}.p50_ms" for s in wls.CliSession.SUBCOMMANDS]
ACCEPTANCE = [f"acceptance.{c}.s" for c in run.CRITERIA]
CHANNELS = [m for m in run.SPAN_METRICS if m.startswith("channels.")]
TWOSTEP = [m for m in run.SPAN_METRICS if m.startswith("twostep.")]
OPTICS = [m for m in run.SPAN_METRICS if m.startswith("optics.")]
FILEIO = [m for m in run.SPAN_METRICS if m.startswith("fileio.")]
SEARCH = ["designs.fiducial_search.self_ms_per_op", "designs.minimize.calls_per_op",
          "designs.minimize.nit_per_op"]
WITNESS = ["witness.detect.self_us_per_op", "witness.ppt_check.self_us_per_op"]
ESTIMATOR = ["estimator.detect_with_confidence.self_us_per_op"]

# workload -> (metrics that must be non-zero, metrics that must be zero)
COVERAGE = {
    "detect-stream": (
        ["linalg.DensityMatrix.calls_per_op", "linalg.Operator.calls_per_op",
         "linalg.DensityMatrix.self_us_per_op", "linalg.partial_transpose.self_us_per_op",
         "numpy.eigvalsh.calls_per_op", "witness.multipartite_aew.self_ms",
         *WITNESS, *ESTIMATOR],
        [*SEARCH, *CHANNELS, *TWOSTEP, *OPTICS, *FILEIO, *CUT_METRICS, *ACCEPTANCE,
         "designs.mub_prime.self_us_per_op", "designs.sic_from_fiducial.self_us_per_op",
         "numpy.eigh.calls_per_op"],
    ),
    "realize-transpose": (
        [*CHANNELS, *TWOSTEP, *OPTICS, "designs.sic_from_fiducial.self_us_per_op",
         "designs.mub_prime.self_us_per_op", "designs.hw_orbit.calls_per_op",
         "linalg.DensityMatrix.calls_per_op", "numpy.eigh.calls_per_op"],
        [*SEARCH, *WITNESS, *ESTIMATOR, *FILEIO, *CUT_METRICS, *ACCEPTANCE,
         "witness.multipartite_aew.self_ms"],
    ),
    "fiducial-search": (
        [*SEARCH, "designs.sic_from_fiducial.self_us_per_op", "designs.hw_orbit.calls_per_op",
         "twostep.build_two_step.calls_per_op", "twostep.build_two_step.self_us_per_op"],
        [*WITNESS, *ESTIMATOR, *CHANNELS, *OPTICS, *FILEIO, *CUT_METRICS, *ACCEPTANCE,
         "witness.multipartite_aew.self_ms", "linalg.DensityMatrix.calls_per_op",
         "numpy.eigvalsh.calls_per_op", "twostep.simulate_circuit.self_us_per_op"],
    ),
    "cli-session": (
        [*FILEIO, *CUT_METRICS, *ACCEPTANCE, *WITNESS, *ESTIMATOR, *SEARCH,
         "cli.import_over_numpy_s", "cli.import_share_of_p50", "witness.multipartite_aew.self_ms",
         "channels.measure_prepare_from_design.self_us_per_op",
         "twostep.build_two_step.calls_per_op"],
        [],
    ),
}
CONTRACT_CASES = ("qubit-fiducial-qutrit-state", "dim-abc", "vectors-5", "json-into-missing-dir")
# cli-session reaches every subcommand in its first seven traced command pairs
TRACE_SECONDS = {"cli-session": 20}
SEED_SECONDS = {"cli-session": 12}


class Checks:
    def __init__(self):
        self.failures = []
        self.count = 0

    def expect(self, cond, what: str) -> None:
        self.count += 1
        if not cond:
            self.failures.append(what)
            print(f"  FAIL {what}")


# ---------------------------------------------------------------------------
# 1. oracles reject wrong outputs
# ---------------------------------------------------------------------------


def oracle_checks(c: Checks, work: Path) -> None:
    rng = np.random.default_rng(7)

    rt = wls.RealizeTranspose()
    rt.setup()
    for item in rt.make_inputs(7)[:40]:
        out = rt.run(item)
        c.expect(rt.check(item, out) == wls.OK, f"realize oracle accepts {item.kind} d={item.d}")
        mat, probs = out
        plain = orc.partial_transpose(item.mat, item.dims, item.cut)
        c.expect(rt.check(item, (plain, probs)) == wls.WRONG,
                 f"realize oracle rejects a plain transpose ({item.kind} d={item.d})")
        if len(item.dims) > 1:
            other = (item.cut + 1) % len(item.dims)
            moved = orc.approx_transpose_on(item.mat, item.dims, other)
            c.expect(rt.check(item, (moved, probs)) == wls.WRONG,
                     "realize oracle rejects the channel on the wrong factor")
        if probs is not None:
            c.expect(rt.check(item, (mat, probs[::-1])) == wls.WRONG,
                     "realize oracle rejects permuted outcome probabilities")

    ds = wls.DetectStream()
    ds.setup()
    items = ds.make_inputs(7)
    for item in [it for it in items if it.shots][:6] + items[:30]:
        results, est = ds.run(item)
        c.expect(ds.check(item, (results, est)) == wls.OK, f"detect oracle accepts {item.dims}")
        r0 = results[0]
        flipped = {"detected": "not-detected", "not-detected": "detected",
                   "boundary": "detected"}[r0.verdict]
        for bad in (dataclasses.replace(r0, value=r0.value + 1e-6),
                    dataclasses.replace(r0, verdict=flipped),
                    dataclasses.replace(r0, ppt="PPT" if r0.ppt == "NPT" else "NPT"),
                    dataclasses.replace(r0, min_pt_eigenvalue=r0.min_pt_eigenvalue + 1e-3),
                    dataclasses.replace(r0, caveat=not r0.caveat)):
            c.expect(ds.check(item, ([bad, *results[1:]], est)) == wls.WRONG,
                     f"detect oracle rejects a corrupted cut result {item.dims}")
        if est is not None:
            other = "detected" if est.verdict != "detected" else "not-detected"
            c.expect(ds.check(item, (results, dataclasses.replace(est, verdict=other)))
                     == wls.WRONG, "estimator oracle rejects a wrong shot verdict")
            sr = dataclasses.replace(est.shot_result, estimate=est.shot_result.estimate + 0.1)
            c.expect(ds.check(item, (results, dataclasses.replace(est, shot_result=sr)))
                     == wls.WRONG, "estimator oracle rejects an estimate far from exact")

    fs = wls.FiducialSearch()
    fs.setup()
    for d, s in ((4, 0), (7, 3)):
        vec, n, assembled = fs.run((d, s))
        c.expect(fs.check((d, s), (vec, n, assembled)) == wls.OK, f"SIC oracle accepts d={d}")
        bad = vec.copy()
        bad[0] += 1e-3
        c.expect(fs.check((d, s), (bad, n, assembled)) == wls.WRONG,
                 f"SIC oracle rejects a perturbed fiducial d={d}")
    c.expect(not orc.check_sic(orc.random_state(rng, 5, 1)[:, 0]),
             "SIC oracle rejects a random vector")

    work.mkdir(parents=True, exist_ok=True)
    cs = wls.CliSession(work, run.child_env())
    items = cs.make_inputs(7)

    def fake(item, code, stderr="", report=None):
        cs.counter += 1
        d = work / f"fake{cs.counter}"
        d.mkdir()
        (d / "stderr").write_text(stderr)
        if report is not None:
            (d / "report.json").write_text(json.dumps(report))
        return cs.check(item, wls.CliResult(code, 0, d))

    err = next(it for it in items if it.check == "error")
    c.expect(fake(err, 2, "error: bad input\n") == wls.OK, "CLI oracle accepts exit 2, one line")
    c.expect(fake(err, 1, "Traceback (most recent call last):\n  ...\nValueError: x\n")
             == wls.FAILED, "CLI oracle fails a traceback")
    c.expect(fake(err, 2, "usage: x\nerror: y\n") == wls.FAILED,
             "CLI oracle fails a two-line error")
    c.expect(fake(err, 0) == wls.WRONG, "CLI oracle rejects exit 0 on malformed input")

    app = next(it for it in items if it.check == "apply")
    dims, mat = app.data["dims"], app.data["mat"]
    good = orc.approx_transpose_on(mat, dims, 0)

    def apply_report(m):
        return {"via": app.data["via"], "cross_check_passed": True,
                "cj_distances": {"formula|design": 1e-16},
                "output_state": {"dims": list(dims), "matrix": wls.to_pairs(m)}}

    c.expect(fake(app, 0, "", apply_report(good)) == wls.OK, "CLI apply oracle accepts")
    c.expect(fake(app, 0, "", apply_report(mat.T)) == wls.WRONG,
             "CLI apply oracle rejects a plain transpose")
    c.expect(fake(app, 1, "error: x\n") == wls.FAILED, "CLI oracle fails exit 1 on valid input")

    det = next(it for it in items if it.check == "detect" and not it.data["shots"])
    exp = orc.expected_cut(det.data["mat"], det.data["dims"], det.data["cut"])
    verdict = sorted(exp["verdicts"])[0]
    ppt = sorted(exp["ppt"])[0]
    cut = {"cut": det.data["label"], "value": exp["value"], "threshold": exp["threshold"],
           "verdict": verdict, "ppt": ppt}
    caveats = ["x"] if verdict == "detected" and ppt == "PPT" else []
    c.expect(fake(det, 0, "", {"cuts": [cut], "caveats": caveats}) == wls.OK,
             "CLI detect oracle accepts")
    c.expect(fake(det, 0, "", {"cuts": [dict(cut, value=cut["value"] + 0.01)],
                               "caveats": caveats}) == wls.WRONG,
             "CLI detect oracle rejects a wrong value")
    srch = next(it for it in items if it.check == "search")
    (work / srch.data["file"]).write_text(json.dumps({"dim": srch.data["d"], "vectors": [
        wls.to_pairs(np.ones(srch.data["d"]) / np.sqrt(srch.data["d"]))]}))
    c.expect(fake(srch, 0, "", {"dim": srch.data["d"], "vectors": [
        wls.to_pairs(np.ones(srch.data["d"]) / np.sqrt(srch.data["d"]))]}) == wls.WRONG,
        "CLI search oracle rejects a non-SIC vector")
    c.expect(fake(next(it for it in items if it.check == "verify-all"), 0, "",
                  {"passed": True, "criteria": [{"passed": True}] * 12}) == wls.WRONG,
             "CLI verify-all oracle rejects a missing criterion")
    shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# 2-5. runs of the real entry point
# ---------------------------------------------------------------------------


def invoke(args, cwd=None, timeout=300):
    return subprocess.run([sys.executable, str(run.HERE / "run.py"), *args], cwd=cwd or run.ROOT,
                          capture_output=True, text=True, timeout=timeout)


def result(res) -> dict:
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        raise RuntimeError(f"benchmark exited with {res.returncode}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def declared() -> dict:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in doc[key]} for key in ("end_to_end", "per_layer")}


def run_checks(c: Checks) -> None:
    names = declared()
    c.expect(names["end_to_end"] == run.END_TO_END, "end-to-end metrics match BENCHMARK.json")
    c.expect(list(names["per_layer"]) == run.per_layer_names(),
             "per-layer metrics match BENCHMARK.json")
    for name, (nonzero, zero) in COVERAGE.items():
        print(f"coverage: {name}")
        doc = result(invoke(["--workload", name, "--seed", "5", "--seconds",
                             str(TRACE_SECONDS.get(name, 4)), "--trace", "1"]))
        m = doc["metrics"]
        c.expect({k: v["unit"] for k, v in m.items()} == names["per_layer"],
                 f"{name}: traced run prints every per-layer metric with its unit")
        c.expect(doc["correct"], f"{name}: traced run is correct")
        for k in nonzero:
            c.expect(m[k]["value"] > 0, f"{name}: {k} is reached")
        for k in zero:
            c.expect(m[k]["value"] == 0, f"{name}: {k} is not reached")
    for name in wls.NAMES + wls.EXTRA_NAMES:
        for seed in (2, 3):
            print(f"seed {seed}: {name}")
            res = invoke(["--workload", name, "--seed", str(seed), "--seconds",
                          str(SEED_SECONDS.get(name, 3)), "--trace", "0"])
            doc = result(res)
            report = json.loads(next(line for line in res.stdout.splitlines()
                                     if line.startswith("report "))[7:])
            c.expect(doc["correct"] and report["wrong"] == 0, f"{name} seed {seed}: correct")
            c.expect({k: v["unit"] for k, v in doc["metrics"].items()} == names["end_to_end"],
                     f"{name} seed {seed}: prints every end-to-end metric with its unit")
            c.expect(all(v["value"] > 0 for v in doc["metrics"].values()),
                     f"{name} seed {seed}: every end-to-end metric is non-zero")
            c.expect(doc["failed"] == 0, f"{name} seed {seed}: {doc['failed']} failed ops")
            if name == wls.CliSession.name:
                contract = report["error_contract"]
                c.expect(sorted(contract) == sorted(CONTRACT_CASES)
                         and wls.WRONG not in contract.values(),
                         f"{name} seed {seed}: reports every error-contract case")
    bare = run.HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    res = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload",
                          "detect-stream", "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=170)
    c.expect(res.returncode != 0 and not res.stdout.strip(),
             "without the sources the runner exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    c = Checks()
    print("oracles")
    oracle_checks(c, run.HERE / "_work" / "selftest")
    run_checks(c)
    try:
        (run.HERE / "_work").rmdir()
    except OSError:
        pass
    print(f"{c.count - len(c.failures)}/{c.count} checks passed")
    return 1 if c.failures else 0
