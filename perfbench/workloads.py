"""The benchmark workloads: three declared in BENCHMARK.json, one run by hand.

Each workload is one closed-loop client: the runner sends the next op only
after the previous one returned.  Inputs come from `make_inputs(seed)` in plain
numpy; transposim only ever sees the generated matrices, vectors and files.
Every op's output is judged by `check`, which compares it with the numpy
oracles in `oracles.py` and returns OK, FAILED (the op raised, or the CLI broke
its error contract) or WRONG (the op returned a result that disagrees with the
oracle).

Class mixes are dealt from a fixed deck reshuffled on every pass, so every
seed runs the same composition of ops and only the matrices differ.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles as orc

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"

OK, FAILED, WRONG = "ok", "failed", "wrong"
SHOTS = 10_000
LEVEL = 0.99


def deal(rng: np.random.Generator, deck: list, passes: int) -> list:
    out = []
    for _ in range(passes):
        out.extend(deck[i] for i in rng.permutation(len(deck)))
    return out


def shares(counter: Counter, total: int) -> dict:
    return {str(k): round(v / total, 4) for k, v in sorted(counter.items(), key=str)}


class Workload:
    name = ""
    in_process = True

    def import_program(self) -> None:
        import transposim

        self.tp = transposim

    def build(self) -> None:
        """Objects built once and reused by every op."""

    def setup(self) -> None:
        self.import_program()
        self.build()

    def make_inputs(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, item, traced: bool = False):
        raise NotImplementedError

    def check(self, item, out) -> str:
        raise NotImplementedError

    def describe(self, items: list) -> dict:
        """Measured input properties of the items actually attempted."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# detect-stream
# ---------------------------------------------------------------------------


@dataclass
class DetectItem:
    dims: tuple
    mat: np.ndarray
    rank: int
    shots: bool
    est_seed: int
    expected: list


class DetectStream(Workload):
    """Validate a state and detect it against witnesses built in setup.

    Mostly two qubits, some two qutrits, three qubits across all three cuts,
    and a few 4x4x4 states (D = 64, the README's size limit).  One op in ten
    also runs the shot-based estimator at 10^4 shots.
    """

    name = "detect-stream"
    # (dims, ops per deck of 100, of which carry shots)
    DECK = [((2, 2), 60, 6), ((3, 3), 20, 2), ((2, 2, 2), 15, 1), ((4, 4, 4), 5, 1)]
    PASSES = 20

    def build(self) -> None:
        tp = self.tp
        self.witnesses = {(d, d): [tp.aew(tp.transpose_witness(d))] for d in (2, 3)}
        fid = {2: tp.Fiducial(2, tp.Ket(orc.qubit_sic_fiducial())),
               4: tp.load_fiducial(str(DATA / "sic_fiducial_d4.json"))}
        for d, f in fid.items():
            g = tp.sic_from_fiducial(f)
            self.witnesses[(d,) * 3] = [tp.multipartite_aew(3, d, c, g) for c in range(3)]

    def make_inputs(self, seed: int) -> list:
        rng = np.random.default_rng([seed, 1])
        deck = []
        for dims, count, with_shots in self.DECK:
            deck += [(dims, i < with_shots) for i in range(count)]
        items = []
        for dims, shots in deal(rng, deck, self.PASSES):
            big_d = int(np.prod(dims))
            rank = int(rng.integers(1, big_d + 1))
            mat = orc.random_state(rng, big_d, rank)
            cuts = range(len(dims)) if len(dims) > 2 else [0]
            items.append(DetectItem(dims, mat, rank, shots, int(rng.integers(2**31)),
                                    [orc.expected_cut(mat, dims, c) for c in cuts]))
        return items

    def run(self, item: DetectItem, traced: bool = False):
        tp = self.tp
        rho = tp.DensityMatrix(item.mat, dims=item.dims)
        wits = self.witnesses[item.dims]
        results = [tp.detect(rho, a) for a in wits]
        est = None
        if item.shots:
            est = tp.detect_with_confidence(rho, wits[0], shots=SHOTS, seed=item.est_seed,
                                            level=LEVEL)
        return results, est

    def check(self, item: DetectItem, out) -> str:
        results, est = out
        bipartite = len(item.dims) == 2
        for exp, r in zip(item.expected, results, strict=True):
            if not orc.check_cut(exp, r.value, r.threshold, r.verdict, r.ppt,
                                 r.min_pt_eigenvalue, r.caveat, bipartite):
                return WRONG
        if item.shots:
            exp = item.expected[0]
            sr = est.shot_result
            if (sr.shots != SHOTS or not orc.check_estimator(
                    exp["value"], exp["threshold"], SHOTS, LEVEL, est.verdict,
                    est.lower_bound, est.upper_bound, sr.estimate)):
                return WRONG
        return OK

    def describe(self, items: list) -> dict:
        n = len(items)
        big_d = Counter(int(np.prod(it.dims)) for it in items)
        parties = Counter(len(it.dims) for it in items)
        rel_rank = [it.rank / np.prod(it.dims) for it in items]
        npt = sum(it.expected[0]["min_eig"] < -orc.NPT_TOL for it in items)
        return {
            "total_dim_share": shares(big_d, n),
            "parties_share": shares(parties, n),
            "pure_share": round(sum(it.rank == 1 for it in items) / n, 4),
            "full_rank_share": round(sum(it.rank == np.prod(it.dims) for it in items) / n, 4),
            "mean_rank_over_dim": round(float(np.mean(rel_rank)), 4),
            "npt_share_first_cut": round(npt / n, 4),
            "shots_share": round(sum(it.shots for it in items) / n, 4),
        }


# ---------------------------------------------------------------------------
# realize-transpose
# ---------------------------------------------------------------------------


@dataclass
class RealizeItem:
    kind: str
    d: int
    dims: tuple
    cut: int
    mat: np.ndarray
    rank: int
    expected: np.ndarray
    expected_probs: np.ndarray | None
    npt: bool


class RealizeTranspose(Workload):
    """Build one realization of the approximate transpose and apply it to a state."""

    name = "realize-transpose"
    # (kind, d, state dims, ops per deck).  The weights keep the 50th and 90th
    # latency percentiles inside one realization's band (formula d=8 and MUB
    # d=3 on the reference machine) rather than on the edge between two, where
    # a percentile would jump between their costs from run to run.
    DECK = (
        [("formula", d, (d,), 2) for d in range(2, 9)]
        + [("design-sic", d, (d,), 1) for d in (2, 3)]
        + [("design-mub", d, (d,), 2 if d == 3 else 1) for d in (2, 3, 5, 7)]
        + [("two-step", d, (d,), 2) for d in (2, 3)]
        + [("optics", 2, (2,), 1)]
        + [("factor", 2, (2, 2, 2), 2), ("factor", 3, (3, 3), 2)]
    )
    PASSES = 40
    FIDUCIALS = {2: orc.qubit_sic_fiducial(), 3: orc.qutrit_sic_fiducial()}

    def build(self) -> None:
        tp = self.tp
        self.fiducials = {d: tp.Fiducial(d, tp.Ket(v)) for d, v in self.FIDUCIALS.items()}

    def make_inputs(self, seed: int) -> list:
        rng = np.random.default_rng([seed, 2])
        deck = [(k, d, dims) for k, d, dims, count in self.DECK for _ in range(count)]
        items = []
        for kind, d, dims in deal(rng, deck, self.PASSES):
            big_d = int(np.prod(dims))
            rank = int(rng.integers(1, big_d + 1))
            mat = orc.random_state(rng, big_d, rank)
            cut = int(rng.integers(len(dims)))
            probs = None
            if kind in ("two-step", "optics"):
                probs = orc.orbit_probabilities(mat, self.FIDUCIALS[d])
            npt = len(dims) > 1 and orc.min_pt_eigenvalue(mat, dims, 0) < -orc.NPT_TOL
            items.append(RealizeItem(kind, d, dims, cut, mat, rank,
                                     orc.approx_transpose_on(mat, dims, cut), probs, npt))
        return items

    def run(self, item: RealizeItem, traced: bool = False):
        tp, kind, d = self.tp, item.kind, item.d
        rho = tp.DensityMatrix(item.mat, dims=item.dims)
        probs = None
        if kind == "formula":
            out = tp.apply_channel(tp.approx_transpose(d), rho)
        elif kind in ("design-sic", "design-mub"):
            g = tp.sic_from_fiducial(self.fiducials[d]) if kind == "design-sic" else tp.mub_prime(d)
            out = tp.apply_channel(tp.measure_prepare_from_design(g)[1], rho)
        elif kind == "two-step":
            probs, out = tp.simulate_circuit(self.fiducials[d], rho)
        elif kind == "optics":
            probs, out = tp.run_pipeline(tp.build_fig2_pipeline(self.fiducials[d]), rho)
        else:
            out = tp.apply_to_factor(tp.approx_transpose(d), rho, item.cut)
        return out.mat, probs

    def check(self, item: RealizeItem, out) -> str:
        mat, probs = out
        if not orc.check_state(mat, item.expected):
            return WRONG
        if item.expected_probs is not None and not orc.check_state(probs, item.expected_probs):
            return WRONG
        return OK

    def describe(self, items: list) -> dict:
        n = len(items)
        return {
            "realization_share": shares(Counter(f"{it.kind}-d{it.d}" for it in items), n),
            "total_dim_share": shares(Counter(int(np.prod(it.dims)) for it in items), n),
            "parties_share": shares(Counter(len(it.dims) for it in items), n),
            "pure_share": round(sum(it.rank == 1 for it in items) / n, 4),
            "mean_rank_over_dim": round(float(np.mean(
                [it.rank / np.prod(it.dims) for it in items])), 4),
            "npt_share": round(sum(it.npt for it in items) / n, 4),
        }


# ---------------------------------------------------------------------------
# fiducial-search
# ---------------------------------------------------------------------------


class FiducialSearch(Workload):
    """Search a SIC fiducial and certify it: sic_from_fiducial + build_two_step."""

    name = "fiducial-search"
    DIMS = range(4, 13)
    SEARCH_SEEDS = range(6)
    PASSES = 40

    def make_inputs(self, seed: int) -> list:
        rng = np.random.default_rng([seed, 3])
        deck = [(d, s) for d in self.DIMS for s in self.SEARCH_SEEDS]
        return deal(rng, deck, self.PASSES)

    def run(self, item, traced: bool = False):
        tp = self.tp
        d, s = item
        f = tp.fiducial_search(d, seed=s)
        g = tp.sic_from_fiducial(f)
        ts = tp.build_two_step(f)
        return np.array(f.ket.vec), g.n, len(ts.assembled)

    def check(self, item, out) -> str:
        d = item[0]
        vec, n, assembled = out
        ok = vec.size == d and n == d * d and assembled == d * d and orc.check_sic(vec)
        return OK if ok else WRONG

    def describe(self, items: list) -> dict:
        return {"dim_share": shares(Counter(d for d, _ in items), len(items)),
                "search_seeds": [min(self.SEARCH_SEEDS), max(self.SEARCH_SEEDS)]}


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------


@dataclass
class CliItem:
    sub: str
    argv: list
    check: str  # design | search | apply | detect | tripartite | verify-all | error
    data: dict = field(default_factory=dict)


@dataclass
class CliResult:
    code: int
    maxrss_kb: int
    out_dir: Path


def to_pairs(arr) -> list:
    arr = np.asarray(arr)
    if arr.ndim == 1:
        return [[float(c.real), float(c.imag)] for c in arr]
    return [to_pairs(row) for row in arr]


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return path.name


def _state_doc(dims, mat) -> dict:
    return {"dims": list(dims), "matrix": to_pairs(mat)}


class CliSession(Workload):
    """Replay the README's CLI sequence, one subprocess per op, on generated files.

    A cycle holds 24 commands, 6 of them (25%) malformed inputs that the CLI
    must answer with exit code 2 and one line of text.  Four further malformed
    inputs end in a traceback today; they are the error-contract cases, run
    once per run outside the timed loop (see `contract_cases`).
    """

    name = "cli-session"
    in_process = False
    CYCLES = 4
    # per cycle: the searched (dimension, search seed), the MUB dimension and a
    # dimension that is not prime.  They are fixed rather than drawn from the
    # seed, so every seed runs commands of the same cost; a run covers only
    # about one and a half cycles.
    SEARCHES = ((5, 2), (7, 4), (4, 1), (8, 3))
    MUB_DIMS = (3, 5, 7, 5)
    NOT_PRIME = (4, 6, 8, 9)
    SUBCOMMANDS = ("verify-design", "search-fiducial", "apply-approx-transpose",
                   "detect", "tripartite-demo", "verify-all")

    def __init__(self, work: Path, env: dict):
        self.work, self.env = work, env
        self.counter = 0

    def import_program(self) -> None:
        import transposim.cli

        self.cli = transposim.cli

    def build(self) -> None:
        self.cli.build_parser()

    def _cycle(self, rng: np.random.Generator, k: int) -> list:
        w = self.work
        states = {}
        for name, dims in (("q2", (2,)), ("q3", (3,)), ("s22", (2, 2)), ("s33", (3, 3)),
                           ("s222", (2, 2, 2))):
            big_d = int(np.prod(dims))
            mat = orc.random_state(rng, big_d, int(rng.integers(1, big_d + 1)))
            states[name] = (dims, mat, _write(w / f"{name}_{k}.json", _state_doc(dims, mat)))
        nonherm = orc.random_state(rng, 4, 4)
        nonherm[0, 1] += 0.25
        bad_state = _write(w / f"nonherm_{k}.json", _state_doc((2, 2), nonherm))
        evals, evecs = np.linalg.eigh(orc.random_state(rng, 4, 4))
        evals[0], evals[-1] = -0.1, evals[-1] + evals[0] + 0.1  # trace 1, one negative eigenvalue
        not_psd = _write(w / f"notpsd_{k}.json",
                         _state_doc((2, 2), (evecs * evals) @ evecs.conj().T))
        bad_shape = _write(w / f"shape_{k}.json", _state_doc((2, 2), orc.random_state(rng, 3, 3)))
        d_search, s_search = self.SEARCHES[k]
        mub_d, not_prime = self.MUB_DIMS[k], self.NOT_PRIME[k]
        fid_out = f"fid_search_{k}.json"

        def design(kind, d, extra=()):
            return CliItem("verify-design", ["verify-design", "--kind", kind, "--dim", str(d),
                                             *extra], "design", {"kind": kind, "d": d})

        def apply(name, via, extra=()):
            dims, mat, path = states[name]
            return CliItem("apply-approx-transpose",
                           ["apply-approx-transpose", "--state", path, "--via", via, *extra],
                           "apply", {"via": via, "dims": dims, "mat": mat})

        def detect(name, cut, shots=False):
            dims, mat, path = states[name]
            extra = []
            if shots:
                extra = ["--shots", str(SHOTS), "--seed", str(int(rng.integers(2**31)))]
            idx = "ABC".index(cut[0])  # every cut here names the single party first
            return CliItem("detect", ["detect", "--state", path, "--cut", cut, *extra], "detect",
                           {"dims": dims, "mat": mat, "cut": idx, "label": cut, "shots": shots})

        def error(argv):
            return CliItem(argv[0], argv, "error")

        # each subcommand appears within the first seven commands, so that a
        # traced run, which runs every command twice, reaches all of them.
        # verify-all, the slowest command, comes second: a 34-second run then
        # holds it twice unless the commands average over 1.3 s.
        return [
            design("sic", 2),
            CliItem("verify-all", ["verify-all"], "verify-all"),
            CliItem("search-fiducial", ["search-fiducial", "--dim", str(d_search), "--seed",
                                        str(s_search), "--out", fid_out], "search",
                    {"d": d_search, "file": fid_out}),
            design("sic", d_search, ["--fiducial", fid_out]),
            apply("q2", "formula"),
            detect("s22", "A|B"),
            CliItem("tripartite-demo", ["tripartite-demo"], "tripartite"),
            error(["verify-design", "--kind", "mub", "--dim", str(not_prime)]),
            apply("q2", "design"),
            apply("q3", "two-step"),
            apply("q2", "optics"),
            error(["apply-approx-transpose", "--state", states["q3"][2], "--via", "optics"]),
            detect("s222", "A|BC", shots=True),
            error(["detect", "--state", bad_shape, "--cut", "A|B"]),
            error(["detect", "--state", bad_state, "--cut", "A|B"]),
            design("mub", mub_d),
            error(["detect", "--state", not_psd, "--cut", "A|B"]),
            error(["detect", "--state", states["s22"][2], "--cut", "A|A"]),
            detect("s33", "A|B"),
            detect("s222", "C|AB"),
            apply("q3", "formula"),
            apply("q3", "design"),
            detect("s22", "B|A", shots=True),
            design("mub", 2),
        ]

    def contract_cases(self) -> dict:
        """The four malformed inputs of the CLI error contract that end in a traceback today.

        Each must exit 2 with one line of text, like the malformed inputs of the
        timed cycle.  They run once per run, after the timed loop, and their
        outcomes are printed on the report line: counted among the timed ops,
        the number of failed ops would depend on how many ops fit in the run.
        """
        w = self.work
        w.mkdir(parents=True, exist_ok=True)
        qutrit = _write(w / "contract_q3.json", _state_doc((3,), np.eye(3) / 3))
        fid2 = _write(w / "contract_fid2.json",
                      {"dim": 2, "vectors": [to_pairs(orc.qubit_sic_fiducial())]})
        dim_abc = _write(w / "contract_dim_abc.json",
                         {"dim": "abc", "vectors": [[[1.0, 0.0], [0.0, 0.0]]]})
        vec5 = _write(w / "contract_vectors5.json", {"dim": 2, "vectors": 5})
        return {
            "qubit-fiducial-qutrit-state": CliItem("apply-approx-transpose", [
                "apply-approx-transpose", "--state", qutrit, "--fiducial", fid2, "--via",
                "design"], "error"),
            "dim-abc": CliItem("verify-design", ["verify-design", "--kind", "sic", "--dim", "2",
                                                 "--fiducial", dim_abc], "error"),
            "vectors-5": CliItem("verify-design", ["verify-design", "--kind", "sic", "--dim", "2",
                                                   "--fiducial", vec5], "error"),
            "json-into-missing-dir": CliItem("tripartite-demo", [
                "tripartite-demo", "--json", str(Path("missing_dir") / "report.json")], "error"),
        }

    def make_inputs(self, seed: int) -> list:
        rng = np.random.default_rng([seed, 4])
        self.work.mkdir(parents=True, exist_ok=True)
        items = []
        for k in range(self.CYCLES):
            items += self._cycle(rng, k)
        return items

    def run(self, item: CliItem, traced: bool = False) -> CliResult:
        self.counter += 1
        out_dir = self.work / f"op{self.counter}"
        out_dir.mkdir()
        argv = list(item.argv)
        if item.check != "error":
            argv += ["--json", str(out_dir / "report.json")]
        if traced:
            cmd = [sys.executable, str(HERE / "cli_shim.py"), str(out_dir / "trace.json"), *argv]
        else:
            cmd = [sys.executable, "-m", "transposim.cli", *argv]
        with open(out_dir / "stdout", "wb") as so, open(out_dir / "stderr", "wb") as se:
            proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=self.env, cwd=self.work)
            try:
                # wait4 rather than wait: it also returns the child's peak RSS
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return CliResult(proc.returncode, usage.ru_maxrss, out_dir)

    def check(self, item: CliItem, res: CliResult) -> str:
        err = (res.out_dir / "stderr").read_text(errors="replace")
        if item.check == "error":
            if res.code == 0:
                return WRONG
            one_line = len(err.strip().splitlines()) == 1 and "Traceback" not in err
            return OK if res.code == 2 and one_line else FAILED
        if res.code != 0:
            return FAILED
        try:
            doc = json.loads((res.out_dir / "report.json").read_text())
            return OK if getattr(self, f"_check_{item.check.replace('-', '_')}")(item.data, doc) \
                else WRONG
        except (OSError, ValueError, KeyError, TypeError, IndexError):
            return WRONG

    # -- per-command oracles ---------------------------------------------

    @staticmethod
    def _vector(pairs) -> np.ndarray:
        return np.array([complex(re, im) for re, im in pairs])

    def _check_design(self, data, doc) -> bool:
        d = data["d"]
        n = d * d if data["kind"] == "sic" else d * (d + 1)
        return (doc["kind"] == data["kind"].upper() and doc["dim"] == d and doc["n"] == n
                and doc["two_design_residual"] < 1e-10 and doc["coherence_residual"] < 1e-10
                and doc["passed"] is True and doc["pom_weight"] == f"{d}/{n}")

    def _check_search(self, data, doc) -> bool:
        vec = self._vector(doc["vectors"][0])
        saved = json.loads((self.work / data["file"]).read_text())
        return (doc["dim"] == data["d"] and vec.size == data["d"] and orc.check_sic(vec)
                and np.array_equal(self._vector(saved["vectors"][0]), vec))

    def _check_apply(self, data, doc) -> bool:
        out = doc["output_state"]
        mat = np.array([[complex(re, im) for re, im in row] for row in out["matrix"]])
        expected = orc.approx_transpose_on(data["mat"], data["dims"], 0)
        return (doc["via"] == data["via"] and doc["cross_check_passed"] is True
                and all(v < 1e-10 for v in doc["cj_distances"].values())
                and orc.check_state(mat, expected))

    def _check_detect(self, data, doc) -> bool:
        (cut,) = doc["cuts"]
        exp = orc.expected_cut(data["mat"], data["dims"], data["cut"])
        ok = cut["cut"] == data["label"] and orc.check_cut(
            exp, cut["value"], cut["threshold"], cut["verdict"], cut["ppt"], None,
            bool(doc["caveats"]), bipartite=len(data["dims"]) == 2)
        if data["shots"]:
            e = doc["estimator"]
            ok = ok and e["shots"] == SHOTS and orc.check_estimator(
                exp["value"], exp["threshold"], SHOTS, e["level"], e["verdict"],
                e["lower_bound"], e["upper_bound"], e["estimate"])
        return ok

    def _check_tripartite(self, data, doc) -> bool:
        rho, dims = orc.tripartite_example(), (2, 2, 2)
        labels = ["A|BC", "B|CA", "C|AB"]
        if [c["cut"] for c in doc["cuts"]] != labels:
            return False
        for i, c in enumerate(doc["cuts"]):
            exp = orc.expected_cut(rho, dims, i)
            if not orc.check_cut(exp, c["value"], c["threshold"], c["verdict"], c["ppt"], None,
                                 c["verdict"] == "detected" and c["ppt"] == "PPT", False):
                return False
        return True

    def _check_verify_all(self, data, doc) -> bool:
        crit = doc["criteria"]
        return doc["passed"] is True and len(crit) == 13 and all(c["passed"] for c in crit)

    def describe(self, items: list) -> dict:
        n = len(items)
        return {
            "subcommand_share": shares(Counter(it.sub for it in items), n),
            "malformed_share": round(sum(it.check == "error" for it in items) / n, 4),
            "state_dims": ["2", "3", "2x2", "3x3", "2x2x2"],
        }


def make(name: str, work: Path, env: dict) -> Workload:
    """A workload by name; cli-session writes under `work` and runs the CLI with `env`."""
    if name == CliSession.name:
        return CliSession(work, env)
    return {w.name: w for w in (DetectStream, RealizeTranspose, FiducialSearch)}[name]()


# the workloads BENCHMARK.json declares, and those only run by hand (see NOTES.md)
NAMES = (DetectStream.name, RealizeTranspose.name, CliSession.name)
EXTRA_NAMES = (FiducialSearch.name,)
