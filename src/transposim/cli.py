"""Command-line surface: design verification, fiducial search, channel
application, entanglement detection, and the full verification suite.

Exit codes: 0 success/verified, 1 verification failed or computation error,
2 usage or file error.
"""

from __future__ import annotations

import argparse
import math
import string
import sys

from .errors import (
    CalibrationError,
    ConventionMismatch,
    DomainError,
    NotSICError,
    ParseError,
    SearchFailed,
)

# Each command imports the modules it runs where it first needs them, so a
# start loads only those: `--help` and a usage error load no numpy, and
# `detect` refuses a malformed state file before it loads the witnesses.

USAGE_ERROR = 2
CHECK_FAILED = 1
OK = 0
# verify-all's criteria 01 and 07 build d^2 x d^2 matrices for every d up to
# --max-dim; 8 keeps them within linalg.MAX_DIM = 64 (a literal: no numpy here)
MAX_VERIFY_DIM = 8


def _common(p: argparse.ArgumentParser, seed: bool = False, tolerance: bool = False) -> None:
    """`--json` for every subcommand; `--seed` and `--tolerance` only where they are read."""
    if seed:
        p.add_argument("--seed", type=_seed, default=0, help="seed for the randomized step")
    if tolerance:
        p.add_argument("--tolerance", type=_tolerance, default=1e-10, help="pass/fail tolerance")
    p.add_argument("--json", metavar="PATH", default=None, help="write a JSON report here")


def _emit(args, doc: dict) -> None:
    if args.json:
        from .fileio import write_json

        write_json(doc, args.json)


def _fiducial_for(dim: int, path: str | None):
    from .designs import builtin_fiducial, load_fiducial

    if path:
        f = load_fiducial(path)
        if f.d != dim:
            raise ParseError(f"{path}: fiducial has dimension {f.d}, expected dimension {dim}")
        return f
    return builtin_fiducial(dim)


def cmd_verify_design(args) -> int:
    import numpy as np

    from .designs import mub_prime, sic_from_fiducial

    if args.kind == "mub":
        design = mub_prime(args.dim)
    else:
        design = sic_from_fiducial(_fiducial_for(args.dim, args.fiducial))
    passed = (
        design.two_design_residual < args.tolerance
        and design.coherence_residual < args.tolerance
    )
    # measurement weights must be d/N for completeness; the uniform 1/N weights
    # sometimes quoted for these families leave the effects summing to I/d
    d, n = design.d, design.n
    uniform_sum = sum(np.outer(v, v.conj()) for v in design.vector_stack) / n
    uniform_residual = float(np.linalg.norm(uniform_sum - np.eye(d)))
    print(f"kind            : {design.kind}")
    print(f"dimension       : {design.d}")
    print(f"vectors         : {design.n}")
    print(f"two-design      : {design.two_design_residual:.3e}")
    print(f"coherence       : {design.coherence_residual:.3e}")
    print(f"pom weight      : {d}/{n} (uniform 1/{n} misses completeness by {uniform_residual:.3e})")
    print(f"verdict         : {'pass' if passed else 'FAIL'} (tolerance {args.tolerance:g})")
    _emit(
        args,
        {
            "kind": design.kind,
            "dim": design.d,
            "n": design.n,
            "two_design_residual": design.two_design_residual,
            "coherence_residual": design.coherence_residual,
            "pom_weight": f"{d}/{n}",
            "uniform_weight_completeness_residual": uniform_residual,
            "passed": passed,
        },
    )
    return OK if passed else CHECK_FAILED


def cmd_search_fiducial(args) -> int:
    from .designs import fiducial_search, orbit_certificate, save_fiducial
    from .fileio import _pairs

    f = fiducial_search(args.dim, seed=args.seed, max_iters=args.max_iters)
    excess, dev = orbit_certificate(f)
    print(f"dimension       : {args.dim}")
    print(f"fp excess       : {excess:.3e}")
    print(f"overlap dev     : {dev:.3e}")
    for i, c in enumerate(f.ket.vec):
        print(f"alpha[{i}]        : {c.real:+.17g} {c.imag:+.17g}i")
    if args.out:
        save_fiducial(f, args.out)
        print(f"written         : {args.out}")
    _emit(args, {"dim": args.dim, "vectors": [_pairs(f.ket.vec)]})
    return OK


_VIAS = ("formula", "design", "two-step", "optics")


def _build_via(via: str, d: int, f):
    if via == "formula":
        from .channels import approx_transpose

        return approx_transpose(d)
    if via == "design":
        from .channels import measure_prepare_from_design
        from .designs import sic_from_fiducial

        return measure_prepare_from_design(sic_from_fiducial(f))[1]
    from .channels import channel_from_measure_prepare

    if via == "two-step":
        from .twostep import build_two_step

        return channel_from_measure_prepare(build_two_step(f))
    from .optics import build_fig2_pipeline

    return channel_from_measure_prepare(build_fig2_pipeline(f))  # optics: offered for d = 2 only


def cmd_apply(args) -> int:
    from .fileio import parse_state_file, save_state, state_to_dict

    rho = parse_state_file(args.state)
    d = rho.dim
    if args.fiducial:
        f = _fiducial_for(d, args.fiducial)
    else:
        from .designs import builtin_fiducial

        try:
            f = builtin_fiducial(d)
        except DomainError:  # no built-in fiducial for d: the formula alone remains
            f = None
    vias = ["formula"] if f is None else ["formula", "design", "two-step"]
    if d == 2:
        vias.append("optics")
    if args.via not in vias:
        print(f"error: --via {args.via} is not available in dimension {d}", file=sys.stderr)
        return USAGE_ERROR
    from .channels import apply_channel, cj_distance
    from .linalg import DensityMatrix

    channels = {v: _build_via(v, d, f) for v in vias}
    distances = {}
    worst = 0.0
    for i, a in enumerate(vias):
        for b in vias[i + 1:]:
            dist = cj_distance(channels[a], channels[b])
            distances[f"{a}|{b}"] = dist
            worst = max(worst, dist)
    # the channel's output on the file's state, re-labelled with the file's factor dims
    out = DensityMatrix._derived(apply_channel(channels[args.via], rho).mat, rho.dims)
    print(f"dimension       : {d}")
    print(f"via             : {args.via}")
    for k, v in distances.items():
        print(f"cj-dist {k:<17}: {v:.3e}")
    print(f"cross-check     : {'pass' if worst < args.tolerance else 'FAIL'}")
    if args.out:
        save_state(out, args.out)
        print(f"written         : {args.out}")
    _emit(
        args,
        {
            "via": args.via,
            "cj_distances": distances,
            "cross_check_passed": worst < args.tolerance,
            "output_state": state_to_dict(out),
        },
    )
    return OK if worst < args.tolerance else CHECK_FAILED


def _parse_cut(spec: str, n: int) -> tuple[int, str]:
    """Cut grammar: party letters split by '|', e.g. A|BC; one side is a single party."""
    parties = string.ascii_uppercase[:n]
    halves = spec.split("|")
    if len(halves) != 2 or not halves[0] or not halves[1]:
        raise DomainError(f"cut spec {spec!r} must look like 'A|BC'")
    seen = "".join(halves)
    if sorted(seen) != sorted(parties):
        raise DomainError(
            f"cut spec {spec!r} must name each of the parties {parties} exactly once"
        )
    single = None
    for half in halves:
        if len(half) == 1:
            single = half
            break
    if single is None:
        raise DomainError(f"cut spec {spec!r}: one side must be a single party")
    return parties.index(single), spec


def cmd_detect(args) -> int:
    from .fileio import parse_state_file

    rho = parse_state_file(args.state)
    dims = rho.dims
    if len(dims) < 2:
        print("error: the state file must declare at least two tensor factors", file=sys.stderr)
        return USAGE_ERROR
    if len(set(dims)) != 1:
        print("error: detection needs equal local dimensions", file=sys.stderr)
        return USAGE_ERROR
    cut_index, label = _parse_cut(args.cut, len(dims))
    from .witness import DetectionReport, detect, multipartite_aew, report_to_dict

    a = multipartite_aew(len(dims), dims[0], cut_index)
    res = detect(rho, a, cut_label=label)
    if args.shots is not None:
        from .estimator import detect_with_confidence, estimator_to_dict

        # sampled before anything is printed: a refused shot count prints one error line
        ver = detect_with_confidence(rho, a, shots=args.shots, seed=args.seed, level=args.confidence)
    print(f"cut             : {res.cut}")
    print(f"value           : {res.value:.12g}")
    print(f"threshold       : {res.threshold:.12g}")
    print(f"verdict         : {res.verdict}")
    print(f"ppt oracle      : {res.ppt}")
    estimator = None
    if args.shots is not None:
        print(f"shots           : {args.shots}")
        print(f"estimate        : {ver.shot_result.estimate:.6g}")
        print(
            f"bound           : [{ver.lower_bound:.6g}, {ver.upper_bound:.6g}] "
            f"at {args.confidence:.0%}"
        )
        print(f"shot verdict    : {ver.verdict}")
        estimator = estimator_to_dict(ver)
    _emit(args, report_to_dict(DetectionReport((res,), estimator=estimator)))
    return OK


def cmd_tripartite_demo(args) -> int:
    from .witness import evaluate_tripartite_example, report_to_dict

    rep = evaluate_tripartite_example()
    print(f"{'cut':<8}{'value':>14}{'threshold':>14}  {'verdict':<14}{'ppt':<6}")
    for c in rep.cuts:
        print(f"{c.cut:<8}{c.value:>14.9f}{c.threshold:>14.9f}  {c.verdict:<14}{c.ppt:<6}")
    for note in rep.notes:
        print(f"note: {note}")
    for cav in rep.caveats:
        print(f"caveat: {cav}")
    _emit(args, report_to_dict(rep))
    return OK


def cmd_verify_all(args) -> int:
    from . import acceptance

    results = acceptance.run_all(max_dim=args.max_dim)
    for r in results:
        print(acceptance.format_result(r))
    passed = all(r.passed for r in results)
    print(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    _emit(
        args,
        {
            "criteria": [
                {"id": r.cid, "name": r.name, "passed": r.passed, "details": r.details}
                for r in results
            ],
            "passed": passed,
        },
    )
    return OK if passed else CHECK_FAILED


# argparse types: a bad value is refused before any command starts its work

def _int_at_least(text: str, low: int, kind: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1, "positive")


def _seed(text: str) -> int:
    # numpy refuses a negative seed, so it is a usage error here
    return _int_at_least(text, 0, "non-negative")


def _float_arg(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None


def _confidence(text: str) -> float:
    value = _float_arg(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1, got {text}")
    return value


def _tolerance(text: str) -> float:
    value = _float_arg(text)
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text}")
    return value


class _Parser(argparse.ArgumentParser):
    """A usage error is one line on stderr and exit 2, like a file error."""

    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="transposim",
        description="Approximate transpose channels from quantum two-designs, "
        "with entanglement detection.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-design", help="check the two-design and coherence certificates")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--kind", choices=("sic", "mub"), required=True)
    p.add_argument("--fiducial", metavar="FILE", default=None)
    _common(p, tolerance=True)
    p.set_defaults(fn=cmd_verify_design)

    p = sub.add_parser("search-fiducial", help="search for a SIC fiducial numerically")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--max-iters", type=_positive_int, default=20000)
    p.add_argument("--out", metavar="FILE", default=None, help="write the fiducial file here")
    _common(p, seed=True)
    p.set_defaults(fn=cmd_search_fiducial)

    p = sub.add_parser(
        "apply-approx-transpose",
        help="apply the approximate transpose to a state, cross-checking realizations",
    )
    p.add_argument("--state", metavar="FILE", required=True)
    p.add_argument("--via", choices=_VIAS, default="formula")
    p.add_argument("--fiducial", metavar="FILE", default=None)
    p.add_argument("--out", metavar="FILE", default=None, help="write the output state here")
    _common(p, tolerance=True)
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("detect", help="evaluate the approximate witness on a state")
    p.add_argument("--state", metavar="FILE", required=True)
    p.add_argument("--cut", metavar="SPEC", required=True, help="e.g. A|BC")
    p.add_argument("--shots", type=_positive_int, default=None)
    p.add_argument("--confidence", type=_confidence, default=0.99)
    _common(p, seed=True)
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("tripartite-demo", help="reproduce the three-qubit worked example")
    _common(p)
    p.set_defaults(fn=cmd_tripartite_demo)

    p = sub.add_parser("verify-all", help="run the full verification suite")
    p.add_argument("--max-dim", type=int, choices=range(2, MAX_VERIFY_DIM + 1), default=5)
    _common(p)
    p.set_defaults(fn=cmd_verify_all)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (NotSICError, SearchFailed, ConventionMismatch, CalibrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except (ParseError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
