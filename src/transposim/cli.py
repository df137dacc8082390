"""Command-line surface: design verification, fiducial search, channel
application, entanglement detection, and the full verification suite.

Exit codes: 0 success/verified, 1 verification failed or computation error,
2 usage or file error.
"""

from __future__ import annotations

import argparse
import string
import sys

import numpy as np

from . import acceptance
from .channels import (
    apply_channel,
    approx_transpose,
    cj_distance,
    measure_prepare_from_design,
)
from .designs import (
    builtin_fiducial,
    design_matrix,
    fiducial_search,
    load_fiducial,
    mub_prime,
    orbit_certificate,
    save_fiducial,
    sic_from_fiducial,
)
from .errors import (
    CalibrationError,
    ConventionMismatch,
    DomainError,
    NotPrimeError,
    NotSICError,
    ParseError,
    SearchFailed,
    ValidationError,
)
from .estimator import detect_with_confidence, estimator_to_dict
from .fileio import parse_state_file, save_state, state_to_dict, write_json
from .linalg import DensityMatrix
from .optics import build_fig2_pipeline, output_channel
from .twostep import two_step_channel
from .witness import (
    detect,
    evaluate_tripartite_example,
    multipartite_aew,
    report_to_dict,
)

USAGE_ERROR = 2
CHECK_FAILED = 1
OK = 0


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="seed for any randomized step")
    p.add_argument("--tolerance", type=float, default=1e-10, help="pass/fail tolerance")
    p.add_argument("--json", metavar="PATH", default=None, help="write a JSON report here")


def _emit(args, doc: dict) -> None:
    if args.json:
        write_json(doc, args.json)


def _fiducial_for(dim: int, path: str | None):
    if path:
        f = load_fiducial(path)
        if f.d != dim:
            raise ParseError(f"{path}: fiducial has dimension {f.d}, expected dimension {dim}")
        return f
    return builtin_fiducial(dim)


def cmd_verify_design(args) -> int:
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
    arr = design_matrix(design)
    uniform_sum = sum(np.outer(v, v.conj()) for v in arr) / n
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
    _emit(
        args,
        {
            "dim": args.dim,
            "vectors": [[[float(c.real), float(c.imag)] for c in f.ket.vec]],
        },
    )
    return OK


_VIAS = ("formula", "design", "two-step", "optics")


def _build_via(via: str, d: int, fiducial_path: str | None):
    if via == "formula":
        return approx_transpose(d)
    f = _fiducial_for(d, fiducial_path)
    if via == "design":
        return measure_prepare_from_design(sic_from_fiducial(f))[1]
    if via == "two-step":
        return two_step_channel(f)
    if via == "optics":
        if d != 2:
            raise DomainError("the optics pipeline exists for d = 2 only")
        return output_channel(build_fig2_pipeline(f))
    raise DomainError(f"unknown realization {via!r}")


def cmd_apply(args) -> int:
    rho = parse_state_file(args.state)
    d = rho.dim
    vias = ["formula"]
    try:
        _fiducial_for(d, args.fiducial)
        vias += ["design", "two-step"]
    except DomainError:
        pass
    if d == 2:
        vias.append("optics")
    if args.via not in vias:
        print(f"error: --via {args.via} is not available in dimension {d}", file=sys.stderr)
        return USAGE_ERROR
    channels = {v: _build_via(v, d, args.fiducial) for v in vias}
    distances = {}
    worst = 0.0
    for i, a in enumerate(vias):
        for b in vias[i + 1:]:
            dist = cj_distance(channels[a], channels[b])
            distances[f"{a}|{b}"] = dist
            worst = max(worst, dist)
    out = DensityMatrix(apply_channel(channels[args.via], rho).mat, dims=rho.dims)
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
    rho = parse_state_file(args.state)
    dims = rho.dims
    if len(dims) < 2:
        print("error: the state file must declare at least two tensor factors", file=sys.stderr)
        return USAGE_ERROR
    if len(set(dims)) != 1:
        print("error: detection needs equal local dimensions", file=sys.stderr)
        return USAGE_ERROR
    d = dims[0]
    cut_index, label = _parse_cut(args.cut, len(dims))
    g = sic_from_fiducial(_fiducial_for(d, args.fiducial))
    a = multipartite_aew(len(dims), d, cut_index, g)
    res = detect(rho, a, cut_label=label)
    caveats = []
    if res.caveat:
        caveats.append(f"{label}: threshold fired although the partial transpose is positive")
    print(f"cut             : {res.cut}")
    print(f"value           : {res.value:.12g}")
    print(f"threshold       : {res.threshold:.12g}")
    print(f"verdict         : {res.verdict}")
    print(f"ppt oracle      : {res.ppt}")
    doc = {
        "cuts": [
            {
                "cut": res.cut,
                "value": res.value,
                "threshold": res.threshold,
                "verdict": res.verdict,
                "ppt": res.ppt,
            }
        ],
        "caveats": caveats,
    }
    if args.shots is not None:
        ver = detect_with_confidence(rho, a, shots=args.shots, seed=args.seed, level=args.confidence)
        print(f"shots           : {args.shots}")
        print(f"estimate        : {ver.shot_result.estimate:.6g}")
        print(
            f"bound           : [{ver.lower_bound:.6g}, {ver.upper_bound:.6g}] "
            f"at {args.confidence:.0%}"
        )
        print(f"shot verdict    : {ver.verdict}")
        doc["estimator"] = estimator_to_dict(ver)
    _emit(args, doc)
    return OK


def cmd_tripartite_demo(args) -> int:
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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="transposim",
        description="Approximate transpose channels from quantum two-designs, "
        "with entanglement detection.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-design", help="check the two-design and coherence certificates")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--kind", choices=("sic", "mub"), required=True)
    p.add_argument("--fiducial", metavar="FILE", default=None)
    _common(p)
    p.set_defaults(fn=cmd_verify_design)

    p = sub.add_parser("search-fiducial", help="search for a SIC fiducial numerically")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--max-iters", type=int, default=20000)
    p.add_argument("--out", metavar="FILE", default=None, help="write the fiducial file here")
    _common(p)
    p.set_defaults(fn=cmd_search_fiducial)

    p = sub.add_parser(
        "apply-approx-transpose",
        help="apply the approximate transpose to a state, cross-checking realizations",
    )
    p.add_argument("--state", metavar="FILE", required=True)
    p.add_argument("--via", choices=_VIAS, default="formula")
    p.add_argument("--fiducial", metavar="FILE", default=None)
    p.add_argument("--out", metavar="FILE", default=None, help="write the output state here")
    _common(p)
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("detect", help="evaluate the approximate witness on a state")
    p.add_argument("--state", metavar="FILE", required=True)
    p.add_argument("--cut", metavar="SPEC", required=True, help="e.g. A|BC")
    p.add_argument("--shots", type=_positive_int, default=None)
    p.add_argument("--confidence", type=float, default=0.99)
    p.add_argument("--fiducial", metavar="FILE", default=None)
    _common(p)
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("tripartite-demo", help="reproduce the three-qubit worked example")
    _common(p)
    p.set_defaults(fn=cmd_tripartite_demo)

    p = sub.add_parser("verify-all", help="run the full verification suite")
    p.add_argument("--max-dim", type=int, default=5)
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
    except (ParseError, ValidationError, NotPrimeError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
