"""Command-line interface: computes output grids, lossy detection, zero
searches, parametric-family verification, heralding numbers, and the
collective-spin sweep, writing plot-ready JSON/CSV files.

Exit codes: 0 success, 2 usage/parse error, 3 domain/verification error,
4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction

from . import __version__
from .bs_core import BALANCED, BeamSplitterSetting
from .detector import (LossConfig, SqueezedSource, herald_posterior,
                       lossy_distribution, spdc_detection_prob, squeezing_db)
from .dicke import central_zero_sweep
from .joint_dist import JointDistribution, joint_general
from .nodal import (KNOWN_FAMILIES, bfs_zeros, cnl_scan, search_parametric,
                    verify_parametric)
from .states import parse_state

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".homlab-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(document: dict, path: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(document, indent=2) + "\n"
    elif fmt == "csv":
        text = _to_csv(document)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is None:
        sys.stdout.write(text)
    else:
        _atomic_write(path, text)


def _to_csv(document: dict) -> str:
    if "grid" in document:
        lines = ["m_a,m_b,P"]
        for m_a, row in enumerate(document["grid"]):
            for m_b, value in enumerate(row):
                lines.append(f"{m_a},{m_b},{value:.17g}")
        return "\n".join(lines) + "\n"
    if "zeros" in document:
        lines = ["m_a,m_b,physical"]
        for z in document["zeros"]:
            lines.append(f"{z['m_a']},{z['m_b']},{int(z['physical'])}")
        return "\n".join(lines) + "\n"
    if "sweep" in document:
        lines = ["J,P_central"]
        for row in document["sweep"]:
            lines.append(f"{row['J']},{row['P_central']:.17g}")
        return "\n".join(lines) + "\n"
    raise ValueError("document has no CSV rendering")


def _bs_meta(bs: BeamSplitterSetting) -> dict:
    if bs.is_exact:
        return {"T_num": bs.exact_t.numerator, "T_den": bs.exact_t.denominator}
    return {"theta": bs.theta}


def _grid_document(command: str, dist: JointDistribution, args) -> dict:
    report = cnl_scan(dist)
    return {
        "meta": {
            "command": command,
            "state_a": args.a,
            "state_b": args.b,
            "bs": _bs_meta(dist.bs),
            "grid_max": dist.grid_max,
            "eta_a": getattr(args, "eta_a", None),
            "eta_b": getattr(args, "eta_b", None),
            "tool_version": __version__,
        },
        "grid": [[float(v) for v in row] for row in dist.grid],
        "total_mass": dist.total_mass,
        "diagnostics": {
            "tail_deficit": 1.0 - dist.total_mass,
            "cnl_verdict": report.verdict,
        },
    }


# ---------------------------------------------------------------------------
# config-file merge: flag values override file values
# ---------------------------------------------------------------------------


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    path = getattr(args, "config", None)
    if not path:
        return args
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"--config: cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _CliError(EXIT_USAGE, f"--config: invalid JSON in {path}: {exc}")
    for key, value in doc.items():
        attr = key.replace("-", "_")
        if getattr(args, attr, None) is None and hasattr(args, attr):
            setattr(args, attr, value)
    return args


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise _CliError(EXIT_USAGE, f"--{name.replace('_', '-')}: missing required value")


def _parse_states(args):
    try:
        state_a = parse_state(args.a, cutoff=args.cutoff_a)
        state_b = parse_state(args.b, cutoff=args.cutoff_b)
        bs = BeamSplitterSetting.parse(args.bs)
    except (ValueError, KeyError) as exc:
        raise _CliError(EXIT_USAGE, f"invalid state/beam-splitter flag: {exc}")
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read custom state file: {exc}")
    return state_a, state_b, bs


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_dist(args) -> int:
    _require(args, "a", "b")
    state_a, state_b, bs = _parse_states(args)
    try:
        dist = joint_general((state_a, state_b), bs, grid_max=args.grid_max)
    except ValueError as exc:
        raise _CliError(EXIT_DOMAIN, str(exc))
    _emit(_grid_document("dist", dist, args), args.output, args.format)
    return EXIT_OK


def cmd_lossy(args) -> int:
    _require(args, "a", "b", "eta_a", "eta_b")
    state_a, state_b, bs = _parse_states(args)
    try:
        loss = LossConfig(eta_a=float(args.eta_a), eta_b=float(args.eta_b))
        dist = lossy_distribution(
            joint_general((state_a, state_b), bs, grid_max=args.grid_max), loss)
    except ValueError as exc:
        raise _CliError(EXIT_DOMAIN, str(exc))
    _emit(_grid_document("lossy", dist, args), args.output, args.format)
    return EXIT_OK


def cmd_zeros(args) -> int:
    _require(args, "n", "T", "max")
    try:
        zs = bfs_zeros(int(args.n), Fraction(str(args.T)), int(args.max))
    except (ValueError, ZeroDivisionError) as exc:
        raise _CliError(EXIT_USAGE, f"--n/--T/--max: {exc}")
    doc = zs.to_json()
    doc["meta"] = {"command": "zeros", "tool_version": __version__}
    _emit(doc, args.output, args.format)
    if args.output is not None:
        for m_a, m_b in zs.zeros:
            print(f"({m_a}, {m_b})")
    return EXIT_OK


def cmd_parametric(args) -> int:
    _require(args, "n", "T")
    try:
        sols = search_parametric(int(args.n), Fraction(str(args.T)),
                                 int(args.degree),
                                 (int(args.coeff_min), int(args.coeff_max)),
                                 workers=args.workers)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc))
    doc = {
        "meta": {"command": "parametric", "tool_version": __version__},
        "n": int(args.n),
        "T": {"num": Fraction(str(args.T)).numerator,
              "den": Fraction(str(args.T)).denominator},
        "degree": int(args.degree),
        "coeff_range": [int(args.coeff_min), int(args.coeff_max)],
        "solutions": [s.to_json() for s in sols],
    }
    _emit(doc, args.output, "json")
    print(f"{len(sols)} parametric solution(s) found")
    return EXIT_OK


def cmd_herald(args) -> int:
    _require(args, "t", "eta", "r")
    try:
        source = SqueezedSource(r=float(args.r))
        t = int(args.t)
        n_prime = t if args.n_prime is None else int(args.n_prime)
        posterior = herald_posterior(n_prime, t, float(args.eta), source)
        detection = spdc_detection_prob(t, float(args.eta), source)
    except ValueError as exc:
        raise _CliError(EXIT_DOMAIN, str(exc))
    doc = {
        "meta": {"command": "herald", "tool_version": __version__},
        "t": t,
        "n_prime": n_prime,
        "eta": float(args.eta),
        "r": float(args.r),
        "posterior": posterior,
        "detection_prob": detection,
        "squeezing_db": squeezing_db(float(args.r)),
    }
    if args.output is not None:
        _emit(doc, args.output, "json")
    print(f"posterior P(n'={n_prime} | t={t}) = {posterior:.4f}")
    return EXIT_OK


def cmd_dicke(args) -> int:
    _require(args, "j_max")
    bs = BeamSplitterSetting.parse(args.bs) if args.bs else BALANCED
    try:
        sweep = [{"J": j, "P_central": float(p)}
                 for j, p in enumerate(central_zero_sweep(int(args.j_max), 0, bs))]
    except ValueError as exc:
        raise _CliError(EXIT_DOMAIN, str(exc))
    doc = {
        "meta": {"command": "dicke", "bs": _bs_meta(bs),
                 "tool_version": __version__},
        "sweep": sweep,
    }
    _emit(doc, args.output, args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    tables = args.tables or "all"
    if tables not in ("all", "builtin", "appendix-c"):
        raise _CliError(EXIT_USAGE, f"--tables: unknown table set {tables!r}")
    rows = []
    all_valid = True
    for (n, t), families in sorted(KNOWN_FAMILIES.items()):
        for sol in families:
            result = verify_parametric(sol)
            ok = result.valid and result.certificates_agree
            all_valid &= ok
            rows.append({"n": n, "T": f"{t}", "m_a": list(sol.a_coeffs),
                         "m_b": list(sol.b_coeffs), "valid": ok})
            status = "ok" if ok else "FAIL"
            print(f"[{status}] n={n} T={t} m_a={list(sol.a_coeffs)} "
                  f"m_b={list(sol.b_coeffs)}")
    if args.output is not None:
        _emit({"meta": {"command": "verify", "tool_version": __version__},
               "rows": rows, "all_valid": all_valid}, args.output, "json")
    return EXIT_OK if all_valid else EXIT_DOMAIN


# ---------------------------------------------------------------------------
# argument parser
# ---------------------------------------------------------------------------


def _add_common(sub, grid: bool = True):
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("-o", "--output", help="output file (default: stdout)")
    if grid:
        sub.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homlab",
        description="Beam-splitter joint photon-number distributions and "
                    "exact interference-zero certification.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("dist", help="output joint distribution grid")
    p.add_argument("--a", help="a-mode state descriptor, e.g. fock:1")
    p.add_argument("--b", help="b-mode state descriptor, e.g. coherent:beta=3")
    p.add_argument("--bs", default="1/2", help='"1/2", "3/4" or "theta=1.0472"')
    p.add_argument("--grid-max", type=int, dest="grid_max")
    p.add_argument("--cutoff-a", type=int, dest="cutoff_a")
    p.add_argument("--cutoff-b", type=int, dest="cutoff_b")
    _add_common(p)
    p.set_defaults(func=cmd_dist)

    p = subs.add_parser("lossy", help="grid seen by lossy detectors")
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--bs", default="1/2")
    p.add_argument("--grid-max", type=int, dest="grid_max")
    p.add_argument("--cutoff-a", type=int, dest="cutoff_a")
    p.add_argument("--cutoff-b", type=int, dest="cutoff_b")
    p.add_argument("--eta-a", type=float, dest="eta_a")
    p.add_argument("--eta-b", type=float, dest="eta_b")
    _add_common(p)
    p.set_defaults(func=cmd_lossy)

    p = subs.add_parser("zeros", help="exhaustive integer zero scan")
    p.add_argument("--n", type=int)
    p.add_argument("--T", dest="T")
    p.add_argument("--max", type=int, dest="max")
    _add_common(p)
    p.set_defaults(func=cmd_zeros)

    p = subs.add_parser("parametric", help="search for polynomial zero families")
    p.add_argument("--n", type=int)
    p.add_argument("--T", dest="T")
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--coeff-min", type=int, default=-10, dest="coeff_min")
    p.add_argument("--coeff-max", type=int, default=10, dest="coeff_max")
    p.add_argument("--workers", type=int)
    _add_common(p, grid=False)
    p.set_defaults(func=cmd_parametric)

    p = subs.add_parser("herald", help="heralding posterior for a pair source")
    p.add_argument("--t", type=int, help="registered photon count")
    p.add_argument("--eta", type=float, help="heralding detector efficiency")
    p.add_argument("--r", type=float, help="source squeezing parameter")
    p.add_argument("--n-prime", type=int, dest="n_prime",
                   help="latent pair number (default: t)")
    _add_common(p, grid=False)
    p.set_defaults(func=cmd_herald)

    p = subs.add_parser("dicke", help="collective-spin central-probability sweep")
    p.add_argument("--j-max", type=int, dest="j_max")
    p.add_argument("--bs")
    _add_common(p)
    p.set_defaults(func=cmd_dicke)

    p = subs.add_parser("verify", help="re-certify the built-in zero families")
    p.add_argument("--tables", help='"all" (alias "builtin", "appendix-c")')
    _add_common(p, grid=False)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args)
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
