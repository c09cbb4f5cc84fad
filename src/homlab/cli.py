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

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _atomic_write(path: str, chunks) -> None:
    """Write the text ``chunks`` through a temporary file and ``os.replace``.
    ``mkstemp`` opens it 0600, so it gets the mode ``open(path, "w")`` would
    give: 0666 less the umask, which can only be read by setting it."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".homlab-")
    try:
        umask = os.umask(0)
        os.umask(umask)
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(document: dict, path: str | None, fmt: str) -> None:
    """Write ``document`` chunk by chunk: it is never held as one text."""
    chunks = _to_csv(document) if fmt == "csv" else _to_json(document)
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        _atomic_write(path, chunks)


def _to_json(document: dict):
    """The chunks of ``json.dumps(document, indent=2) + "\\n"``, one per row of
    a ``"grid"`` of floats, which is written directly: with an indent, json
    runs its pure-Python encoder, which costs more than the rest of a large
    grid command.  ``float.__repr__`` is the text json writes for a finite
    float; ``JointDistribution`` admits no NaN or infinity."""
    if "grid" not in document:
        yield json.dumps(document, indent=2) + "\n"
        return
    for i, (key, value) in enumerate(document.items()):
        yield f"{',' if i else '{'}\n  {json.dumps(key)}: "
        if key == "grid":
            yield from _grid_json(value)
        else:
            # json escapes newlines inside strings, so every newline here is
            # layout and re-indenting by one level is exact
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
    yield "\n}\n"


def _heads(grid):
    """Each row of ``grid`` up to its last entry that is not +0.0, as Python
    floats; the writers emit the rest from one precomputed zero tail.  -0.0
    prints as ``-0.0`` / ``-0``, so it belongs to the head.  +0.0 is the one
    float whose bits are all zero, so one comparison and one argmax find the
    ends of a block of rows of 64 Ki cells at most."""
    import numpy as np
    width = max(map(len, grid), default=0)
    step = max(1, (1 << 16) // max(width, 1))
    for start in range(0, len(grid), step):
        block = np.asarray(grid[start:start + step], dtype=float)
        kept = np.ones((len(block), width + 1), dtype=bool)  # column 0: a row of +0.0 ends at 0
        np.not_equal(block.view(np.int64), 0, out=kept[:, 1:])
        ends = width - kept[:, ::-1].argmax(axis=1)
        yield from (values[:end].tolist() for values, end in zip(block, ends))


def _grid_json(grid):
    """The text of a grid (rows of floats) at the first indent level, one
    chunk per row.  Every item of a row is written as ",\\n      " + its
    repr, so a row's zero tail is a slice of one precomputed run of zero
    items."""
    if not len(grid):
        yield "[]"
        return
    zero_item = ",\n      0.0"
    zero_run = zero_item * max(map(len, grid))
    for i, (row, head) in enumerate(zip(grid, _heads(grid))):
        items = "".join(f",\n      {v!r}" for v in head) \
            + zero_run[:len(zero_item) * (len(row) - len(head))]
        # "[" + the items without their leading comma
        yield (",\n    " if i else "[\n    ") + ("[" + items[1:] + "\n    ]" if items else "[]")
    yield "\n  ]"


def _to_csv(document: dict):
    """The chunks of a document's CSV text: a grid row's head and tail, or a line."""
    if "grid" in document:
        grid = document["grid"]
        # line "m_a,m_b,0" of a zero tail is str(m_a) + zero_suffix[m_b]
        zero_suffix = [f",{m_b},0\n" for m_b in range(max(map(len, grid), default=0))]
        yield "m_a,m_b,P\n"
        for m_a, (row, head) in enumerate(zip(grid, _heads(grid))):
            yield "".join(f"{m_a},{m_b},{value:.17g}\n" for m_b, value in enumerate(head))
            if len(head) < len(row):
                yield f"{m_a}" + f"{m_a}".join(zero_suffix[len(head):len(row)])
    elif "zeros" in document:
        yield "m_a,m_b,physical\n"
        yield from (f"{z['m_a']},{z['m_b']},{int(z['physical'])}\n" for z in document["zeros"])
    elif "sweep" in document:
        yield "J,P_central\n"
        yield from (f"{r['J']},{r['P_central']:.17g}\n" for r in document["sweep"])
    else:
        raise ValueError("document has no CSV rendering")


def _bs_meta(bs) -> dict:
    if bs.is_exact:
        return {"T_num": bs.exact_t.numerator, "T_den": bs.exact_t.denominator}
    return {"theta": bs.theta}


def _grid_document(command: str, dist, args) -> dict:
    from . import joint_dist
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
        "grid": dist.grid,
        "total_mass": dist.total_mass,
        "diagnostics": {
            "tail_deficit": 1.0 - dist.total_mass,
            "cnl_verdict": joint_dist.cnl_scan(dist).verdict,
            "warnings": list(dist.warnings),
        },
    }


# ---------------------------------------------------------------------------
# config-file merge: flag values override file values
# ---------------------------------------------------------------------------


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser,
                  argv: list[str] | None) -> argparse.Namespace:
    """Parse ``argv`` again with the file's JSON object as the subcommand's
    defaults, each value converted and checked as argparse would check that
    flag's text, so that any flag given on the command line still wins."""
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
    if not isinstance(doc, dict):
        raise _CliError(EXIT_USAGE, f"--config: {path} must hold a JSON object")
    sub = next(a for a in parser._actions if a.dest == "command").choices[args.command]
    actions = {action.dest: action for action in sub._actions}
    defaults = {}
    for key, value in doc.items():
        action = actions.get(key.replace("-", "_"))
        if action is None or value is None:
            continue
        try:
            converted = (action.type or str)(str(value))
            if action.choices is not None and converted not in action.choices:
                raise ValueError(f"not one of {action.choices}")
        except ValueError:
            raise _CliError(EXIT_USAGE, f"--config: invalid {key} value {value!r}")
        defaults[action.dest] = converted
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise _CliError(EXIT_USAGE, f"--{name.replace('_', '-')}: missing required value")


def _transmittance(args) -> Fraction:
    """--T as an exact fraction; a zero denominator is named, as Fraction
    reports it only as "Fraction(1, 0)"."""
    try:
        return Fraction(str(args.T))
    except ZeroDivisionError:
        raise _CliError(EXIT_USAGE, f"--T {args.T}: the denominator is 0")
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, f"--T: {exc}")


def _splitter(text: str, code: int):
    """--bs as a setting; a bad value exits with ``code`` and names the flag."""
    from . import bs_core
    try:
        return bs_core.BeamSplitterSetting.parse(text)
    except ValueError as exc:
        raise _CliError(code, f"--bs {text}: {exc}")


def _parse_states(args):
    from . import states
    try:
        state_a = states.parse_state(args.a, cutoff=args.cutoff_a)
        state_b = states.parse_state(args.b, cutoff=args.cutoff_b)
    except (ValueError, KeyError) as exc:
        raise _CliError(EXIT_USAGE, f"invalid state flag: {exc}")
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read custom state file: {exc}")
    return state_a, state_b, _splitter(args.bs, EXIT_USAGE)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_dist(args) -> int:
    from . import joint_dist
    _require(args, "a", "b")
    state_a, state_b, bs = _parse_states(args)
    try:
        dist = joint_dist.joint_general((state_a, state_b), bs, grid_max=args.grid_max)
    except ValueError as exc:
        raise _CliError(EXIT_DOMAIN, str(exc))
    _emit(_grid_document("dist", dist, args), args.output, args.format)
    return EXIT_OK


def cmd_lossy(args) -> int:
    from . import detector, joint_dist
    _require(args, "a", "b", "eta_a", "eta_b")
    state_a, state_b, bs = _parse_states(args)
    try:
        loss = detector.LossConfig(eta_a=float(args.eta_a), eta_b=float(args.eta_b))
        dist = detector.lossy_distribution(
            joint_dist.joint_general((state_a, state_b), bs, grid_max=args.grid_max), loss)
    except ValueError as exc:
        raise _CliError(EXIT_DOMAIN, str(exc))
    _emit(_grid_document("lossy", dist, args), args.output, args.format)
    return EXIT_OK


def cmd_zeros(args) -> int:
    from . import nodal
    _require(args, "n", "T", "max")
    t = _transmittance(args)
    try:
        zs = nodal.bfs_zeros(int(args.n), t, int(args.max))
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, f"--n/--T/--max: {exc}")
    doc = zs.to_json()
    doc["meta"] = {"command": "zeros", "tool_version": __version__}
    _emit(doc, args.output, args.format)
    if args.output is not None:
        for m_a, m_b in zs.zeros:
            print(f"({m_a}, {m_b})")
    return EXIT_OK


def cmd_parametric(args) -> int:
    from . import nodal
    _require(args, "n", "T")
    t = _transmittance(args)
    try:
        sols = nodal.search_parametric(int(args.n), t, int(args.degree),
                                       (int(args.coeff_min), int(args.coeff_max)))
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc))
    doc = {
        "meta": {"command": "parametric", "tool_version": __version__},
        "n": int(args.n),
        "T": {"num": t.numerator, "den": t.denominator},
        "degree": int(args.degree),
        "coeff_range": [int(args.coeff_min), int(args.coeff_max)],
        "solutions": [s.to_json() for s in sols],
    }
    _emit(doc, args.output, "json")
    print(f"{len(sols)} parametric solution(s) found")
    return EXIT_OK


def cmd_herald(args) -> int:
    from . import detector
    _require(args, "t", "eta", "r")
    try:
        source = detector.SqueezedSource(r=float(args.r))
        t = int(args.t)
        n_prime = t if args.n_prime is None else int(args.n_prime)
        posterior = detector.herald_posterior(n_prime, t, float(args.eta), source)
        detection = detector.spdc_detection_prob(t, float(args.eta), source)
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
        "squeezing_db": detector.squeezing_db(float(args.r)),
    }
    if args.output is not None:
        _emit(doc, args.output, "json")
    print(f"posterior P(n'={n_prime} | t={t}) = {posterior:.4f}")
    return EXIT_OK


def cmd_dicke(args) -> int:
    from . import bs_core, dicke
    _require(args, "j_max")
    if args.j_max < 0:
        raise _CliError(EXIT_USAGE, "--j-max: must be non-negative")
    bs = _splitter(args.bs, EXIT_DOMAIN) if args.bs else bs_core.BALANCED
    sweep = [{"J": j, "P_central": p}
             for j, p in enumerate(dicke.central_zero_sweep(int(args.j_max), bs))]
    doc = {
        "meta": {"command": "dicke", "bs": _bs_meta(bs),
                 "tool_version": __version__},
        "sweep": sweep,
    }
    _emit(doc, args.output, args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import nodal
    if args.tables not in (None, "all"):
        raise _CliError(EXIT_USAGE, f"--tables: unknown table set {args.tables!r}")
    rows = []
    all_valid = True
    for (n, t), families in sorted(nodal.KNOWN_FAMILIES.items()):
        for sol in families:
            result = nodal.verify_parametric(sol)
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


def _add_grid_input(sub):
    sub.add_argument("--a", help="a-mode state descriptor, e.g. fock:1")
    sub.add_argument("--b", help="b-mode state descriptor, e.g. coherent:beta=3")
    sub.add_argument("--bs", default="1/2", help='"1/2", "3/4" or "theta=1.0472"')
    sub.add_argument("--grid-max", type=int, dest="grid_max")
    sub.add_argument("--cutoff-a", type=int, dest="cutoff_a")
    sub.add_argument("--cutoff-b", type=int, dest="cutoff_b")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homlab",
        description="Beam-splitter joint photon-number distributions and "
                    "exact interference-zero certification.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("dist", help="output joint distribution grid")
    _add_grid_input(p)
    _add_common(p)
    p.set_defaults(func=cmd_dist)

    p = subs.add_parser("lossy", help="grid seen by lossy detectors")
    _add_grid_input(p)
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
    p.add_argument("--tables", help='"all", the only table set')
    _add_common(p, grid=False)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args, parser, argv)
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
