"""Command-line interface: computes output grids, lossy detection, zero
searches, parametric-family verification, heralding numbers, and the
collective-spin sweep, writing plot-ready JSON/CSV files.

Exit codes: 0 success, 2 usage/parse error, 3 domain/verification error,
4 I/O error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
from collections import namedtuple

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
    """The chunks of ``document`` as JSON: one line per top-level item, and
    one per element of a top-level list, so that a family, a zero or a grid
    row is one line.  Each value is ``json.dumps`` text without an indent,
    written by json's C encoder (an indent selects its pure-Python one)."""
    if not document:
        yield "{}\n"
        return
    for i, (key, value) in enumerate(document.items()):
        yield f"{',' if i else '{'}\n  {json.dumps(key)}: "
        if key == "grid" or isinstance(value, (list, tuple)):
            lines = _grid_json(value) if key == "grid" else map(json.dumps, value)
            yield "["
            for j, line in enumerate(lines):
                yield f"{',' if j else ''}\n    {line}"
            yield "\n  ]" if len(value) else "]"
        else:
            yield json.dumps(value)
    yield "\n}\n"


def _heads(grid):
    """Each row of ``grid`` before its +0.0 padding (``row_ends``), as Python floats."""
    import numpy as np
    from .joint_dist import row_ends
    grid = np.asarray(grid, dtype=float)
    yield from (row[:end].tolist() for row, end in zip(grid, row_ends(grid)))


def _grid_json(grid):
    """Each row of a grid of floats as ``json.dumps(row)`` writes it: the
    reprs of its head, then a slice of one precomputed run of zero items.
    ``float.__repr__`` is json's text for a finite float, and
    ``JointDistribution`` admits no NaN or infinity."""
    zero = ", 0.0"
    zero_run = zero * max(map(len, grid), default=0)
    for row, head in zip(grid, _heads(grid)):
        text = ", ".join(map(repr, head)) + zero_run[:len(zero) * (len(row) - len(head))]
        yield "[" + text.removeprefix(", ") + "]"


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


def _grid_document(dist, args) -> dict:
    from . import joint_dist
    return {
        "meta": {
            "command": args.command,
            "state_a": args.a,
            "state_b": args.b,
            "bs": _bs_meta(dist.bs),
            "grid_max": dist.grid_max,
            "eta_a": getattr(args, "eta_a", None),
            "eta_b": getattr(args, "eta_b", None),
            "tool_version": __version__,
        },
        "grid": dist.grid,
        "total_mass": (mass := dist.total_mass),
        "diagnostics": {
            "tail_deficit": 1.0 - mass,
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
    except ValueError as exc:  # also a file that is not UTF-8
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
    """``_CliError(code, message)``: the command ends in ``error: message``
    and exit code ``code``."""


def _transmittance(args):
    """--T as an exact fraction; a zero denominator is named, as Fraction
    reports it only as "Fraction(1, 0)"."""
    from fractions import Fraction
    try:
        return Fraction(str(args.T))
    except ZeroDivisionError:
        raise _CliError(EXIT_USAGE, f"--T {args.T}: the denominator is 0")
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, f"--T: {exc}")


def _splitter(text: str):
    """--bs as a setting; a bad value is a usage error that names the flag."""
    from . import bs_core
    try:
        return bs_core.BeamSplitterSetting.parse(text)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, f"--bs {text}: {exc}")


def _parse_states(args):
    from . import states
    try:
        state_a = states.parse_state(args.a, cutoff=args.cutoff_a)
        state_b = states.parse_state(args.b, cutoff=args.cutoff_b)
    except (ValueError, KeyError) as exc:
        raise _CliError(EXIT_USAGE, f"invalid state flag: {exc}")
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read custom state file: {exc}")
    return state_a, state_b, _splitter(args.bs)


# ---------------------------------------------------------------------------
# subcommands: cmd_<name> runs ``homlab <name>`` on parsed, checked flags; a
# ValueError it raises ends in the exit code of the name's COMMANDS entry
# ---------------------------------------------------------------------------


def cmd_dist(args) -> int:
    """The output grid, cropped or padded to --grid-max; for ``lossy``, the
    grid seen by detectors of efficiencies --eta-a and --eta-b (checked
    before it is computed), which thin every latent count before the crop."""
    from . import joint_dist
    state_a, state_b, bs = _parse_states(args)
    if args.command == "lossy":
        from . import detector
        loss = detector.LossConfig(eta_a=args.eta_a, eta_b=args.eta_b)
        try:
            latent = joint_dist.joint_general((state_a, state_b), bs)
        except ValueError as exc:
            raise ValueError(f"latent grid before loss: {exc}") from None
        dist = detector.lossy_distribution(latent, loss, args.grid_max)
    else:
        dist = joint_dist.joint_general((state_a, state_b), bs, grid_max=args.grid_max)
    _emit(_grid_document(dist, args), args.output, args.format)
    return EXIT_OK


cmd_lossy = cmd_dist  # its own name, so that a wrapper can tell the two apart


def cmd_zeros(args) -> int:
    from . import nodal
    zs = nodal.bfs_zeros(args.n, _transmittance(args), args.max)
    doc = {**zs.to_json(), "meta": {"command": "zeros", "tool_version": __version__}}
    _emit(doc, args.output, args.format)
    if args.output is not None:
        for m_a, m_b in zs.zeros:
            print(f"({m_a}, {m_b})")
    return EXIT_OK


def cmd_parametric(args) -> int:
    from . import nodal
    t = _transmittance(args)
    sols = nodal.search_parametric(args.n, t, args.degree, (args.coeff_min, args.coeff_max))
    doc = {
        "meta": {"command": "parametric", "tool_version": __version__},
        "n": args.n,
        "T": {"num": t.numerator, "den": t.denominator},
        "degree": args.degree,
        "coeff_range": [args.coeff_min, args.coeff_max],
        "solutions": [s.to_json() for s in sols],
    }
    _emit(doc, args.output, args.format)
    if args.output is not None:
        print(f"{len(sols)} parametric solution(s) found")
    return EXIT_OK


def cmd_herald(args) -> int:
    from . import detector
    source = detector.SqueezedSource(r=args.r)
    n_prime = args.t if args.n_prime is None else args.n_prime
    posterior = detector.herald_posterior(n_prime, args.t, args.eta, source)
    doc = {
        "meta": {"command": "herald", "tool_version": __version__},
        "t": args.t,
        "n_prime": n_prime,
        "eta": args.eta,
        "r": args.r,
        "posterior": posterior,
        "detection_prob": detector.spdc_detection_prob(args.t, args.eta, source),
        "squeezing_db": detector.squeezing_db(args.r),
    }
    if args.output is not None:
        _emit(doc, args.output, args.format)
    print(f"posterior P(n'={n_prime} | t={args.t}) = {posterior:.4f}")
    return EXIT_OK


def cmd_dicke(args) -> int:
    from . import dicke
    bs = _splitter(args.bs)
    sweep = [{"J": j, "P_central": p}
             for j, p in enumerate(dicke.central_zero_sweep(args.j_max, bs))]
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
               "rows": rows, "all_valid": all_valid}, args.output, args.format)
    return EXIT_OK if all_valid else EXIT_DOMAIN


# ---------------------------------------------------------------------------
# the command table and the parser built from it
# ---------------------------------------------------------------------------


#: a subcommand's help line, its flags (flag -> add_argument keywords), its
#: output formats (two make the --format flag), the flags it cannot run
#: without, and the exit code of a ValueError from its handler ``cmd_<name>``
_Command = namedtuple("_Command", "help flags formats required value_error")

_INT = {"type": int}
_GRID_INPUT = {
    "--a": {"help": "a-mode state descriptor, e.g. fock:1"},
    "--b": {"help": "b-mode state descriptor, e.g. coherent:beta=3"},
    "--bs": {"default": "1/2", "help": '"1/2", "3/4" or "theta=1.0472"'},
    "--grid-max": _INT,
    "--cutoff-a": _INT,
    "--cutoff-b": _INT,
}

COMMANDS = {
    "dist": _Command("output joint distribution grid", _GRID_INPUT, ("json", "csv"),
                     ("a", "b"), EXIT_DOMAIN),
    "lossy": _Command("grid seen by lossy detectors",
                      {**_GRID_INPUT, "--eta-a": {"type": float}, "--eta-b": {"type": float}},
                      ("json", "csv"), ("a", "b", "eta_a", "eta_b"), EXIT_DOMAIN),
    "zeros": _Command("exhaustive integer zero scan",
                      {"--n": _INT, "--T": {}, "--max": _INT}, ("json", "csv"),
                      ("n", "T", "max"), EXIT_USAGE),
    "parametric": _Command("search for polynomial zero families",
                           {"--n": _INT, "--T": {}, "--degree": {"type": int, "default": 2},
                            "--coeff-min": {"type": int, "default": -10},
                            "--coeff-max": {"type": int, "default": 10}},
                           ("json",), ("n", "T"), EXIT_USAGE),
    "herald": _Command("heralding posterior for a pair source",
                       {"--t": {"type": int, "help": "registered photon count"},
                        "--eta": {"type": float, "help": "heralding detector efficiency"},
                        "--r": {"type": float, "help": "source squeezing parameter"},
                        "--n-prime": {"type": int, "help": "latent pair number (default: t)"}},
                       ("json",), ("t", "eta", "r"), EXIT_DOMAIN),
    "dicke": _Command("collective-spin central-probability sweep",
                      {"--j-max": _INT, "--bs": {"default": "1/2"}}, ("json", "csv"),
                      ("j_max",), EXIT_USAGE),
    "verify": _Command("re-certify the built-in zero families",
                       {"--tables": {"help": '"all", the only table set'}}, ("json",),
                       (), EXIT_DOMAIN),
}


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of every command, with flags for only the one ``argv`` names:
    its first token without a leading "-", as no top-level option takes a value."""
    parser = argparse.ArgumentParser(
        prog="homlab",
        description="Beam-splitter joint photon-number distributions and "
                    "exact interference-zero certification.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    named = next((token for token in argv if not token.startswith("-")), None)
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        if name != named:
            continue
        for flag, options in command.flags.items():
            sub.add_argument(flag, **options)
        sub.add_argument("--config", help="JSON config file; flags override it")
        sub.add_argument("-o", "--output", help="output file (default: stdout)")
        sub.set_defaults(format=command.formats[0])
        if len(command.formats) > 1:
            sub.add_argument("--format", choices=command.formats)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    command = COMMANDS[args.command]
    try:
        args = _merge_config(args, parser, argv)
        for name in command.required:
            if getattr(args, name) is None:
                raise _CliError(EXIT_USAGE, f"--{name.replace('_', '-')}: missing required value")
        # looked up when called, so that a wrapper set on the module attribute
        # (as bench/tracer.py sets) is what runs
        return globals()[f"cmd_{args.command}"](args)
    except ValueError as exc:
        code, message = command.value_error, exc
    except _CliError as exc:
        code, message = exc.args
    except OSError as exc:
        code, message = EXIT_IO, exc
    print(f"error: {message}", file=sys.stderr)
    return code


def run() -> None:
    """The ``homlab`` command, installed or run as ``python -m homlab.cli``:
    ``main()`` on ``sys.argv``, then exit with its code."""
    try:
        code = main()
    finally:
        # what is left lives until exit: frozen, it is not walked by the
        # collections of interpreter shutdown (argparse's exits pass here too)
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
