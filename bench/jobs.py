"""The benchmark's workloads: seeded lists of ``homlab`` CLI jobs.

The seed shuffles the job order and draws the continuous parameters
(coherent and cat phases, mixing angles theta in [1.0, 1.2], detector
efficiencies eta in [0.7, 0.95]).  None of them changes a state's cutoff or
a grid's size, so every seed does the same amount of work.  Counts of zeros
and families are those homlab 1.0.0 returns; they do not depend on the seed.

Jobs that hit a known defect of the program are kept as ``probes``: each run
executes and checks them once, untimed, and reports their status, but they
are not operations of the workload, so ``failed`` counts only new failures.

Run as a script, it checks one job's output file (see ``main``).
"""

from __future__ import annotations

import cmath
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles as o

HALF = ("1/2", o.Splitter(t=Fraction(1, 2)))
THREE_QUARTERS = ("3/4", o.Splitter(t=Fraction(3, 4)))


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``check`` gets the text of its ``-o`` file."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[str], None]


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]
    probes: tuple[Job, ...]
    #: layers expected to hold most of the in-process time
    targets: tuple[str, ...]


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def _polar(modulus: float, rng: random.Random) -> tuple[str, complex]:
    """A complex amplitude of fixed modulus and seeded phase, as the CLI text
    and the value that text denotes."""
    z = cmath.rect(modulus, rng.uniform(0.0, 2.0 * math.pi))
    text = f"{z.real:.17g}{z.imag:+.17g}j"
    return text, complex(text)


def _angle(rng: random.Random) -> tuple[str, o.Splitter]:
    theta = rng.uniform(1.0, 1.2)
    return f"theta={theta!r}", o.Splitter(theta=theta)


def _eta(rng: random.Random) -> float:
    return rng.uniform(0.7, 0.95)


def _coherent(modulus: float, rng: random.Random) -> tuple[str, o.Mode]:
    text, value = _polar(modulus, rng)
    return f"coherent:beta={text}", o.Mode("coherent", value)


def _oddcat(modulus: float, rng: random.Random) -> tuple[str, o.Mode]:
    text, value = _polar(modulus, rng)
    return f"oddcat:alpha={text}", o.Mode("oddcat", value)


def _fock(n: int) -> tuple[str, o.Mode]:
    return f"fock:{n}", o.Mode("fock", n)


def _thermal(nbar: float) -> tuple[str, o.Mode]:
    return f"thermal:nbar={nbar!r}", o.Mode("thermal", nbar)


def _pasmss(r: float) -> tuple[str, o.Mode]:
    return f"pasmss:r={r!r}", o.Mode("pasmss", r)


# ---------------------------------------------------------------------------
# job builders
# ---------------------------------------------------------------------------


def _grid_job(name, command, a, b, bs, extra=(), eta=(1.0, 1.0), fmt="json") -> Job:
    (a_text, a_mode), (b_text, b_mode), (bs_text, splitter) = a, b, bs

    def check(text: str) -> None:
        grid = o.grid_from_csv(text) if fmt == "csv" else json.loads(text)["grid"]
        o.check_grid(grid, a_mode, b_mode, splitter, eta)

    argv = (command, "--a", a_text, "--b", b_text, "--bs", bs_text, *extra)
    if command == "lossy":
        argv += ("--eta-a", repr(eta[0]), "--eta-b", repr(eta[1]))
    if fmt != "json":
        argv += ("--format", fmt)
    return Job(name, argv, check)


def _dist(name, a, b, bs=HALF) -> Job:
    return _grid_job(name, "dist", a, b, bs)


def _lossy(name, a, b, bs, grid_max, rng, fmt="json") -> Job:
    return _grid_job(name, "lossy", a, b, bs, ("--grid-max", str(grid_max)),
                     eta=(_eta(rng), _eta(rng)), fmt=fmt)


def _herald(t: int, r: float, rng) -> Job:
    eta = _eta(rng)
    return Job("herald", ("herald", "--t", str(t), "--eta", repr(eta), "--r", repr(r)),
               lambda text: o.check_herald(json.loads(text), t, eta, r))


def _dicke(j_max: int) -> Job:
    return Job(f"dicke-j{j_max}", ("dicke", "--j-max", str(j_max)),
               lambda text: o.check_dicke(json.loads(text), j_max))


def _zeros(n: int, t: str, m_max: int, count: int) -> Job:
    return Job(f"zeros-n{n}-T{t}", ("zeros", "--n", str(n), "--T", t, "--max", str(m_max)),
               lambda text: o.check_zeros(json.loads(text), n, Fraction(t), m_max, count))


def _parametric(n: int, t: str, bound: int, count: int, degree: int = 2) -> Job:
    argv = ("parametric", "--n", str(n), "--T", t, "--degree", str(degree),
            "--coeff-min", str(-bound), "--coeff-max", str(bound))
    return Job(f"parametric-n{n}-T{t}-pm{bound}", argv,
               lambda text: o.check_parametric(json.loads(text), n, Fraction(t), count))


def _verify(count: int) -> Job:
    return Job("verify", ("verify", "--tables", "all"),
               lambda text: o.check_verify(json.loads(text), count))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def grids(rng: random.Random) -> Workload:
    """Every joint_dist path, both bs_core branches (exact Fraction g_poly
    at T = 1/2 and 3/4, float at theta); time goes to joint_dist + bs_core."""
    pair = (_coherent(3.0, rng), _coherent(3.0, rng))
    jobs = (
        _dist("fs_pure", _fock(1), _coherent(3.0, rng)),
        _dist("fs_mixed", _fock(3), _thermal(4.0)),
        _dist("pure_pure-T1/2", *pair),
        _dist("pure_pure-theta", *pair, bs=_angle(rng)),
        _dist("pure_mixed", _oddcat(2.0, rng), _thermal(1.0)),
        _dist("general", _thermal(1.0), _thermal(1.0)),
        _dist("pure_pure-T3/4", _pasmss(0.5), _coherent(2.0, rng), bs=THREE_QUARTERS),
        _dist("fs_fs", _fock(10), _fock(10)),
    )
    probes = (
        # alternating g_poly sum cancels catastrophically: total mass 156
        _dist("fs_fs-60", _fock(60), _fock(60)),
        # Fraction -> float conversion overflows: OverflowError, exit 1
        _dist("fs_fs-200", _fock(200), _fock(200)),
    )
    return Workload("grids", jobs, probes, ("joint_dist", "bs_core"))


def lossy_io(rng: random.Random) -> Workload:
    """Large grids from cheap states: Bernoulli loss matrices and JSON/CSV
    writing dominate, engine work is small."""
    jobs = (
        _lossy("lossy-fock-coherent-500", _fock(1), _coherent(3.0, rng), HALF, 500, rng),
        _lossy("lossy-fock-thermal-400-csv", _fock(1), _thermal(1.0), HALF, 400, rng,
               fmt="csv"),
        _lossy("lossy-coherent-theta-300", _coherent(2.0, rng), _coherent(1.0, rng),
               _angle(rng), 300, rng),
        _herald(2, 1.5, rng),
        _dicke(98),
    )
    # the J = 100 normalisation passes through a subnormal float and loses
    # about 8 digits of P_central
    probes = (_dicke(100),)
    return Workload("lossy-io", jobs, probes, ("detector", "cli"))


def exact_search(rng: random.Random) -> Workload:
    """Exact integer zero scans and parametric-family search/verification;
    never touches joint_dist."""
    jobs = (
        _zeros(5, "3/4", 1000, 13),
        _zeros(8, "2/3", 1000, 34),
        _parametric(2, "3/4", 40, 4),
        _parametric(3, "1/2", 6, 1007),
        _parametric(3, "3/4", 10, 0),
        _verify(17),
    )
    return Workload("exact-search", jobs, (), ("nodal",))


def smoke(rng: random.Random) -> Workload:
    """Tiny sizes of every job kind, for the benchmark's self-test."""
    jobs = (
        _dist("fs_pure", _fock(1), _coherent(1.0, rng)),
        _dist("pure_pure-theta", _coherent(1.0, rng), _coherent(0.5, rng), bs=_angle(rng)),
        _dist("general", _thermal(0.2), _thermal(0.2)),
        _lossy("lossy", _coherent(1.0, rng), _coherent(0.5, rng), HALF, 30, rng),
        _herald(2, 1.5, rng),
        _dicke(6),
        _zeros(2, "1/2", 30, 13),
        _parametric(2, "1/2", 3, 2),
        _verify(17),
    )
    return Workload("smoke", jobs, (_dist("fs_fs-60", _fock(60), _fock(60)),), ())


BUILDERS = {"grids": grids, "lossy-io": lossy_io, "exact-search": exact_search,
            "smoke": smoke}


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` for ``seed``, jobs in seeded order."""
    rng = random.Random(f"{name}:{seed}")
    workload = BUILDERS[name](rng)
    jobs = list(workload.jobs)
    rng.shuffle(jobs)
    return Workload(workload.name, tuple(jobs), workload.probes, workload.targets)


def main(argv: list[str]) -> int:
    """python3 jobs.py WORKLOAD SEED JOB OUTPUT: check one job's output file;
    on failure print the reason and exit 1."""
    name, seed, job_name, path = argv
    workload = build(name, int(seed))
    job = next(j for j in workload.jobs + workload.probes if j.name == job_name)
    try:
        with open(path) as fh:
            job.check(fh.read())
    except (o.CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
        print(f"{type(exc).__name__}: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
