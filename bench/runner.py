"""Locating the program in this checkout and running workload passes.

A pass runs every invocation of a workload once, in-process, through
``pretzelhfk.cli.main`` with ``--out`` pointing at a scratch file.  Only
the ``cli.main`` call is timed; each output is checked against the
reference afterwards, outside the timed region.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


class MissingProgram(Exception):
    pass


def load_cli():
    """Import ``pretzelhfk.cli`` from this checkout's ``src``, nowhere else."""
    cli_file = SRC / "pretzelhfk" / "cli.py"
    if not cli_file.is_file():
        raise MissingProgram(f"{cli_file.relative_to(ROOT)} not found; "
                             "run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from pretzelhfk import cli
    if Path(cli.__file__).resolve() != cli_file.resolve():
        raise MissingProgram(f"pretzelhfk was imported from {cli.__file__}, "
                             f"not from {cli_file}")
    return cli


@dataclass
class PassResult:
    seconds: list[float] = field(default_factory=list)  # one per invocation
    knots: int = 0
    failed: int = 0
    output_bytes: int = 0

    @property
    def wall(self) -> float:
        return sum(self.seconds)


def knots_per_s(passes: list[PassResult]) -> float:
    """Knots of all passes divided by their timed wall time."""
    return sum(p.knots for p in passes) / sum(p.wall for p in passes)


def run_pass(workload, cli, out_path: Path, ref: dict) -> PassResult:
    """Run each invocation once.  ``cli.main`` is looked up per call, so a tracer's patch applies."""
    result = PassResult()
    for inv in workload.invocations:
        out_path.unlink(missing_ok=True)
        argv = [*inv.argv, "--out", str(out_path)]
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash fails the invocation's knots; the run goes on
            code = None
            traceback.print_exc()
        result.seconds.append(perf_counter() - start)
        result.knots += len(inv.keys)
        if code is None or not out_path.is_file():
            result.failed += len(inv.keys)
            continue
        result.output_bytes += out_path.stat().st_size
        try:
            result.failed += reference.failed_knots(inv, code, out_path, ref)
        except (ValueError, KeyError, IndexError, TypeError):  # malformed output
            result.failed += len(inv.keys)
    return result


def run_until(workload, cli, out_path: Path, ref: dict, seconds: float,
              min_passes: int, between_passes=None) -> list[PassResult]:
    """Whole passes until their timed wall reaches ``seconds``; ``between_passes`` runs untimed."""
    passes: list[PassResult] = []
    while len(passes) < min_passes or sum(p.wall for p in passes) < seconds:
        if passes and between_passes is not None:
            between_passes()
        passes.append(run_pass(workload, cli, out_path, ref))
    return passes
