import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import reference  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="session")
def cli():
    return runner.load_cli()


@pytest.fixture(scope="session")
def ref():
    return reference.load()


def small_workload(name: str, seed: int, count: int) -> workloads.Workload:
    """The first ``count`` invocations of a seeded workload."""
    full = workloads.build(name, seed)
    return workloads.Workload(name, full.invocations[:count], full.warmup)


def small_sweep() -> workloads.Workload:
    """A 2x2x2 slice of the state-sum sweep, checked against the same reference."""
    inv = workloads.sweep(2)
    return workloads.Workload("statesum_sweep", (inv,), inv.argv)
