"""Seeded workload generator.

A workload is a list of CLI invocations (argv lists for
``pretzelhfk.cli.main``).  Every invocation carries what the benchmark
expects of it: the exit code its class implies and, per knot, the key of
its entry in ``reference.json``.  The program sees only the argv.

Keys identify the knot's mathematical content, not its spelling:
``Thm1:a,b,c`` / ``MirrorThm1:a,b,c`` / ``Thm2:..`` / ``MirrorThm2:..``
for the theorem families (band order and mirroring chosen by the seed do
not change the key's family and parameters), ``PriorWork:p1,p2,p3`` with
the bands sorted, and ``NotAKnot`` for every degenerate input.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

EXIT_OK = 0
EXIT_OUT_OF_SCOPE = 2

# One pass of each JSON workload runs every knot of these grids.
SMALL_ABC = list(itertools.product(range(1, 5), repeat=3))
# a, b, c in 9..12 with a + b + c = 33: 68 crossings for either family.
# A fixed parameter sum keeps the Fox minor dimension, and so a pass's
# cost, nearly the same for every seed.
LARGE_ABC = [t for t in itertools.product(range(9, 13), repeat=3) if sum(t) == 33]
SMALL_ODD = (3, 5, 7, 9)



@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    kind: str                # output format checked: "json" or "csv"
    keys: tuple[str, ...]    # reference key of each knot, in output order
    exit_code: int


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    warmup: tuple[str, ...]  # one untimed invocation before measuring


def theorem_triple(family: str, a: int, b: int, c: int,
                   mirrored: bool) -> tuple[int, int, int]:
    if family == "Thm1":
        triple = (-2 * a, 2 * b + 1, 2 * c + 1)
    else:
        triple = (2 * a, -(2 * b + 1), 2 * c + 1)
    return tuple(-p for p in triple) if mirrored else triple  # type: ignore[return-value]


def theorem_key(family: str, a: int, b: int, c: int, mirrored: bool) -> str:
    return f"{'Mirror' if mirrored else ''}{family}:{a},{b},{c}"


def prior_work_key(triple: tuple[int, int, int]) -> str:
    return "PriorWork:" + ",".join(map(str, sorted(triple)))


def _single(triple: tuple[int, int, int], key: str, exit_code: int) -> Invocation:
    argv = ("--pretzel", ",".join(map(str, triple)), "--verify", "--format", "json")
    return Invocation(argv=argv, kind="json", keys=(key,), exit_code=exit_code)


def _theorem(rng: random.Random, family: str, abc: tuple[int, int, int],
             mirrored: bool) -> Invocation:
    triple = list(theorem_triple(family, *abc, mirrored))
    rng.shuffle(triple)
    return _single(tuple(triple), theorem_key(family, *abc, mirrored), EXIT_OK)  # type: ignore[arg-type]


def _signed(rng: random.Random, values) -> tuple[int, int, int]:
    triple = [v * rng.choice((1, -1)) for v in values]
    rng.shuffle(triple)
    return tuple(triple)  # type: ignore[return-value]


def _prior_work(triple: tuple[int, int, int]) -> Invocation:
    return _single(triple, prior_work_key(triple), EXIT_OUT_OF_SCOPE)


def _small_prior_work(rng: random.Random) -> Invocation:
    if rng.random() < 0.5:   # all bands odd
        return _prior_work(_signed(rng, [rng.choice(SMALL_ODD) for _ in range(3)]))
    a, b, c = rng.choice(SMALL_ABC)  # one even band, all bands the same sign
    sign = rng.choice((1, -1))
    triple = [sign * 2 * a, sign * (2 * b + 1), sign * (2 * c + 1)]
    rng.shuffle(triple)
    return _prior_work(tuple(triple))  # type: ignore[arg-type]


def _not_a_knot(rng: random.Random) -> Invocation:
    if rng.random() < 0.5:   # a zero band
        triple = _signed(rng, [0, rng.choice(SMALL_ODD), rng.choice(SMALL_ODD)])
    else:                    # two even bands: a link
        triple = _signed(rng, [2 * rng.randint(1, 4), 2 * rng.randint(1, 4),
                               rng.choice(SMALL_ODD)])
    return _single(triple, "NotAKnot", EXIT_OUT_OF_SCOPE)


def _verify_mix(seed: int) -> list[Invocation]:
    """Every (a, b, c) in 1..4 of both families, half of each mirrored."""
    rng = random.Random(f"verify_mix:{seed}")
    items = []
    for family in ("Thm1", "Thm2"):
        mirrored = set(rng.sample(range(len(SMALL_ABC)), len(SMALL_ABC) // 2))
        items += [_theorem(rng, family, abc, i in mirrored)
                  for i, abc in enumerate(SMALL_ABC)]
    items += [_small_prior_work(rng) for _ in range(4)]
    items += [_not_a_knot(rng) for _ in range(2)]
    rng.shuffle(items)
    return items


def _large_knot(seed: int) -> list[Invocation]:
    """Two knots of each family with a + b + c = 33, plus one all-odd knot."""
    rng = random.Random(f"large_knot:{seed}")
    items = [_theorem(rng, family, rng.choice(LARGE_ABC), rng.random() < 0.5)
             for family in ("Thm1", "Thm1", "Thm2", "Thm2")]
    items.append(_prior_work(_signed(rng, [2 * v + 1 for v in rng.choice(LARGE_ABC)])))
    rng.shuffle(items)
    return items


def sweep(top: int) -> Invocation:
    """The Thm1 state-sum CSV sweep over a, b, c in 1..top."""
    span = f"1..{top}"
    argv = ("--sweep", f"a={span},b={span},c={span}", "--family", "thm1",
            "--oracle", "statesum", "--variant", "both", "--format", "csv")
    # K(-2a, 2b+1, 2c+1) is K(-2a, 2c+1, 2b+1), which is reported with b <= c
    keys = tuple(f"Thm1:{a},{min(b, c)},{max(b, c)}"
                 for a, b, c in itertools.product(range(1, top + 1), repeat=3))
    return Invocation(argv=argv, kind="csv", keys=keys, exit_code=EXIT_OK)


def _statesum_sweep(seed: int) -> list[Invocation]:
    """The fixed 10x10x10 grid; the seed has no effect."""
    del seed
    return [sweep(10)]


_BUILDERS = {"verify_mix": _verify_mix, "large_knot": _large_knot,
             "statesum_sweep": _statesum_sweep}
_WARMUP = {
    "verify_mix": ("--pretzel", "-2,3,3", "--verify", "--format", "json"),
    "large_knot": ("--pretzel", "-2,3,3", "--verify", "--format", "json"),
    "statesum_sweep": sweep(2).argv,
}
NAMES = tuple(_BUILDERS)


def build(name: str, seed: int) -> Workload:
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return Workload(name=name, invocations=tuple(_BUILDERS[name](seed)),
                    warmup=_WARMUP[name])


def reference_pool() -> dict[str, list[Invocation]]:
    """One invocation per reference key that any seed can draw, by output kind.

    Theorem keys run their unpermuted triple, PriorWork keys their sorted
    triple, and ``NotAKnot`` one representative.
    """
    json_items = []
    for abcs in (SMALL_ABC, LARGE_ABC):
        for family, abc, mirrored in itertools.product(("Thm1", "Thm2"), abcs,
                                                       (False, True)):
            json_items.append(_single(theorem_triple(family, *abc, mirrored),
                                      theorem_key(family, *abc, mirrored), EXIT_OK))
    prior: set[tuple[int, ...]] = set()
    for values in itertools.product(SMALL_ODD, repeat=3):
        for signs in itertools.product((1, -1), repeat=3):
            prior.add(tuple(sorted(v * s for v, s in zip(values, signs))))
    for a, b, c in SMALL_ABC:
        for sign in (1, -1):
            prior.add(tuple(sorted((sign * 2 * a, sign * (2 * b + 1), sign * (2 * c + 1)))))
    for abc in LARGE_ABC:
        for signs in itertools.product((1, -1), repeat=3):
            prior.add(tuple(sorted((2 * v + 1) * s for v, s in zip(abc, signs))))
    json_items += [_prior_work(t) for t in sorted(prior)]  # type: ignore[arg-type]
    json_items.append(_single((0, 3, 5), "NotAKnot", EXIT_OUT_OF_SCOPE))
    return {"json": json_items, "csv": _statesum_sweep(0)}
