"""Command-line front end.

Classifies pretzel parameter triples, computes homology rank tables and
Alexander polynomials, optionally runs the full cross-check suite, and
emits JSON, CSV, or a human-readable grid.  Output is byte-identical
across repeated runs with equal inputs.

``run_single`` is the per-knot pipeline.  Its stages run in a fixed
order: classify; the polynomial routes (Wirtinger presentation and Fox
calculus, then the Kauffman state summaries and their state sum); the
table routes (two-line reduction or closed form, mirror, pair lists);
the checks; the readouts.  Each stage runs at most once per knot, and
the checks take its values instead of recomputing them.

Exit codes: 0 computed (and verified), 1 usage error, 2 out-of-scope
input, 3 a mandatory verification check failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from dataclasses import dataclass, field

from . import alexander, hfk, kauffman, verify
from .hfk import BigradedTable
from .laurent import LaurentPoly
from .pretzel import FamilyTag, PretzelClass, canonical_triple, classify, wirtinger
from .verify import CheckResult

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_OUT_OF_SCOPE = 2
EXIT_CHECK_FAILED = 3

# Largest crossing count (sum of |p_i|) a knot may have.  It is checked
# before any work: the Wirtinger build and the Fox minor grow with it.
MAX_CROSSINGS = 1000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit code 1, not argparse's 2
        raise UsageError(message)


@dataclass
class RunReport:
    knot: tuple[int, int, int]
    cls: PretzelClass
    alexander: LaurentPoly | None
    table: BigradedTable | None
    genus: int | None
    fibered: bool | None
    checks: list[CheckResult] = field(default_factory=list)
    status: str = "computed"  # or "out-of-scope"

    @property
    def failed(self) -> bool:
        return any(not c.passed and not c.informational for c in self.checks)


# ---------------------------------------------------------------------------
# computation drivers


def _out_of_scope(knot: tuple[int, int, int], cls: PretzelClass,
                  alex: LaurentPoly | None) -> RunReport:
    return RunReport(knot=knot, cls=cls, alexander=alex, table=None, genus=None,
                     fibered=None,
                     checks=[CheckResult("scope", True, cls.reason or "",
                                         informational=True)],
                     status="out-of-scope")


def run_single(triple: tuple[int, int, int], variant: str = "b",
               oracle: str = "both", do_verify: bool = False) -> RunReport:
    """Classify one triple and compute whatever its family supports.

    Every stage runs at most once and the checks reuse its values.
    """
    cls = classify(*triple)
    knot = canonical_triple(cls, triple)
    if cls.tag is FamilyTag.NOT_A_KNOT:
        return _out_of_scope(knot, cls, None)
    if cls.tag is FamilyTag.PRIOR_WORK:
        return _out_of_scope(knot, cls, alexander.fox_alexander(wirtinger(triple)))
    base = cls.canonical()
    a, b, c = base.abc()
    thm1 = base.tag is FamilyTag.THM1

    # polynomial routes: Fox calculus, then the state sum (Thm1 only)
    pres = alex_fox = alex_sum = None
    if not thm1 or oracle in ("fox", "both") or do_verify:
        pres = wirtinger(canonical_triple(base, triple))
        alex_fox = alexander.fox_alexander(pres)
    # the primary variant first; the other one only when the two are compared
    primary = "a" if variant == "a" else "b"
    summaries: dict[str, kauffman.ChainSummary] = {}
    if thm1:
        variants = [primary]
        if variant == "both" or do_verify:
            variants.append("b" if primary == "a" else "a")
        summaries = {v: kauffman.chain_summary(base, v) for v in variants}
        if oracle in ("statesum", "both") or do_verify:
            alex_sum = alexander.euler_characteristic(summaries[primary])
    alex = alex_sum if alex_sum is not None else alex_fox
    assert alex is not None

    # table routes: state-count reduction (Thm1) or closed form (Thm2)
    tables = {v: hfk.reduce_two_lines(smry) for v, smry in summaries.items()}
    table0 = tables[primary] if thm1 else hfk.theorem2_closed_form(a, b, c, alex)
    pairs = ({v: hfk.all_pairings(base, v) for v in summaries}
             if thm1 and do_verify else {})
    table = hfk.mirror_transform(table0) if cls.mirrored else table0

    checks: list[CheckResult] = []
    if alex_fox is not None and alex_sum is not None:
        checks.append(verify.check_oracle_agreement(alex_fox, alex_sum))
    if not thm1 and oracle == "statesum":
        checks.append(CheckResult(
            "oracle-selection", True,
            "state-sum route has no state tables for this family; used fox",
            informational=True))
    if thm1:
        checks.append(verify.check_closed_form_equivalence(base, table0, alex))
    checks.append(verify.check_euler_consistency(table0, alex))
    if len(summaries) == 2:
        checks.append(verify.check_variant_independence(
            summaries["a"], summaries["b"], tables["a"], tables["b"]))
    if do_verify:
        assert pres is not None and alex_fox is not None
        checks.append(verify.check_wirtinger_structure(pres))
        checks.append(verify.check_fox_column_independence(pres, alex_fox))
        for v in pairs:
            checks.append(verify.check_pairing_gradings(pairs[v], v))
            checks.append(verify.check_matrix_agreement(summaries[v], tables[v],
                                                        pairs[v]))
        if thm1:
            checks.append(verify.check_top_group(table0, base))
        checks.append(verify.check_symmetry(table0))
        checks.append(verify.check_parity(table0, alex))
        if thm1:
            checks.append(verify.check_literal_parts(base, table0))
    checks.append(verify.check_two_line_support(table, cls))

    res = hfk.readouts(table, alex)
    return RunReport(knot=knot, cls=cls, alexander=alex, table=table,
                     genus=res.genus, fibered=res.fibered, checks=checks)


def run_sweep(ranges: dict[str, tuple[int, int]], family: str, variant: str,
              oracle: str, do_verify: bool) -> list[RunReport]:
    """Reports for every (a, b, c) in the ranges, lexicographic order."""
    tags = {"thm1": (FamilyTag.THM1,), "thm2": (FamilyTag.THM2,),
            "all": (FamilyTag.THM1, FamilyTag.THM2)}[family]
    reports = []
    for a in range(ranges["a"][0], ranges["a"][1] + 1):
        for b in range(ranges["b"][0], ranges["b"][1] + 1):
            for c in range(ranges["c"][0], ranges["c"][1] + 1):
                for tag in tags:
                    if tag is FamilyTag.THM1:
                        triple = (-2 * a, 2 * b + 1, 2 * c + 1)
                    else:
                        triple = (2 * a, -(2 * b + 1), 2 * c + 1)
                    reports.append(run_single(triple, variant, oracle, do_verify))
    return reports


# ---------------------------------------------------------------------------
# argument handling


def _decimal(text: str) -> int:
    """An ASCII decimal as int, or a usage error if it is too long to convert."""
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise UsageError(f"a number with {len(text)} digits has too many crossings; "
                         f"the limit is {MAX_CROSSINGS}") from None


def _parse_triple(text: str) -> tuple[int, int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise UsageError(f"--pretzel expects three comma-separated integers, got {text!r}")
    # ASCII decimals only: int() alone would also take "1_0" and non-ASCII digits
    if not all(re.fullmatch(r"[+-]?[0-9]+", p) for p in parts):
        raise UsageError(f"--pretzel expects integers, got {text!r}")
    p1, p2, p3 = map(_decimal, parts)
    crossings = abs(p1) + abs(p2) + abs(p3)
    if crossings > MAX_CROSSINGS:
        raise UsageError(f"knot {text!r} has {crossings} crossings; "
                         f"the limit is {MAX_CROSSINGS}")
    return (p1, p2, p3)


def _parse_sweep(text: str) -> dict[str, tuple[int, int]]:
    ranges: dict[str, tuple[int, int]] = {}
    for piece in text.split(","):
        m = re.fullmatch(r"([abc])=([0-9]+)\.\.([0-9]+)", piece.strip())
        if not m:
            raise UsageError(f"bad sweep component {piece!r}; expected e.g. a=1..3")
        key, lo, hi = m.group(1), _decimal(m.group(2)), _decimal(m.group(3))
        if key in ranges:
            raise UsageError(f"duplicate sweep range for {key!r}")
        if lo < 1:
            raise UsageError(f"sweep bounds must be >= 1, got {key}={lo}..{hi}")
        if lo > hi:
            raise UsageError(f"empty sweep range {key}={lo}..{hi}")
        ranges[key] = (lo, hi)
    missing = [k for k in ("a", "b", "c") if k not in ranges]
    if missing:
        raise UsageError(f"sweep is missing ranges for: {', '.join(missing)}")
    # both families put 2a + 2b + 2c + 2 crossings on the knot (a, b, c)
    crossings = 2 * sum(hi for _, hi in ranges.values()) + 2
    if crossings > MAX_CROSSINGS:
        raise UsageError(f"sweep reaches knots with {crossings} crossings; "
                         f"the limit is {MAX_CROSSINGS}")
    return ranges


def _preprocess_argv(argv: list[str]) -> list[str]:
    # lets "--pretzel -2,3,3" survive argparse's option detection
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--pretzel" and i + 1 < len(argv) and re.match(r"^-\d", argv[i + 1]):
            out.append(f"--pretzel={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pretzelhfk",
        description="Knot Floer homology ranks of three-strand pretzel knots, "
                    "with exact Alexander-polynomial cross-checks.")
    parser.add_argument("--pretzel", metavar="P1,P2,P3",
                        help="signed twist counts of one knot, e.g. -2,3,3")
    parser.add_argument("--sweep", metavar="a=L..U,b=L..U,c=L..U",
                        help="compute a whole parameter grid")
    parser.add_argument("--family", choices=["thm1", "thm2", "all"], default="thm1",
                        help="which family a sweep generates (default thm1)")
    parser.add_argument("--variant", choices=["a", "b", "both"], default="b",
                        help="marked-point variant for state counts (default b)")
    parser.add_argument("--oracle", choices=["fox", "statesum", "both"], default="both",
                        help="Alexander polynomial route(s) (default both)")
    parser.add_argument("--format", dest="fmt", choices=["json", "csv", "pretty"],
                        default="pretty", help="output format (default pretty)")
    parser.add_argument("--verify", action="store_true",
                        help="run the full cross-check suite")
    parser.add_argument("--out", metavar="PATH", help="write output to a file")
    return parser


# ---------------------------------------------------------------------------
# rendering


def report_to_obj(report: RunReport) -> dict:
    cls = report.cls
    return {
        "knot": list(report.knot),
        "class": {"tag": cls.tag.value, "a": cls.a, "b": cls.b, "c": cls.c,
                  "mirrored": cls.mirrored, "reason": cls.reason},
        "alexander": ([[e, co] for e, co in report.alexander.terms()]
                      if report.alexander is not None else None),
        "groups": ([{"s": s, "m": m, "rank": r} for m, s, r in report.table.entries()]
                   if report.table is not None else []),
        "genus": report.genus,
        "fibered": report.fibered,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail,
                    "informational": c.informational} for c in report.checks],
    }


def render_json(reports: list[RunReport], sweep: bool) -> str:
    if not sweep:
        return json.dumps(report_to_obj(reports[0]), indent=2) + "\n"
    payload = {
        "reports": [report_to_obj(r) for r in reports],
        "summary": {
            "total": len(reports),
            "computed": sum(1 for r in reports if r.status == "computed"),
            "out_of_scope": sum(1 for r in reports if r.status != "computed"),
            "failed": sum(1 for r in reports if r.failed),
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def render_csv(reports: list[RunReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["p1", "p2", "p3", "tag", "a", "b", "c", "mirrored",
                     "genus", "fibered", "total_rank", "alexander",
                     "s", "m", "rank"])
    for report in reports:
        cls = report.cls
        head = [*report.knot, cls.tag.value, cls.a, cls.b, cls.c, cls.mirrored,
                report.genus, report.fibered,
                report.table.total_rank() if report.table else None,
                str(report.alexander) if report.alexander else ""]
        if report.table is None or report.table.is_empty():
            writer.writerow(head + ["", "", ""])
        else:
            for m, s, r in report.table.entries():
                writer.writerow(head + [s, m, r])
    return buf.getvalue()


def _render_grid(table: BigradedTable) -> list[str]:
    entries = table.entries()
    ms = sorted({m for m, _, _ in entries})
    ss = sorted({s for _, s, _ in entries}, reverse=True)
    width = max(3, *(len(str(m)) for m in ms)) + 1
    head = "  s\\m" + "".join(str(m).rjust(width) for m in ms)
    lines = [head]
    for s in ss:
        row = str(s).rjust(5)
        for m in ms:
            r = table.rank(m, s)
            row += (str(r) if r else ".").rjust(width)
        lines.append(row)
    return lines


def render_pretty(reports: list[RunReport], sweep: bool) -> str:
    blocks = []
    for report in reports:
        cls = report.cls
        lines = []
        head = f"knot {report.knot}  class {cls.tag.value}"
        if cls.is_theorem_family:
            head += f"  (a, b, c) = {cls.abc()}"
        lines.append(head)
        if report.status != "computed":
            lines.append(f"  out of scope: {cls.reason}")
        if report.alexander is not None:
            lines.append(f"  alexander: {report.alexander}")
        if report.table is not None and not report.table.is_empty():
            lines.append(f"  genus {report.genus}, "
                         f"fibered {'yes' if report.fibered else 'no'}, "
                         f"total rank {report.table.total_rank()}")
            lines.extend("  " + ln for ln in _render_grid(report.table))
        if report.checks:
            lines.append("  checks:")
            for c in report.checks:
                mark = "info" if c.informational else ("ok" if c.passed else "FAIL")
                lines.append(f"    [{mark:>4}] {c.name}: {c.detail}")
        blocks.append("\n".join(lines))
    text = "\n\n".join(blocks) + "\n"
    if sweep:
        computed = sum(1 for r in reports if r.status == "computed")
        failed = sum(1 for r in reports if r.failed)
        text += (f"\nsweep summary: {len(reports)} knots, {computed} computed, "
                 f"{failed} with failed checks\n")
    return text


# ---------------------------------------------------------------------------
# entry points


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_preprocess_argv(argv))
        if bool(args.pretzel) == bool(args.sweep):
            raise UsageError("exactly one of --pretzel and --sweep is required")
        if args.pretzel:
            reports = [run_single(_parse_triple(args.pretzel), args.variant,
                                  args.oracle, args.verify)]
            sweep = False
        else:
            reports = run_sweep(_parse_sweep(args.sweep), args.family,
                                args.variant, args.oracle, args.verify)
            sweep = True
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.fmt == "json":
        text = render_json(reports, sweep)
    elif args.fmt == "csv":
        text = render_csv(reports)
    else:
        text = render_pretty(reports, sweep)

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)

    if any(r.failed for r in reports):
        return EXIT_CHECK_FAILED
    if not sweep and reports[0].status != "computed":
        return EXIT_OUT_OF_SCOPE
    return EXIT_OK


def console_main() -> None:
    sys.exit(main())
