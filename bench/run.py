"""Benchmark of the pretzelhfk command line, end to end and per layer.

    python3 bench/run.py --workload verify_mix --seed 1 --seconds 20 --trace 0

Runs whole passes of the seeded workload through ``pretzelhfk.cli.main``
in this process until their timed wall reaches ``--seconds``, checks every
knot's output against ``reference.json``, and prints the metrics.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs untraced passes for half the time, then one traced pass and one
counting pass, and reports the per-layer metrics.  The last line of
standard output is one JSON object; the lines before it and the result
file under ``.bench_out/`` hold the same numbers with context.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

import reference
import runner
import spans
import workloads

# Set-up is sampled before every pass, not in one burst, so that the
# median spans the same stretch of machine time as the passes.
SETUP_PROBES_PER_PASS = 3


def measure_setup(name: str, seed: int) -> list[float]:
    """Set-up seconds of fresh processes, each in its own interpreter."""
    probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), name, str(seed)]
    times = []
    for _ in range(SETUP_PROBES_PER_PASS):
        done = subprocess.run(probe, cwd=runner.ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def environment() -> dict[str, str | int | None]:
    """Machine and program identity for the result file; reads only inside the checkout."""
    head = runner.ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = runner.ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    digest = reference.content_hash(sorted(
        (p.name, p.read_text(encoding="utf-8"))
        for p in (runner.SRC / "pretzelhfk").glob("*.py")))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "src_digest": digest}


def end_to_end(passes: list[runner.PassResult], setup: list[float]) -> dict:
    times = [t for p in passes for t in p.seconds]
    return {
        "knots_per_s": (runner.knots_per_s(passes), "knots/s"),
        "cmd_p50_ms": (median(times) * 1e3, "ms"),
        "cmd_p90_ms": (quantiles(times, n=10, method="inclusive")[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (median(setup), "s"),
    }


def per_layer(workload, cli, out_path: Path, ref: dict, seconds: float,
              spans_path: Path) -> tuple[list[runner.PassResult], dict]:
    untraced = runner.run_until(workload, cli, out_path, ref, seconds / 2, 1)
    with spans.Tracer() as tracer:
        traced = runner.run_pass(workload, cli, out_path, ref)
    with spans.LaurentCounter() as counter:
        counted = runner.run_pass(workload, cli, out_path, ref)
    tracer.write(spans_path)
    plain_kps = runner.knots_per_s(untraced)
    metrics = tracer.metrics(traced.wall)
    metrics.update({name: (value, "count") for name, value in counter.counts.items()})
    metrics["cli.output_bytes"] = (traced.output_bytes, "bytes")
    metrics["trace.knots_per_s_untraced"] = (plain_kps, "knots/s")
    traced_kps = runner.knots_per_s([traced])
    metrics["trace.knots_per_s_traced"] = (traced_kps, "knots/s")
    metrics["trace.overhead_knots_per_s"] = (plain_kps - traced_kps, "knots/s")
    return [*untraced, traced, counted], metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup: list[float] = []
    try:
        cli = runner.load_cli()
        if not args.trace:
            setup += measure_setup(args.workload, args.seed)
    except (runner.MissingProgram, subprocess.SubprocessError) as exc:
        print(f"error: cannot set up the program: {exc}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed)
    ref = reference.load()
    runner.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_path = runner.OUT_DIR / f"output-{os.getpid()}.tmp"
    try:
        cli.main([*workload.warmup, "--out", str(out_path)])
        if args.trace:
            spans_path = runner.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            passes, metrics = per_layer(workload, cli, out_path, ref, args.seconds,
                                        spans_path)
        else:
            passes = runner.run_until(
                workload, cli, out_path, ref, args.seconds, 2,
                between_passes=lambda: setup.extend(measure_setup(args.workload, args.seed)))
            metrics = end_to_end(passes, setup)
    finally:
        out_path.unlink(missing_ok=True)

    attempted = sum(p.knots for p in passes)
    failed = sum(p.failed for p in passes)
    invocations = sum(len(p.seconds) for p in passes)
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
          f"{invocations} invocations, {attempted} knots")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34} {value:14d} {unit}" if isinstance(value, int)
              else f"  {name:34} {value:14.6g} {unit}")
    print(f"  {'failed_frac':34} {failed / attempted:14.6g} fraction "
          f"({failed} of {attempted} knots)")
    if not args.trace:
        print(f"  samples: cmd_p50_ms and cmd_p90_ms over {invocations} invocations, "
              f"setup_s median of {len(setup)} processes")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "passes": [{"wall_s": p.wall, "knots": p.knots, "failed": p.failed,
                          "invocation_s": p.seconds} for p in passes],
              "setup_s": setup, "failed_frac": failed / attempted, **result}
    with open(runner.OUT_DIR / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
