"""Record reference.json from the program in this checkout.

Runs every knot that any workload seed can draw (``workloads.reference_pool``)
and stores one content hash per reference key.  The stored reference was
recorded from the commit that introduced the benchmark; re-record only
when a change is meant to alter the mathematical output.

    python3 bench/record_reference.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import reference
import runner
import workloads


def record() -> dict[str, dict[str, str]]:
    cli = runner.load_cli()
    pool = workloads.reference_pool()
    out: dict[str, dict[str, str]] = {"json": {}, "csv": {}}
    runner.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=runner.OUT_DIR) as tmp:
        out_path = Path(tmp) / "out"
        for inv in pool["json"]:
            code = cli.main([*inv.argv, "--out", str(out_path)])
            obj = json.loads(out_path.read_text(encoding="utf-8"))
            if code != inv.exit_code or reference.json_failed_checks(obj):
                raise SystemExit(f"reference run failed: {' '.join(inv.argv)} exited {code}")
            out["json"][inv.keys[0]] = reference.content_hash(reference.json_content(obj))
        (sweep,) = pool["csv"]
        code = cli.main([*sweep.argv, "--out", str(out_path)])
        knots = reference.csv_knots(out_path)
        if code != sweep.exit_code or [k for k, _ in knots] != list(sweep.keys):
            raise SystemExit(f"reference sweep failed: exited {code}")
        out["csv"] = {key: reference.content_hash(content) for key, content in knots}
    return out


def main() -> int:
    data = record()
    with open(reference.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {sum(len(v) for v in data.values())} knots "
          f"to {reference.REFERENCE_PATH.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
