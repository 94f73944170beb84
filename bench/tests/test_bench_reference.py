import json
from pathlib import Path

from conftest import small_sweep, small_workload

import runner


class CorruptingCli:
    """Runs the real ``cli.main``, then edits its output file."""

    def __init__(self, cli, edit):
        self._cli = cli
        self._edit = edit

    def main(self, argv):
        code = self._cli.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        out.write_text(self._edit(out.read_text(encoding="utf-8")), encoding="utf-8")
        return code


def bump_first_json_rank(text):
    obj = json.loads(text)
    if obj["groups"]:
        obj["groups"][0]["rank"] += 1
    return json.dumps(obj)


def bump_last_csv_rank(text):
    lines = text.splitlines()
    cells = lines[-1].split(",")
    cells[-1] = str(int(cells[-1]) + 1)
    return "\n".join(lines[:-1] + [",".join(cells)]) + "\n"


def failed_frac(result):
    return result.failed / result.knots


def test_seed_outputs_match_the_reference(cli, ref, tmp_path):
    for wl in (small_workload("verify_mix", 5, 12), small_sweep()):
        result = runner.run_pass(wl, cli, tmp_path / "out", ref)
        assert result.failed == 0


def test_one_changed_rank_fails_the_knot(cli, ref, tmp_path):
    wl = small_workload("verify_mix", 5, 12)
    theorem = sum(1 for inv in wl.invocations if inv.exit_code == 0)
    result = runner.run_pass(wl, CorruptingCli(cli, bump_first_json_rank),
                             tmp_path / "out", ref)
    assert result.failed == theorem > 0
    assert failed_frac(result) > 0


def test_one_changed_csv_rank_fails_one_knot(cli, ref, tmp_path):
    result = runner.run_pass(small_sweep(), CorruptingCli(cli, bump_last_csv_rank),
                             tmp_path / "out", ref)
    assert result.failed == 1
    assert failed_frac(result) > 0


def test_unreadable_output_fails_instead_of_crashing(cli, ref, tmp_path):
    wl = small_workload("verify_mix", 5, 4)
    result = runner.run_pass(wl, CorruptingCli(cli, lambda text: text[:10]),
                             tmp_path / "out", ref)
    assert result.failed == result.knots == 4


def test_wrong_exit_code_fails_every_knot(cli, ref, tmp_path):
    class ExitThree:
        def main(self, argv):
            cli.main(argv)
            return 3

    result = runner.run_pass(small_sweep(), ExitThree(), tmp_path / "out", ref)
    assert result.failed == result.knots == 8
