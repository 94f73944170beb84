import json
import sys
from collections import Counter

import pytest

from pretzelhfk import cli
from pretzelhfk.verify import CheckResult


def run_main(capsys, args):
    code = cli.main(args)
    return code, capsys.readouterr().out


def test_single_json_report(capsys):
    code, out = run_main(capsys, ["--pretzel", "-2,3,3", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["knot"] == [-2, 3, 3]
    assert obj["class"]["tag"] == "Thm1"
    assert obj["class"] == {"tag": "Thm1", "a": 1, "b": 1, "c": 1,
                            "mirrored": False, "reason": None}
    assert obj["alexander"] == [[-3, 1], [-2, -1], [0, 1], [2, -1], [3, 1]]
    assert obj["groups"] == [
        {"s": 3, "m": 0, "rank": 1},
        {"s": 2, "m": -1, "rank": 1},
        {"s": 0, "m": -2, "rank": 1},
        {"s": -2, "m": -5, "rank": 1},
        {"s": -3, "m": -6, "rank": 1},
    ]
    assert obj["genus"] == 3
    assert obj["fibered"] is True
    assert all(c["passed"] for c in obj["checks"])


def test_negative_first_argument_parses(capsys):
    code, _ = run_main(capsys, ["--pretzel", "-2,3,3"])
    assert code == 0


def test_thm2_report(capsys):
    code, out = run_main(capsys, ["--pretzel", "2,-3,3", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["class"]["tag"] == "Thm2"
    assert obj["alexander"] == [[-2, 1], [-1, -2], [0, 3], [1, -2], [2, 1]]
    assert obj["genus"] == 2


def test_mirror_report(capsys):
    code, out = run_main(capsys, ["--pretzel", "2,-3,-3", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["class"]["tag"] == "MirrorThm1"
    assert obj["class"]["mirrored"] is True
    assert {(g["m"], g["s"]) for g in obj["groups"]} == \
        {(0, -3), (1, -2), (2, 0), (5, 2), (6, 3)}


def test_out_of_scope_exit_codes(capsys):
    code, out = run_main(capsys, ["--pretzel", "3,5,7", "--format", "json"])
    assert code == 2
    obj = json.loads(out)
    assert obj["class"]["tag"] == "PriorWork"
    assert obj["groups"] == []
    assert obj["genus"] is None
    # a rank-one genus-one polynomial still gets reported for odd triples
    assert obj["alexander"] == [[-1, 18], [0, -35], [1, 18]]

    code, out = run_main(capsys, ["--pretzel", "2,4,6", "--format", "json"])
    assert code == 2
    assert json.loads(out)["class"]["tag"] == "NotAKnot"


def test_usage_errors(capsys, tmp_path):
    assert cli.main(["--pretzel", "1,2"]) == 1
    assert cli.main([]) == 1
    assert cli.main(["--pretzel", "1,1,1", "--sweep", "a=1..1,b=1..1,c=1..1"]) == 1
    assert cli.main(["--sweep", "a=2..1,b=1..1,c=1..1"]) == 1
    assert cli.main(["--sweep", "a=0..1,b=1..1,c=1..1"]) == 1
    assert cli.main(["--sweep", "a=1..1,b=1..1"]) == 1
    assert cli.main(["--nonsense"]) == 1
    # only optionally signed ASCII decimals; int() alone accepts all of these
    for bad in ["1_0,3,3", "-2,3,\u0663", "-2,3,\uff13"]:
        assert cli.main(["--pretzel", bad]) == 1, bad
    assert cli.main(["--sweep", "a=1..\u0663,b=1..1,c=1..1"]) == 1
    capsys.readouterr()
    # the crossing budget is enforced before any computation
    assert cli.MAX_CROSSINGS == 1000
    for args in (["--pretzel", "99999999999999999999999,3,3"],
                 ["--sweep", "a=1..99999999999999999999,b=1..1,c=1..1", "--format", "csv"],
                 ["--pretzel", "-2,3,996"],
                 ["--sweep", "a=1..1,b=1..1,c=1..498"],
                 # more digits than int() converts by default
                 ["--pretzel", "1" + "0" * 5000 + ",3,3"],
                 ["--sweep", "a=1..1" + "0" * 5000 + ",b=1..1,c=1..1"]):
        assert cli.main(args) == 1, args
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "the limit is 1000" in captured.err
    assert cli._parse_triple("-2,3,995") == (-2, 3, 995)
    assert cli._parse_sweep("a=1..1,b=1..1,c=1..497")["c"] == (1, 497)
    target = tmp_path / "missing" / "x.json"
    assert cli.main(["--pretzel", "-2,3,3", "--out", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {target}: No such file or directory\n"


STAGES = [(cli.kauffman, "chain_summary"), (cli.hfk, "reduce_two_lines"),
          (cli.hfk, "all_pairings"), (cli.alexander, "fox_alexander"),
          (cli, "wirtinger")]
# every package module that holds the name, so calls are counted wherever they start
STAGES += [(module, "enumerate_states") for name, module in sorted(sys.modules.items())
           if name.split(".")[0] == "pretzelhfk" and hasattr(module, "enumerate_states")]


def stage_calls(monkeypatch, capsys, args):
    """Calls per stage, counted at the module attributes the CLI goes through."""
    counts = Counter()
    for owner, attr in STAGES:
        def counted(*a, _fn=getattr(owner, attr), _name=attr, **kw):
            counts[_name] += 1
            return _fn(*a, **kw)
        monkeypatch.setattr(owner, attr, counted)
    assert cli.main(args) == 0
    capsys.readouterr()
    return {attr: counts[attr] for _, attr in STAGES}


def test_each_stage_runs_once_per_variant(monkeypatch, capsys):
    assert stage_calls(monkeypatch, capsys, ["--pretzel", "-4,5,7", "--verify"]) == {
        "chain_summary": 2, "reduce_two_lines": 2, "all_pairings": 2,
        "fox_alexander": 2, "wirtinger": 1, "enumerate_states": 2}
    assert stage_calls(monkeypatch, capsys, ["--pretzel", "-4,5,7", "--oracle",
                                             "statesum", "--variant", "both"]) == {
        "chain_summary": 2, "reduce_two_lines": 2, "all_pairings": 0,
        "fox_alexander": 0, "wirtinger": 0, "enumerate_states": 2}
    assert stage_calls(monkeypatch, capsys, ["--pretzel", "-4,5,7"]) == {
        "chain_summary": 1, "reduce_two_lines": 1, "all_pairings": 0,
        "fox_alexander": 1, "wirtinger": 1, "enumerate_states": 1}


def test_verify_single(capsys):
    code, out = run_main(capsys, ["--pretzel", "-2,3,5", "--verify", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    names = {c["name"] for c in obj["checks"]}
    assert {"oracle-agreement", "variant-independence", "symmetry",
            "top-group", "two-line-support"} <= names
    assert all(c["passed"] or c["informational"] for c in obj["checks"])


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli.verify, "check_symmetry",
                        lambda table: CheckResult("symmetry", False, "forced"))
    code, _ = run_main(capsys, ["--pretzel", "-2,3,3", "--verify"])
    assert code == 3


def test_sweep_genus_progression(capsys):
    code, out = run_main(capsys, ["--sweep", "a=1..1,b=1..1,c=1..3",
                                  "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert [r["genus"] for r in obj["reports"]] == [3, 4, 5]
    assert obj["summary"] == {"total": 3, "computed": 3,
                              "out_of_scope": 0, "failed": 0}


def test_sweep_families(capsys):
    code, out = run_main(capsys, ["--sweep", "a=1..1,b=1..1,c=1..2",
                                  "--family", "all", "--format", "json"])
    assert code == 0
    tags = [r["class"]["tag"] for r in json.loads(out)["reports"]]
    assert tags == ["Thm1", "Thm2", "Thm1", "Thm2"]


def test_csv_output(capsys):
    code, out = run_main(capsys, ["--pretzel", "-2,3,3", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("p1,p2,p3,tag,")
    assert len(lines) == 6  # header + five rank rows
    assert lines[1].split(",")[:4] == ["-2", "3", "3", "Thm1"]
    assert "\r" not in out


def test_statesum_oracle_degrades_for_thm2(capsys):
    code, out = run_main(capsys, ["--pretzel", "2,-3,3", "--oracle", "statesum",
                                  "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert any(c["name"] == "oracle-selection" and c["informational"]
               for c in obj["checks"])


def test_variant_switch(capsys):
    for variant in ("a", "b", "both"):
        code, out = run_main(capsys, ["--pretzel", "-2,3,3", "--variant", variant,
                                      "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["genus"] == 3
        if variant == "both":
            assert any(c["name"] == "variant-independence" for c in obj["checks"])


def test_out_file_and_determinism(tmp_path, capsys):
    paths = [tmp_path / "one.json", tmp_path / "two.json"]
    for path in paths:
        code = cli.main(["--sweep", "a=1..2,b=1..2,c=1..2", "--verify",
                         "--format", "json", "--out", str(path)])
        assert code == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_pretty_output_grid(capsys):
    code, out = run_main(capsys, ["--pretzel", "-2,3,3"])
    assert code == 0
    assert "genus 3, fibered yes, total rank 5" in out
    assert "s\\m" in out
