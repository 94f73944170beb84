import pytest

import workloads


def argvs(name, seed):
    return [inv.argv for inv in workloads.build(name, seed).invocations]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_argv(name):
    assert argvs(name, 7) == argvs(name, 7)


@pytest.mark.parametrize("name", ["verify_mix", "large_knot"])
def test_other_seed_other_sample(name):
    assert argvs(name, 7) != argvs(name, 8)


def test_statesum_sweep_ignores_seed():
    assert argvs("statesum_sweep", 1) == argvs("statesum_sweep", 2)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_mix_covers_every_class(cli, seed):
    from pretzelhfk.pretzel import classify

    wl = workloads.build("verify_mix", seed)
    tags = []
    for inv in wl.invocations:
        triple = tuple(int(p) for p in inv.argv[1].split(","))
        tag = classify(*triple).tag.value
        assert inv.keys[0].split(":")[0] == tag, inv.argv
        tags.append(tag)
    assert set(tags) == {"Thm1", "Thm2", "MirrorThm1", "MirrorThm2",
                         "PriorWork", "NotAKnot"}
    assert len(tags) == 134


def test_large_knot_sizes():
    for seed in range(5):
        sizes = [sum(abs(int(p)) for p in inv.argv[1].split(","))
                 for inv in workloads.build("large_knot", seed).invocations]
        assert sorted(sizes) == [68, 68, 68, 68, 69]


def test_reference_covers_every_drawable_knot(ref):
    pool = workloads.reference_pool()
    assert {inv.keys[0] for inv in pool["json"]} == set(ref["json"])
    assert set(pool["csv"][0].keys) == set(ref["csv"])
    for name in workloads.NAMES:
        for seed in range(20):
            for inv in workloads.build(name, seed).invocations:
                assert set(inv.keys) <= set(ref[inv.kind]), inv.argv
