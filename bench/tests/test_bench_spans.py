from conftest import small_sweep, small_workload

import runner
import spans


def outputs(wl, cli, out_dir):
    """Bytes of each invocation's output file."""
    out_dir.mkdir()
    texts = []
    for i, inv in enumerate(wl.invocations):
        out = out_dir / f"out{i}"
        cli.main([*inv.argv, "--out", str(out)])
        texts.append(out.read_bytes())
    return texts


def test_tracing_restores_attributes_and_keeps_output(cli, tmp_path):
    before = {(id(owner), attr): getattr(owner, attr) for owner, attr in spans.targets()}
    from pretzelhfk.laurent import LaurentPoly as poly
    poly_before = {attr: getattr(poly, attr) for attr in spans.LaurentCounter._COUNTED}
    for i, wl in enumerate((small_workload("verify_mix", 3, 10), small_sweep())):
        plain = outputs(wl, cli, tmp_path / f"plain{i}")
        with spans.Tracer() as tracer:
            traced = outputs(wl, cli, tmp_path / f"traced{i}")
        with spans.LaurentCounter():
            counted = outputs(wl, cli, tmp_path / f"counted{i}")
        assert plain == traced == counted
        assert tracer.spans
    after = {(id(owner), attr): getattr(owner, attr) for owner, attr in spans.targets()}
    assert after == before
    assert all(getattr(poly, attr) is fn for attr, fn in poly_before.items())


def traced_pass(wl, cli, ref, out):
    with spans.Tracer() as tracer:
        result = runner.run_pass(wl, cli, out, ref)
    with spans.LaurentCounter() as counter:
        runner.run_pass(wl, cli, out, ref)
    metrics = tracer.metrics(result.wall)
    counts = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    calls = {}
    for name, *_ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
    return counts, calls, dict(counter.counts), result.output_bytes


def test_counts_repeat_exactly(cli, ref, tmp_path):
    wl = small_workload("verify_mix", 4, 10)
    first = traced_pass(wl, cli, ref, tmp_path / "out")
    second = traced_pass(wl, cli, ref, tmp_path / "out")
    assert first == second
    counts, calls, laurent, _ = first
    assert counts["alexander.fox_calls"] > 0 and laurent["laurent.mul_calls"] > 0
    assert counts["verify.checks_failed"] == 0


def test_self_times_account_for_the_root_spans(cli, ref, tmp_path):
    with spans.Tracer() as tracer:
        result = runner.run_pass(small_workload("verify_mix", 4, 10), cli,
                                 tmp_path / "out", ref)
    own = tracer.self_times()
    assert min(own) >= 0
    roots = [end - start for name, start, end, parent, _ in tracer.spans if parent < 0]
    assert sum(own) == sum(roots)
    assert len(roots) == len(result.seconds)
    share = tracer.metrics(result.wall)["trace.self_time_share"][0]
    assert 0.9 < share <= 1.0
    knots = {knot for *_, knot in tracer.spans if knot >= 0}
    assert knots == set(range(10))
