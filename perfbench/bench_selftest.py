"""Self-tests of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest -q perfbench/bench_selftest.py

They cover the tail-percentile rule, the scaling to reference speed, seed
determinism and exact self-checks of the generators, the correctness gate,
missing hooks, and that the count metrics of two traced runs of the same seed
repeat exactly.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

cli = run.import_cli()
import willmore  # noqa: E402


# tail rule ------------------------------------------------------------------


def test_tail_leaves_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    random.Random(0).shuffle(values)
    value, percentile = run.tail(values)
    assert value == 90.0
    assert sum(v > value for v in values) == run.TAIL_BEYOND
    assert percentile == 90.0


def test_tail_needs_eleven_samples():
    assert run.tail([1.0] * 10) is None
    assert run.tail([float(v) for v in range(11)]) == (0.0, 100.0 / 11)


# reference speed --------------------------------------------------------------


def test_scales_use_the_probes_before_and_after_each_request():
    fast, slow = reference.REFERENCE_S, reference.REFERENCE_S * 3
    factors = reference.scales([fast, fast, slow, slow, fast])
    assert factors == [1.0, 0.5, 1 / 3, 0.5]


def test_median_matches_statistics():
    import statistics

    for values in ([3.0], [2.0, 1.0], [5.0, 1.0, 4.0, 2.0], [1.0, 9.0, 3.0, 7.0, 5.0]):
        assert reference.median(values) == statistics.median(values)


def test_probes_take_time():
    assert reference.probe() > 0
    assert reference.probe_import() > 0


# generators -------------------------------------------------------------------


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generators_are_seed_deterministic(workload, tmp_path):
    first = gen.build(workload, willmore, 7, tmp_path / "a")
    again = gen.build(workload, willmore, 7, tmp_path / "b")
    other = gen.build(workload, willmore, 8, tmp_path / "c")

    def strip(ws):
        return [{**r, "argv": [a.replace(str(ws.root), "") for a in r["argv"]]} for r in ws.requests]

    assert strip(first) == strip(again)
    assert first.files.keys() == again.files.keys()
    assert list(first.files.values()) == list(again.files.values())
    assert first.operands == again.operands
    assert strip(first) != strip(other)


def test_cayley_frame_is_orthogonal_and_dense():
    q = gen.cayley_frame(6, random.Random(3))
    assert gen.matmul(gen.transpose(q), q) == gen.identity(6)
    assert all(e for row in q for e in row)


def test_checks_reject_broken_inputs():
    data = gen.from_builtin(willmore, "g6_m1_M1")
    with pytest.raises(gen.GeneratorError):
        gen.check_orthogonal([[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]], "shear")
    broken = gen.Dataset("broken", data.labels, [(ma, mb) for ma, mb in data.ops])
    broken.ops[0][0][0][0] += 1
    with pytest.raises(gen.GeneratorError, match="trace-free"):
        gen.check_dataset(broken)
    summed = gen.direct_sum([data, data], "twice")
    summed.ops[1][0][0][9] = Fraction(1)
    with pytest.raises(gen.GeneratorError, match="declared blocks"):
        gen._check_blocks(summed, [data, data])


def test_direct_sum_adds_square_norms():
    a = gen.from_builtin(willmore, "g6_m2_M1")
    b = gen.from_builtin(willmore, "g6_m2_M2")
    total = gen.square_norm(gen.direct_sum([a, b], "ab"))
    assert total == tuple(x + y for x, y in zip(gen.square_norm(a), gen.square_norm(b)))


def test_scalar_text_matches_the_program():
    rng = random.Random(1)
    for _ in range(200):
        a, b = gen._random_coeff(rng)
        text = gen.format_scalar(a, b)
        assert willmore.format_scalar(willmore.parse_scalar(text)) == text


# correctness gate --------------------------------------------------------------


def test_gate_uses_expected_exit_and_lines():
    request = {"exit": 0, "lines": ["verdict: pass", "verdict: pass"], "forbidden": ["constant: no"]}
    assert run.check(request, 0, "verdict: pass\nverdict: pass\n")
    assert not run.check(request, 1, "verdict: pass\nverdict: pass\n")
    assert not run.check(request, 0, "verdict: pass\n")
    assert not run.check(request, 0, "verdict: pass\nverdict: pass\nconstant: no\n")
    assert not run.check(request, 0, "verdict: pass\nverdict: pass\nbianchi: FAIL\n")
    failing = {"exit": 1, "lines": ["verdict: FAIL"], "forbidden": []}
    assert run.check(failing, 1, "verdict: FAIL\n")
    assert not run.check(failing, 0, "verdict: FAIL\n")


# tracing -------------------------------------------------------------------------


def _subset(workload: str, root: Path) -> list[dict]:
    """A cheap slice of a workload's requests that still reaches every layer it uses."""
    ws = gen.build(workload, willmore, 3, root)
    ws.write()
    if workload == "trace":
        return [r for r in ws.requests if int(r["argv"][-1]) <= 20][:6]
    small = [r for r in ws.requests
             if r["cmd"] != "paper" and r["argv"][1].startswith(("g6_m1", str(ws.root / "g6_m1")))]
    return small[:6] + [r for r in ws.requests if r["cmd"] == "paper"]


def _traced_counts(requests: list[dict]) -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = run.run_pass(cli.main, requests, tracer)
    finally:
        tracer.uninstall()
    assert result.failed == 0
    assert not tracer.absent
    metrics = tracing.layer_metrics(tracer, 1.0, None)
    return {name: metrics[name]["value"] for name in tracing.EXACT_COUNTS}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    requests = _subset(workload, tmp_path)
    first = _traced_counts(requests)
    assert first == _traced_counts(requests)
    assert any(first.values())


def test_hooks_are_removed_and_certificates_unchanged(tmp_path):
    requests = _subset("sparse", tmp_path)
    originals = (cli.main, willmore.linalg.Matrix.__matmul__, willmore.polyring.MultiPoly.__rmul__)
    plain = run.run_pass(cli.main, requests)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main is not originals[0]
        traced = run.run_pass(cli.main, requests, tracer)
    finally:
        tracer.uninstall()
    assert (cli.main, willmore.linalg.Matrix.__matmul__, willmore.polyring.MultiPoly.__rmul__) == originals
    assert plain.digest.hexdigest() == traced.digest.hexdigest()
    spans = [s for s in tracer.spans if s is not None]
    assert spans and all(s[3] >= s[2] for s in spans)
    assert {s[5] for s in spans} == {r["id"] for r in requests}


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(20000)), record=True)
    root = tracer.wrap("root", lambda: [leaf() for _ in range(3)], record=True)
    root()
    stats = tracer.stats
    assert stats["leaf"].calls == 3
    assert stats["root"].self_ns == stats["root"].ns - stats["leaf"].ns
    root_span = next(s for s in tracer.spans if s[1] == "root")
    assert all(s[4] == root_span[0] for s in tracer.spans if s[1] == "leaf")


def test_missing_hook_is_reported_absent(monkeypatch):
    hooks = tracing.HOOKS + (("cli.renamed", "willmore.cli", "no_such_function", True, None, None),)
    monkeypatch.setattr(tracing, "HOOKS", hooks)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["cli.renamed"]


def test_probe_that_no_longer_fits_is_reported_absent():
    def _after_stale(tracer, args, result):
        return result.no_such_attribute

    tracer = tracing.Tracer()
    traced = tracer.wrap("layer", lambda x: x + 1, record=True, after=_after_stale)
    assert traced(1) == 2
    assert traced(2) == 3
    assert tracer.absent == ["probe _after_stale"]
    assert tracer.stats["layer"].calls == 2


# BENCHMARK.json ---------------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in tracing.PER_LAYER.items()
    ]
    assert [w["name"] for w in bench["workloads"]] == list(gen.WORKLOADS) == list(run.WORKLOADS)
    setup_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound for m in bench["end_to_end"])
