"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import build  # noqa: E402
import launch  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def kernel():
    record = build.build_kernel()
    launch.prepare(record["so"])
    import godeaux.backend

    if godeaux.backend._compiled is None:
        pytest.skip("godeaux was imported before the kernel build was loaded")
    return record


def _keys(workload, count):
    out = []
    for _, request in zip(range(count), workload.requests()):
        if isinstance(request, workloads.IdealRequest):
            request = (request.op, tuple(map(str, request.gens)),
                       str(request.target), request.drop)
        out.append(request)
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_requests_are_deterministic_and_distinct(kernel, name):
    first = _keys(workloads.make(name, 7, kernel), 60)
    again = _keys(workloads.make(name, 7, kernel), 60)
    other = _keys(workloads.make(name, 8, kernel), 60)
    assert first == again
    assert len(set(first)) == len(first)
    assert first != other


def _snapshot():
    import godeaux.rings

    state = {name: dict(vars(module)) for name, module in sys.modules.items()
             if name == "godeaux" or name.startswith("godeaux.")}
    state["Polynomial"] = dict(vars(godeaux.rings.Polynomial))
    return state


def test_wrappers_record_spans_and_restore_originals(kernel):
    import godeaux
    import godeaux.cli  # noqa: F401  (install wraps cli.main too)
    import godeaux.suite
    import tracing

    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert godeaux.suite.parse_poly is not before["godeaux.suite"]["parse_poly"]
        assert godeaux.groebner.buchberger is not before["godeaux.groebner"]["buchberger"]
        rmul = vars(godeaux.rings.Polynomial)["__rmul__"]
        assert rmul is vars(godeaux.rings.Polynomial)["__mul__"]
        with pytest.raises(RuntimeError):
            tracer.install()
        ring = godeaux.PolyRing(("x", "y", "z"), 5)
        x, y, z = ring.gens()
        ok, wit = godeaux.ideal_member(x * y * z, [x * y - z, y * z - x],
                                       witness=True)
        godeaux.buchberger([x**2 - y, y**2 - z])
    finally:
        tracer.restore()
    after = _snapshot()
    assert before.keys() == after.keys()
    for name in before:
        assert before[name].keys() == after[name].keys(), name
        for key, value in before[name].items():
            assert after[name][key] is value, (name, key)
    totals = tracing.span_totals(tracer.spans, tracer.values)
    assert totals["groebner.ideal_member.calls"] == 1
    assert totals["kernel.pure.buchberger_tracked.calls"] == 1
    assert totals["kernel.compiled.buchberger.calls"] == 1
    assert totals["groebner.pairs_processed"] > 0
    assert totals["kernel.terms_in"] > 0 and totals["kernel.terms_out"] > 0
    top = sum(end - start for _, start, end, parent, _ in tracer.spans
              if parent < 0)
    layers = sum(totals[f"layer.{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers == pytest.approx(top)


def _tampered_requests(workload, count):
    requests = [r for _, r in zip(range(40), workload.requests())]
    chosen = [r for r in requests if not all(r[1])][:count]
    chosen += [r for r in requests if all(r[1])][:count]
    return chosen


def test_reverify_gate_rejects_a_checker_that_accepts_tampering(kernel,
                                                                monkeypatch):
    import godeaux

    honest = workloads.make("reverify", 3, kernel)
    for request in _tampered_requests(honest, 2):
        honest.execute(request)
    assert honest.gate()["wrong"] == 0

    lax = workloads.make("reverify", 3, kernel)
    monkeypatch.setattr(godeaux, "verify_witness", lambda *a, **k: True)
    for request in _tampered_requests(lax, 2):
        lax.execute(request)
    assert lax.gate()["wrong"] == 2


def test_tampering_changes_exactly_one_cofactor(kernel):
    import godeaux

    fx = godeaux.load_fixtures()
    results = godeaux.run_all(seed=1, fixtures=fx)
    tampered, check_id = workloads.tamper(results, random.Random(5), fx)
    changed = [(a.id, b.id) for a, b in zip(results, tampered)
               if a.witness != b.witness]
    assert changed == [(check_id, check_id)]
    verdicts = [godeaux.verify_witness(r, fixtures=fx) for r in tampered]
    assert verdicts == [r.id != check_id for r in tampered]


def test_ideals_gate_rejects_planted_wrong_answers(kernel, monkeypatch):
    import godeaux

    honest = workloads.make("ideals", 4, kernel)
    requests = [r for _, r in zip(range(8), honest.requests())]
    for request in requests:
        honest.execute(request)
    assert honest.gate()["wrong"] == 0

    lax = workloads.make("ideals", 4, kernel)
    monkeypatch.setattr(godeaux, "radical_member", lambda *a, **k: False)
    for request in requests:
        lax.execute(request)
    assert lax.gate()["wrong"] == 2
    assert requests[3].op == "eliminate"
    lax.summaries[3] = (f"x{requests[3].drop}",)   # the eliminated variable
    assert lax.gate()["wrong"] == 3


def test_verify_gate_rejects_a_planted_wrong_report(kernel):
    workload = workloads.make("verify-compiled", 2, kernel)
    request = next(workload.requests())
    workload.execute(request)
    assert workload.gate()["wrong"] == 0
    seed, code, out = workload.outputs[0]
    bad = out.replace(b'"pass"', b'"fail"', 1)
    workload.outputs[0] = (seed, code, bad)
    assert workload.gate()["wrong"] == 1


def test_tail_needs_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    values = [float(i) for i in range(1, 101)]
    value, pct, beyond = run.tail(values)
    assert (value, pct, beyond) == (90.0, 90.0, 10)


def test_benchmark_file_lists_the_reported_metrics(kernel):
    import tracing

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        tracing.PER_LAYER
