"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import curvecount  # noqa: E402
import curvecount.cli  # noqa: E402,F401
from curvecount import chern, cli, partitions, pipelines, symfunc  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, expected  # noqa: E402


def test_self_time_of_a_synthetic_nest():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8].
    nest = [
        (2, 1, "b", 1.0, 4.0, 7),
        (4, 3, "d", 6.0, 8.0, "disk"),
        (3, 1, "c", 5.0, 9.0, 5),
        (1, 0, "a", 0.0, 10.0, None),
        (5, 0, "b", 20.0, 21.0, 1),
    ]
    s = spans.summarize(nest)
    assert (s["a"].calls, s["a"].total_s, s["a"].self_s) == (1, 10.0, 3.0)
    assert (s["c"].total_s, s["c"].self_s) == (4.0, 2.0)
    assert (s["b"].calls, s["b"].total_s, s["b"].self_s, s["b"].term_pairs) == (2, 4.0, 4.0, 8)
    assert s["d"].self_s == 2.0 and s["d"].sources == {"disk": 1}
    assert s["missing"].calls == 0


def test_spans_record_parents_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.spanned(lambda x: x + 1, "inner")
    outer = tracer.spanned(lambda x: inner(x) * inner(x), "outer")
    assert outer(1) == 4
    (i1, p1, n1, *_), (i2, p2, n2, *_), (i3, p3, n3, s3, e3, _) = tracer.spans
    assert (n1, n2, n3) == ("inner", "inner", "outer")
    assert p1 == p2 == i3 and p3 == 0
    s = spans.summarize(tracer.spans)
    assert s["outer"].total_s == e3 - s3 == 5.0
    assert s["outer"].self_s == 3.0


def _bindings():
    out = {}
    for module in spans.package_modules(spans.PACKAGE):
        for attr, value in vars(module).items():
            if callable(value):
                out[(module.__name__, attr)] = value
    out["Partition.__init__"] = partitions.Partition.__dict__["__init__"]
    out["mul_truncated"] = symfunc.SymmetricPoly.__dict__["mul_truncated"]
    return out


def test_alias_patching_reaches_every_alias_and_restores_the_originals():
    before = _bindings()
    original = chern.sym_power
    with spans.Tracer():
        wrapped = chern.sym_power
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert pipelines.sym_power is wrapped and cli.sym_power is wrapped and curvecount.sym_power is wrapped
        assert partitions.Partition.__init__.__wrapped__ is before["Partition.__init__"]
    assert _bindings() == before
    assert all(after is before[key] for key, after in _bindings().items())


def test_universal_sources_computed_memory_disk(tmp_path):
    chern.set_universal_cache_dir(tmp_path)
    chern.clear_universal_cache()
    try:
        with spans.Tracer() as tracer:
            values = [chern.sym_power_elementary(2, 3, 2)]
            values.append(chern.sym_power_elementary(2, 3, 2))
            chern.clear_universal_cache()
            values.append(chern.sym_power_elementary(2, 3, 2))
        sources = [info for *_, name, _, _, info in tracer.spans if name == spans.UNIVERSAL]
    finally:
        chern.set_universal_cache_dir(None)
        chern.clear_universal_cache()
    assert sources == ["computed", "memory", "disk"]
    assert values[0] == values[1] == values[2]


def test_every_query_has_a_pinned_answer():
    for workload in WORKLOADS.values():
        keys = [key for _, key in workload.queries]
        assert workload.top in keys
        for key in keys:
            assert expected(key)
    assert expected(("split", 5, 4)) == ("2875", "1275", "1300", "1575", "1600")


def test_benchmark_json_names_what_the_run_reports():
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == list(spans.PER_LAYER)
    passes = [{"pass_s": 2.0, "raw_pass_s": 2.5, "top_rung_s": 1.0, "raw_top_rung_s": 1.2, "rss_mib": 20.0}] * 2
    setups = [{"setup_s": 0.1, "raw_setup_s": 0.12}] * 2
    reported = run.end_to_end_metrics(setups, passes)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == {k: v["unit"] for k, v in reported.items()}


def _smallest(workload):
    """The workload cut down to its cheapest rung."""
    pair = next(p for p in workload.queries if p[1][:2] in (("conics", 4), ("lines", 4)))
    return dataclasses.replace(workload, queries=(pair,), top=pair[1])


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_pass_on_the_smallest_rung(name, trace):
    result = run.execute(_smallest(WORKLOADS[name]), seed=0, seconds=0, trace=trace)
    assert result.failed == 0 and result.attempted >= 1, result.failures
    assert result.setups
    untraced = [p for p in result.passes if not p["traced"]]
    traced = [p for p in result.passes if p["traced"]]
    if trace:
        assert set(run.traced_metrics(untraced, traced)) == {name for name, _ in spans.PER_LAYER}
    else:
        assert all(v["value"] > 0 for v in run.end_to_end_metrics(result.setups, untraced).values())
    assert not run.WORK.exists()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", "_work", "traces"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "conics-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
