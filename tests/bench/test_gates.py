"""The gated-bench runner itself: report shape, verdicts, CLI exit.

CI runs each scenario at its committed configuration (``repro bench
parallel|elastic|batch``); these tests run every scenario on a miniature
configuration (few vertices, zero latency scale) so they check the
runner's mechanics — measurement, bit-identity, gate verdicts, report
serialization, CLI exit status — in seconds.
"""

import dataclasses
import json

import pytest

from repro.bench import gates

SMALL = {
    "parallel": dict(vertices=40, iterations=2, nodes=2, io_latency_scale=0.0,
                     workers=[2], repeats=1, min_speedup=0.0),
    "elastic": dict(vertices=40, iterations=4, nodes=2, io_latency_scale=0.0,
                    repeats=1, max_overhead=1000.0),
    "batch": dict(vertices=40, nodes=2, sources=[0, 7], workers=[1, 2],
                  repeats=1, min_speedup=0.0),
}
#: A threshold no run can meet: nothing here speeds up 1000x without
#: latency realism, and a handoff always takes some time.
UNREACHABLE = {
    "parallel": dict(min_speedup=1000.0),
    "elastic": dict(max_overhead=0.0),
    "batch": dict(min_speedup=1000.0),
}
VARIANTS = {
    "parallel": ["sequential", "parallel-2"],
    "elastic": ["static", "scale-up", "scale-down"],
    "batch": ["solo-1", "batched-1", "solo-2", "batched-2"],
}
SCENARIOS = sorted(SMALL)


def run_small(scenario, **overrides):
    return gates.run(scenario, **dict(SMALL[scenario], **overrides))


def use_config(monkeypatch, scenario, **overrides):
    """Make ``scenario``'s committed config the small one (for the CLI)."""
    config = dict(SMALL[scenario], **overrides)
    monkeypatch.setitem(gates.SCENARIOS, scenario, dataclasses.replace(
        gates.SCENARIOS[scenario],
        config=dict(gates.SCENARIOS[scenario].config, **config),
    ))


@pytest.fixture(scope="module", params=SCENARIOS)
def small_report(request):
    return request.param, run_small(request.param)


def test_every_scenario_is_covered():
    assert sorted(gates.SCENARIOS) == SCENARIOS


def test_report_structure_and_bit_identity(small_report):
    scenario, report = small_report
    assert report["scenario"] == scenario
    assert report["config"]["vertices"] == 40
    assert [r["variant"] for r in report["variants"]] == VARIANTS[scenario]
    for row in report["variants"]:
        assert row["seconds"] > 0
        assert row["bit_identical"] is True
    assert report["checks"]
    assert all(check["ok"] for check in report["checks"])
    assert report["pass"] is True


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_unreachable_threshold_fails_the_verdict(scenario):
    report = run_small(scenario, **UNREACHABLE[scenario])
    assert report["pass"] is False
    assert not all(check["ok"] for check in report["checks"])
    assert all(row["bit_identical"] for row in report["variants"])


def diverge_last(variants):
    """Wrap a scenario's variants so the last one's output changes."""

    def wrapped(config):
        *head, (name, run) = variants(config)

        def diverged(config):
            seconds, output, metrics = run(config)
            return seconds, output + ("diverged",), metrics

        return head + [(name, diverged)]

    return wrapped


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_output_divergence_fails_the_verdict(scenario, monkeypatch):
    original = gates.SCENARIOS[scenario]
    monkeypatch.setitem(gates.SCENARIOS, scenario, dataclasses.replace(
        original, variants=diverge_last(original.variants),
    ))
    report = run_small(scenario)
    assert report["pass"] is False
    *same, last = report["variants"]
    assert last["bit_identical"] is False
    assert all(row["bit_identical"] for row in same)
    assert all(check["ok"] for check in report["checks"])


def test_repeats_that_disagree_raise(monkeypatch):
    outputs = iter([("a",), ("b",)])
    scenario = gates.Scenario(
        config={"repeats": 2},
        variants=lambda config: [("flaky", lambda c: (1.0, next(outputs), {}))],
        gate=lambda config, rows: [],
    )
    monkeypatch.setitem(gates.SCENARIOS, "flaky", scenario)
    with pytest.raises(AssertionError, match="flaky produced two different"):
        gates.run("flaky")


def test_unknown_config_is_rejected():
    with pytest.raises(TypeError, match="unknown parallel config: bogus"):
        gates.run("parallel", bogus=1)


def test_elastic_runs_rebalance_at_the_scale_superstep():
    report = run_small("elastic")
    static, *elastic = report["variants"]
    assert static["rebalances"] == []
    for row in elastic:
        assert [r["superstep"] for r in row["rebalances"]] == [3]
    assert [c["measure"] for c in report["checks"]] == [
        "rebalances", "handoff_vs_superstep"] * 2


def test_parallel_worker_counts_are_deduplicated_and_sorted():
    report = run_small("parallel", workers=[4, 2, 2, 1])
    assert [r["variant"] for r in report["variants"]] == [
        "sequential", "parallel-2", "parallel-4"]
    # Only the highest worker count is gated.
    assert [c["variant"] for c in report["checks"]] == ["parallel-4"]


def test_write_report_round_trips_and_renders(small_report, tmp_path):
    scenario, report = small_report
    path = str(tmp_path / "report.json")
    assert gates.write_report(report, path) == path
    with open(path) as handle:
        assert json.load(handle) == report
    lines = gates.summary_lines(report)
    assert lines[0].startswith("%s bench (" % scenario)
    for name in VARIANTS[scenario]:
        assert any(line.startswith("  %s:" % name) for line in lines)
    assert lines[-1] == "  verdict: PASS"


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_cli_bench_fails_on_a_missed_threshold(scenario, tmp_path, monkeypatch,
                                               capsys):
    from repro.cli import main

    use_config(monkeypatch, scenario, **UNREACHABLE[scenario])
    monkeypatch.chdir(tmp_path)
    assert main(["bench", scenario]) == 1
    with open(tmp_path / ("BENCH_%s.json" % scenario)) as handle:
        report = json.load(handle)
    assert report["scenario"] == scenario
    assert report["pass"] is False
    assert "verdict: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_cli_bench_passes_and_honours_an_explicit_out(scenario, tmp_path,
                                                      monkeypatch, capsys):
    # Naming another scenario's default report file must still write there.
    from repro.cli import main

    use_config(monkeypatch, scenario)
    monkeypatch.chdir(tmp_path)
    assert main(["bench", scenario, "--out", "BENCH_parallel.json"]) == 0
    with open(tmp_path / "BENCH_parallel.json") as handle:
        report = json.load(handle)
    assert report["scenario"] == scenario
    assert report["pass"] is True
    assert "verdict: PASS" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_parallel.json"]
