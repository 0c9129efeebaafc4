"""tools/record_bench.py's commands and per-metric summary, on synthetic runs; no process starts."""

import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("record_bench", ROOT / "tools" / "record_bench.py")
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)

METRICS = [
    {"name": "score_per_s", "better": "higher", "bound": 0.25},
    {"name": "verify_s", "better": "lower", "bound": 0.25},
]


def _run(score, verify):
    return {"metrics": {"score_per_s": {"value": score}, "verify_s": {"value": verify}}}


def _pairs(parent, head):
    return [{"parent": _run(*p), "head": _run(*h)} for p, h in zip(parent, head)]


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    parent = [(float(100 + i), 1.0 + i / 10) for i in range(10)]
    # the head scores higher in pairs 0-5, equal in 6-7, lower in 8-9, and its
    # verify time is lower in pairs 0-2, equal in 3, higher in 4-9
    head = [(s + (5.0 if i < 6 else 0.0 if i < 8 else -5.0),
             v + (-0.05 if i < 3 else 0.0 if i == 3 else 0.05))
            for i, (s, v) in enumerate(parent)]
    summary = record_bench.summarize(_pairs(parent, head), METRICS)
    score, verify = summary["score_per_s"], summary["verify_s"]
    assert score["head_wins"] == 6 and verify["head_wins"] == 3
    assert score["pairs"] == verify["pairs"] == 10
    assert score["parent_median"] == 104.5
    assert score["parent_quartiles"] == [102.25, 106.75]
    assert score["head_median"] == 106.5
    assert verify["parent_median"] == pytest.approx(1.45)
    assert not score["worse_than_bound"] and not verify["worse_than_bound"]


@pytest.mark.parametrize("score, verify, flags", [
    (74.0, 1.0, (True, False)),   # 26% fewer scores/s
    (76.0, 1.0, (False, False)),  # 24% fewer: inside the bound
    (200.0, 1.26, (False, True)),  # 26% more seconds
    (200.0, 0.5, (False, False)),
])
def test_summary_flags_a_head_median_beyond_the_bound(score, verify, flags):
    pairs = _pairs([(100.0, 1.0)] * 10, [(score, verify)] * 10)
    summary = record_bench.summarize(pairs, METRICS)
    assert (summary["score_per_s"]["worse_than_bound"],
            summary["verify_s"]["worse_than_bound"]) == flags


def test_pairs_alternate_which_side_runs_first():
    firsts = [record_bench.pair_order(i)[0] for i in range(record_bench.PAIRS)]
    assert firsts == ["parent", "head"] * (record_bench.PAIRS // 2)


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_commands_of_a_pair_run_every_workload_of_the_benchmark():
    commands = record_bench.bench_commands(BENCHMARK, 1503)
    assert list(commands) == [w["name"] for w in BENCHMARK["workloads"]]
    program = [sys.executable, *BENCHMARK["command"][1:]]
    for workload, cmd in commands.items():
        flags = dict(zip(cmd[len(program)::2], cmd[len(program) + 1::2]))
        assert cmd[:len(program)] == program
        assert flags == {"--workload": workload, "--seed": "1503",
                         "--seconds": str(BENCHMARK["run_seconds"]), "--trace": "0"}


def test_summary_reads_every_end_to_end_metric_of_the_benchmark():
    metrics = BENCHMARK["end_to_end"]
    run = {"metrics": {m["name"]: {"value": 1.0} for m in metrics}}
    summary = record_bench.summarize([{"parent": run, "head": run}] * 3, metrics)
    assert list(summary) == [m["name"] for m in metrics]
    assert all(s["head_wins"] == 0 and not s["worse_than_bound"] for s in summary.values())


def test_micro_commands_time_every_shape_with_the_measuring_code():
    commands = record_bench.micro_commands()
    assert list(commands) == [f"{d},{b},{m}" for d, b, m in record_bench.MICRO_SHAPES]
    for (dim, bits, mode), cmd in zip(record_bench.MICRO_SHAPES, commands.values()):
        assert cmd == [sys.executable, "-c", record_bench.MICRO_CODE, str(dim), str(bits), mode,
                       str(record_bench.MICRO_ROWS)]
    assert {m for _, _, m in record_bench.MICRO_SHAPES} == {"biased", "unbiased"}


def test_micro_code_measures_every_call_in_process():
    # the code each rev runs, executed here against this tree's package
    namespace = {"__name__": "micro"}
    exec(record_bench.MICRO_CODE, namespace)
    out = namespace["measure"](64, 3, "unbiased", rows=2, repeat=1)
    assert list(out) == [
        "encode_vector_one_us", "encode_vector_2_rows_us_per_vector",
        "decode_payload_one_us", "decode_payload_2_rows_us_per_vector",
        "estimate_inner_product_one_us", "estimate_inner_product_2_rows_us_per_vector"]
    assert all(0.0 < value < 1e6 for value in out.values())


def test_micro_code_prints_one_result_that_summarize_reads(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["-c", "64", "3", "unbiased", "2"])
    exec(record_bench.MICRO_CODE, {"__name__": "__main__"})
    result = json.loads(capsys.readouterr().out)
    assert all(0.0 < m["value"] < 1e6 for m in result["metrics"].values())
    summary = record_bench.summarize([{"parent": result, "head": result}] * 3)
    assert list(summary) == list(result["metrics"]) and len(summary) == 6


def test_micro_code_writes_no_file_and_runs_no_command(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a micro row timed the CLI or the disk")

    monkeypatch.setattr("hadaquant.cli.main", refuse)
    monkeypatch.setattr(tempfile, "TemporaryDirectory", refuse)
    namespace = {"__name__": "micro"}
    exec(record_bench.MICRO_CODE, namespace)
    out = namespace["measure"](64, 3, "biased", rows=2, repeat=1)
    assert len(out) == 6 and all(0.0 < value < 1e6 for value in out.values())


def test_the_commands_run_as_pairs_are_every_workload_and_every_micro_shape():
    commands = record_bench.pair_commands(BENCHMARK, 2203)
    assert list(commands) == ([w["name"] for w in BENCHMARK["workloads"]]
                              + [f"{d},{b},{m}" for d, b, m in record_bench.MICRO_SHAPES])
    assert commands == {**record_bench.bench_commands(BENCHMARK, 2203),
                        **record_bench.micro_commands()}


def test_a_micro_shape_is_summarized_from_its_pairs_lower_is_better_and_unbounded():
    def timings(us):
        return {"metrics": {"quantize_us": {"value": us}, "decode_us": {"value": 2 * us}}}

    parent = [100.0 + i for i in range(10)]
    # the head is faster in pairs 0-6 and slower in 7-9, by far more than any bound
    head = [p - 1.0 if i < 7 else 3 * p for i, p in enumerate(parent)]
    summary = record_bench.summarize([{"parent": timings(p), "head": timings(h)}
                                      for p, h in zip(parent, head)])
    assert summary == {
        "quantize_us": {"parent_median": 104.5, "parent_quartiles": [102.25, 106.75],
                        "head_median": 103.5, "head_wins": 7, "pairs": 10},
        "decode_us": {"parent_median": 209.0, "parent_quartiles": [204.5, 213.5],
                      "head_median": 207.0, "head_wins": 7, "pairs": 10},
    }


def test_src_lines_counts_each_module_as_wc_does(tmp_path):
    package = tmp_path / "src" / "hadaquant"
    package.mkdir(parents=True)
    (package / "b.py").write_text("x = 1\ny = 2\n")
    (package / "a.py").write_text("\n\n\nz = 3")  # no final newline: wc -l reads 3
    (package / "notes.txt").write_text("not a module\n")
    assert record_bench.src_lines(tmp_path) == {"files": {"a.py": 3, "b.py": 2}, "total": 5}
