"""Tests of the benchmark itself: its oracles, its verdict and its counters.

    python3 -m pytest perfbench/test_perfbench.py

The counter test runs every workload traced twice and takes a few minutes.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
from oracles import WrongAnswer  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402


def cli_report(tmp_path: Path, *argv: str) -> dict:
    from cluster_presents import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return json.loads(out.getvalue())


def write_matrix(tmp_path: Path, b) -> str:
    path = tmp_path / "in.mat"
    path.write_text(f"{len(b)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in b))
    return str(path)


def test_weyl_orders_match_the_closed_forms():
    from math import factorial

    for n in range(1, 9):
        assert oracles.weyl_order(f"A{n}") == factorial(n + 1)
    for n in range(2, 9):
        assert oracles.weyl_order(f"B/C{n}") == 2**n * factorial(n)
    for n in range(4, 9):
        assert oracles.weyl_order(f"D{n}") == 2 ** (n - 1) * factorial(n)
    assert [oracles.weyl_order(t) for t in ("E6", "E7", "E8", "F4", "G2")] == [51840, 2903040, 696729600, 1152, 12]


def test_published_class_sizes():
    assert [oracles.class_size(f"D{n}") for n in range(5, 11)] == [26, 80, 246, 810, 2704, 9252]
    assert [oracles.class_size(t) for t in ("A7", "E6", "E7", "E8")] == [150, 67, 416, 1574]
    assert oracles.class_size("B/C5") is None


def test_fz_mutation_is_an_involution_and_matches_a_hand_example():
    b = oracles.dynkin_exchange("B/C3")
    assert b == [[0, 1, 0], [-1, 0, 1], [0, -2, 0]]
    assert oracles.mutate(b, 1) == [[0, -1, 1], [1, 0, -1], [-2, 2, 0]]
    for k in range(3):
        assert oracles.mutate(oracles.mutate(b, k), k) == b


def test_theorem_a_oracle_rejects_wrong_answers(tmp_path):
    report = cli_report(tmp_path, "theorem-a", "D5")
    assert oracles.check_theorem_a(report, "D5", None) == 26
    for corrupt in (
        lambda r: r["results"].update(expected_order=3840),
        lambda r: r["results"].update(class_size=25),
        lambda r: r["results"]["members"][7].update(order=960),
        lambda r: r["results"].update(type="B/C5"),
        lambda r: r["results"]["members"].pop(),
    ):
        wrong = copy.deepcopy(report)
        corrupt(wrong)
        with pytest.raises(WrongAnswer):
            oracles.check_theorem_a(wrong, "D5", None)


def test_verify_mutation_oracle_rejects_wrong_answers(tmp_path):
    path = write_matrix(tmp_path, oracles.replay(oracles.dynkin_exchange("F4"), [2, 3, 1]))
    report = cli_report(tmp_path, "verify-mutation", path, "2")
    assert oracles.check_verify_mutation(report, "F4", 2) == 1
    for key, value in (("order", 576), ("mutated_order", 2304), ("inverse_homomorphism", False), ("vertex", 3)):
        with pytest.raises(WrongAnswer):
            oracles.check_verify_mutation({**report, key: value}, "F4", 2)
    with pytest.raises(WrongAnswer):
        oracles.check_verify_mutation(report, "B/C4", 2)


def test_verify_type_oracle_rejects_the_wrong_type(tmp_path):
    path = write_matrix(tmp_path, oracles.replay(oracles.dynkin_exchange("D6"), [1, 4, 2, 6, 3]))
    report = cli_report(tmp_path, "verify-type", path)
    assert oracles.check_verify_type(report, "D6") == 1
    with pytest.raises(WrongAnswer):
        oracles.check_verify_type(report, "E6")
    with pytest.raises(WrongAnswer):
        oracles.check_verify_type({**report, "order": 46080, "expected_order": 46080}, "D6")


def test_pipeline_oracle_rejects_a_wrong_final_matrix(tmp_path):
    b = oracles.replay(oracles.dynkin_exchange("E6"), [3, 5, 2])
    script = [1, 6, 3, 3, 2, 4, 5, 1]
    report = cli_report(tmp_path, "pipeline", write_matrix(tmp_path, b), ",".join(map(str, script)), "--type", "E6")
    assert oracles.check_pipeline(report, b, script) == len(script)
    wrong = copy.deepcopy(report)
    wrong["results"]["final_matrix"]["rows"][0][0] = 1
    with pytest.raises(WrongAnswer):
        oracles.check_pipeline(wrong, b, script)
    with pytest.raises(WrongAnswer):
        oracles.check_pipeline(report, b, script + [1])


def test_scaling_takes_the_host_speed_out_of_a_time():
    # An op timed while the calibration loop ran at half the reference speed.
    slow = 2 * run.CAL_REF_S
    assert run.scaled([2.0, 0.5], [slow, slow, run.CAL_REF_S]) == [1.0, 0.5 * 2 / 3]
    assert run.calibrate() > 0


class FixedCli:
    """Prints one fixed report, exits as the CLI does for its verdict, or raises."""

    def __init__(self, report):
        self.report = report

    def main(self, argv):
        if isinstance(self.report, Exception):
            raise self.report
        print(json.dumps(self.report))
        return 0 if self.report["verdict"] == "pass" else 1


def test_a_failing_verdict_makes_the_run_incorrect(tmp_path):
    b = oracles.replay(oracles.dynkin_exchange("E6"), [3, 5, 2])
    script = [1, 6, 3]
    report = cli_report(tmp_path, "pipeline", write_matrix(tmp_path, b), ",".join(map(str, script)), "--type", "E6")
    op = Op(("pipeline",), partial(oracles.check_pipeline, matrix=b, script=script))

    passing = run.plain_round(FixedCli(report), [op], [])
    assert run.outcome([passing]) == {"correct": True, "attempted": 1, "failed": 0}
    failing = run.plain_round(FixedCli({**report, "verdict": "fail"}), [op], [])
    assert failing["failures"][0]["kind"] == "wrong"
    assert run.outcome([failing]) == {"correct": False, "attempted": 1, "failed": 1}
    crashing = run.plain_round(FixedCli(RuntimeError("boom")), [op], [])
    assert run.outcome([crashing])["correct"] is False
    # Only an op the workload marks as a known defect may fail in a correct run.
    defect = run.plain_round(FixedCli({**report, "verdict": "overflow"}), [replace(op, known_defect=True)], [])
    assert run.outcome([defect]) == {"correct": True, "attempted": 1, "failed": 1}


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pipeline", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def traced_counts(workload: str, seed: int) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", "1"], capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: result["metrics"][name]["value"] for name, unit in run.spec_metrics("per_layer") if unit == "count"}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first = traced_counts(workload, 11)
    assert first == traced_counts(workload, 11)
    assert sum(first.values()) > 0
