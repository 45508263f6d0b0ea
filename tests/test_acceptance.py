"""End-to-end property suites at their default trial counts.

Each test runs one suite, prints a single verdict line, and enforces the
suite's runtime budget where one applies. Budgets are generous for CI noise;
typical runtimes are far below them.
"""
import subprocess
import sys
import time

from umtk import suites


def _run(capsys, tag, suite, bound=None):
    result = suite()
    with capsys.disabled():
        verdict = "PASS" if result.passed else "FAIL"
        print(
            f"\nacceptance {tag}: {verdict} "
            f"({result.trials} trials, {result.seconds:.2f}s)"
        )
    assert result.passed, result.failures
    if bound is not None:
        assert result.seconds < bound, f"{result.name} took {result.seconds:.2f}s"
    return result


def test_01_tree_roundtrip(capsys):
    result = _run(capsys, "01 tree-roundtrip", suites.tree_roundtrip_suite, bound=5.0)
    assert result.trials == 500


def test_02_diametrical_partition(capsys):
    result = _run(capsys, "02 diametrical-partition", suites.diametrical_partition_suite)
    assert result.trials == 500


def test_03_isometry_agreement(capsys):
    result = _run(capsys, "03 isometry-agreement", suites.isometry_agreement_suite, bound=30.0)
    assert result.trials == 200


def test_04_weak_similarity_agreement(capsys):
    result = _run(
        capsys, "04 weaksim-agreement", suites.weak_similarity_agreement_suite, bound=30.0
    )
    assert result.trials == 201  # 200 drawn + the fixed refuted-forced pair


def test_05_chain_shape_witness(capsys):
    result = _run(capsys, "05 chain-shape-witness", suites.chain_shape_witness_suite, bound=10.0)
    assert result.trials == 200  # 100 forward + 100 converse


def test_06_fan_shape_witness(capsys):
    result = _run(capsys, "06 fan-shape-witness", suites.fan_shape_witness_suite, bound=10.0)
    assert result.trials == 100


def test_07_weaksim_implies_hasse_iso(capsys):
    _run(capsys, "07 weaksim-hasse", suites.weaksim_hasse_suite)


def test_08_ball_preserving_agreement(capsys):
    result = _run(
        capsys, "08 ballpreserving-agreement", suites.ball_preserving_agreement_suite, bound=60.0
    )
    assert result.trials == 151  # 150 drawn + the fixed refuted-forced pair


def test_09_witness_ball_preserving(capsys):
    _run(capsys, "09 witness-ballpreserving", suites.witness_ball_preserving_suite)


def test_10_hasse_tree_shape(capsys):
    _run(capsys, "10 hasse-tree-shape", suites.hasse_tree_shape_suite)


def test_full_check_command(capsys):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "umtk.cli", "check", "--trials", "default"],
        capture_output=True,
        text=True,
        timeout=180,
    )
    elapsed = time.monotonic() - start
    with capsys.disabled():
        print(f"\nacceptance full-check: exit {proc.returncode} in {elapsed:.1f}s")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 180.0
    assert proc.stdout.strip().splitlines()[-1].startswith("all 10 suites passed")
