import json

import compare
import run


def write(path, threads, wall):
    record = {
        "env": {"threads": threads, "seed": 0, "nproc": 2, "numpy": "x"},
        "workload": "planted_compare", "trace": 0,
        "metrics": {"wall_s": {"value": wall, "unit": "s"}},
        "num_mca": 100, "total_E_j": 1e-7, "accuracy": 0.8, "outputs_sha256": "ab",
    }
    path.write_text("some line\nrecord " + json.dumps(record) + "\n{}\n")
    return str(path)


def test_refuses_results_with_different_thread_counts(tmp_path, capsys):
    a = write(tmp_path / "a.txt", 1, 2.0)
    b = write(tmp_path / "b.txt", 2, 1.0)
    assert compare.main([a, b]) == 2
    assert "threads 1 vs 2" in capsys.readouterr().err


def test_compares_results_with_equal_thread_counts(tmp_path, capsys):
    a = write(tmp_path / "a.txt", 1, 2.0)
    b = write(tmp_path / "b.txt", 1, 1.0)
    assert compare.main([a, b]) == 0
    assert "x0.500" in capsys.readouterr().out


def result(threads=1, digest="aa", num_mca=100):
    return {
        "env": {"threads": threads}, "hashes": {"i0/mapping.json": digest}, "failures": [],
        "num_mca": num_mca, "total_E_j": 1e-7, "accuracy": 0.8,
    }


def test_runs_are_judged_against_the_first():
    verdicts = run.judge([result(), result(), result(digest="bb"), result(num_mca=101),
                          {"traced": False, "failures": ["run exited with 1: boom"]}])
    assert verdicts[0] == verdicts[1] == []
    assert "output hashes differ from the first run: ['i0/mapping.json']" in verdicts[2]
    assert verdicts[3] == ["num_mca 101 differs from the first run's 100"]
    assert verdicts[4] == ["run exited with 1: boom"]


def test_runs_with_another_thread_count_are_not_compared():
    verdicts = run.judge([result(), result(threads=2, digest="bb")])
    assert verdicts[1] == ["BLAS runs 2 threads, not 1",
                           "thread count differs from the first run; outputs not compared"]
