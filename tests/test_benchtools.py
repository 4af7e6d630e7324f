"""benchtools/batch.py's summary on planted batch results, with no
perfbench run."""

import importlib.util
import json
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def batch_module():
    spec = importlib.util.spec_from_file_location(
        "benchtools_batch", ROOT / "benchtools" / "batch.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def planted(current_rate, current_p50):
    """Ten pairs whose runs differ only in instances_per_s and
    verdict_p50_s: in pair i, the parent's rate is 96 + i and its p50
    (1 + i / 10) ms, the change's rate current_rate + i and its p50
    current_p50."""
    def run(rate, p50):
        return {"setup_s": 0.2, "instances_per_s": rate,
                "verdict_p50_s": p50, "verdict_tail_s": 0.002,
                "peak_rss_mb": 25.0, "correct": True, "attempted": 99,
                "failed": 0}
    return [{"pair": i, "first": "current" if i % 2 else "parent",
             "parent": run(96 + i, 0.001 + i / 10000),
             "current": run(current_rate + i, current_p50)}
            for i in range(10)]


def test_summary_of_two_planted_batches(tmp_path, capsys):
    t0 = time.perf_counter()
    batch = batch_module()
    gain, loss = tmp_path / "gain.json", tmp_path / "loss.json"
    # one batch a gain of 12 % in rate in every pair, the other a loss of
    # 41 % in rate and 45 % in p50 against the parent's medians
    gain.write_text(json.dumps({"flow-doubling": planted(108, 0.0009)}))
    loss.write_text(json.dumps({"tree-ladder": planted(55, 0.0021)}))
    assert batch.main(["--summary", str(gain), "--json"]) == 0
    summed = json.loads(capsys.readouterr().out)["flow-doubling"]
    rate = summed["instances_per_s"]
    assert rate["parent_median"] == 100.5 and rate["current_median"] == 112.5
    assert rate["parent_quartiles"] == [98.25, 102.75]
    assert rate["current_better_in"] == 10 and rate["change"] == 0.1194
    assert rate["gain"] and rate["within_bound"] and rate["worse_by"] == 0
    p50 = summed["verdict_p50_s"]
    assert p50["current_better_in"] == 10 and p50["gain"]
    assert not summed["setup_s"]["gain"] and summed["failed"] == [0, 0]
    assert summed["pair_count"] == 10

    assert batch.main(["--summary", str(loss)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "tree-ladder: 10 pairs, failed runs parent 0, change 0"
    rate_line, p50_line = lines[1], lines[2]
    assert rate_line.split()[:4] == ["instances_per_s", "100.5", "->",
                                     "59.5"]
    assert "wins 0  PAST BOUND" in rate_line and "gain" not in rate_line
    assert "wins 0  PAST BOUND" in p50_line
    assert time.perf_counter() - t0 < 1
