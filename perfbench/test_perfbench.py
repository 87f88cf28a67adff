"""Self-tests for the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, CvTune, PredictServe, TrainLarge  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bindings():
    return {(module, attr): tracer._resolve(module, attr)
            for _, sites, _, _ in tracer.SPANS for module, attr in sites}


def _current(bindings):
    return {site: owner.__dict__[key] for site, (owner, key) in bindings.items()}


def test_tracer_restores_every_binding():
    bindings = _bindings()
    before = _current(bindings)
    with tracer.Tracer():
        during = _current(bindings)
        assert all(during[site] is not before[site] for site in before)
    assert _current(bindings) == before
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    assert _current(bindings) == before


def test_tracer_nests_spans_and_counts_lags(tmp_path):
    wl = TrainLarge(0, tmp_path, TrainLarge.TINY)
    wl.setup()
    with tracer.Tracer() as tr:
        assert wl.cycle().failed == 0
    per_run = tr.per_run(0)
    p = TrainLarge.TINY
    assert per_run["pursuit.train.calls"] == 1
    assert per_run["pursuit.loss_and_gradient.calls"] == p["epochs"] + 1
    assert per_run["pursuit.epochs"] == p["epochs"]
    # gram per loss evaluation plus the refit (n x n), then each request (m x n)
    n, M = p["n"], p["M"]
    lags = (p["epochs"] + 2) * n * n * M + p["requests"] * p["n_test"] * n * M
    lags += (p["epochs"] + 1) * n * n * M  # derivative over the lag tensor
    assert per_run["kernels.lag_elements"] == lags
    names = {s[0]: i for i, s in enumerate(tr.spans)}
    for name, start, end, parent, _ in tr.spans:
        assert end >= start
        if name == "kernels.Kernel1d.derivative":
            assert tr.spans[parent][0] == "pursuit.loss_and_gradient"
    assert "pursuit.train" in names
    for key in ("self_s", "total_s"):
        assert per_run[f"pursuit.train.{key}"] > 0
    assert per_run["pursuit.train.self_s"] < per_run["pursuit.train.total_s"]
    peaks = tr.peaks_mb()
    assert 0 < peaks["kernels.MultivariateKernel.cross.peak_mb"]
    assert peaks["kernels.MultivariateKernel.cross.peak_mb"] <= peaks[
        "pursuit.loss_and_gradient.peak_mb"]


def _serve(tmp_path):
    wl = PredictServe(0, tmp_path, PredictServe.TINY)
    wl.setup()
    wl.prepare_checks()
    assert wl.cycle().failed == 0
    return wl


@pytest.mark.parametrize("text, outcome", [
    ("not a model\n", "exit 1"),
    # a malformed number escapes cli.main as ValueError, not a usage error
    ("ppgp-model 1\nkind ppgpr\neta oops\n", "raised ValueError"),
])
def test_corrupt_model_counts_as_failed_requests(tmp_path, text, outcome):
    wl = _serve(tmp_path)
    wl.model_path.write_text(text)
    tally = wl.cycle()
    assert tally.attempted == PredictServe.TINY["files"]
    assert tally.failed == tally.attempted
    assert all(outcome in note for note in tally.notes), tally.notes


def test_nan_output_counts_as_failed_request(tmp_path):
    wl = _serve(tmp_path)
    lines = wl.model_path.read_text().splitlines()
    alpha = lines.index(next(l for l in lines if l.startswith("vector alpha")))
    lines[alpha + 1] = " ".join("nan" for _ in lines[alpha + 1].split())
    wl.model_path.write_text("\n".join(lines) + "\n")
    tally = wl.cycle()
    assert tally.failed == tally.attempted
    assert all("non-finite" in note for note in tally.notes)
    assert math.isnan(tally.rmse)


def test_wrong_answer_fails_reference_check(tmp_path):
    wl = CvTune(0, tmp_path, CvTune.TINY,
                reference={"cv-tune": {"eta": 1e-7, "test_rmse_by_eta": {
                    repr(eta): 1.0 for eta in CvTune.TINY["etas"]}}})
    wl.setup()
    tally = wl.cycle()
    assert tally.failed >= 1
    assert any("!= reference" in note for note in tally.notes)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_reported(name, trace, tmp_path):
    result = run.run(name, seed=3, seconds=0.0, trace=trace,
                     params=WORKLOADS[name].TINY, workdir=tmp_path / "work")
    assert result["correct"], result["failures"]
    key = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[key]}
    summary = json.loads(run.report(result, trace).splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["attempted"] >= 1 and summary["failed"] == 0
    if not trace:
        assert all(m["value"] > 0 for m in summary["metrics"].values())
    assert not (tmp_path / "work").exists()


def test_same_seed_same_inputs(tmp_path):
    a, b = (TrainLarge(5, tmp_path, TrainLarge.TINY) for _ in range(2))
    c = TrainLarge(6, tmp_path, TrainLarge.TINY)
    for wl in (a, b, c):
        wl.setup()
    assert np.array_equal(a.U, b.U) and not np.array_equal(a.U, c.U)
    assert np.array_equal(np.sort(a.U, axis=0), np.sort(c.U, axis=0))
    served = [PredictServe(seed, tmp_path / str(i), PredictServe.TINY)
              for i, seed in enumerate((5, 5, 6))]
    for wl in served:
        wl.setup()
    pts = [wl.points[0][1] for wl in served]
    assert np.array_equal(pts[0], pts[1]) and not np.array_equal(pts[0], pts[2])


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "cv-tune", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
