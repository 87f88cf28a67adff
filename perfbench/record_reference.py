"""Recompute ``reference.json``, the answers the benchmark checks against.

All of them are computed at ``REFERENCE_SEED``.

Run from the repository root when a change is meant to alter the answers:

    python3 perfbench/record_reference.py

It prints the new reference and writes it next to this file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
from ppgp import evaluation, pursuit  # noqa: E402

from workloads import (  # noqa: E402
    FUNCTION, REFERENCE_SEED, CvTune, PredictServe, TrainLarge,
    relative_rmse,
)


def main() -> int:
    work = HERE / "out" / "reference-work"
    cv = CvTune(REFERENCE_SEED, work)
    cv.setup()
    p = cv.p
    best, _ = evaluation.cross_validate(cv.U, cv.Y, cv.grid, REFERENCE_SEED,
                                        epochs=p["epochs"], early_stop_rel=0.0)
    by_eta = {
        repr(eta): evaluation.run_experiment(
            "ppgpr", FUNCTION, n_train=p["n"], n_test=p["n_test"], seed=REFERENCE_SEED,
            eta=eta, epochs=p["epochs"], M=p["M"], early_stop_rel=0.0).rmse
        for eta in p["etas"]
    }
    ref = {CvTune.name: {"eta": best["eta"], "test_rmse_by_eta": by_eta}}
    large = TrainLarge(REFERENCE_SEED, work)
    large.setup()
    model = pursuit.train(large.U, large.Y, large.kernel, large.cfg, W0=large.W0)
    preds = np.concatenate([model.predict(U_test) for U_test in large.tests])
    ref[TrainLarge.name] = {
        "test_rmse": relative_rmse(preds, np.concatenate(large.truths)),
        "best_loss": model.trace[model.best_epoch][1],
    }
    serve = PredictServe(REFERENCE_SEED, work)
    serve.setup()
    points = [pts for _, pts in serve.points]
    ref[PredictServe.name] = {"test_rmse": relative_rmse(
        np.concatenate([serve.model.predict(pts) for pts in points]),
        np.concatenate([serve.fn.eval_unit(pts) for pts in points]))}
    text = json.dumps(ref, indent=2) + "\n"
    (HERE / "reference.json").write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
