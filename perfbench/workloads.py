"""The benchmark's three closed-loop workloads on the 8-input borehole function.

Each workload is driven by one client in one process through ppgp's public
API: every operation starts after the previous one has returned.  A
workload builds its inputs from the seed in :meth:`Workload.setup`, lets
lazy state settle in :meth:`Workload.warmup`, and then repeats
:meth:`Workload.cycle`, which returns a :class:`Tally` of what one cycle
did and which of its outputs failed a check.

Modules are called through their attributes (``evaluation.cross_validate``,
``pursuit.train``, ``cli.main``) so the tracer's patched bindings apply.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ppgp import TrainConfig, TuneGrid, by_name, cli, evaluation, halton, matern, pursuit
from ppgp.modelio import save_model

HERE = Path(__file__).resolve().parent
FUNCTION = "borehole"
D = 8
# The protocol seed of acceptance criterion 1.  Where a workload holds
# something fixed (the final experiment of cv-tune, the initial weights and
# test requests of train-large, the served model of predict-serve) it is
# fixed at this seed.
REFERENCE_SEED = 0
# Relative tolerance on answers checked against the recorded reference.
# Perturbing the initial weights by 1e-13 moves the borehole n=40 RMSE by
# about 5e-15 relative; scaling the gradient by 1.001 moves it by 2e-4.
REFERENCE_RTOL = 1e-6


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def relative_rmse(pred, truth) -> float:
    """sqrt(mean(((pred - truth) / truth)^2)), computed here, not by ppgp."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    return float(np.sqrt(np.mean(((pred - truth) / truth) ** 2)))


@dataclass
class Tally:
    """Operations one cycle attempted, their timings, and failed checks."""

    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    train_s: list = field(default_factory=list)
    request_s: list = field(default_factory=list)
    rmse: float = math.nan
    notes: list = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.notes.append(why)


def check_trace(model, tally: Tally, what: str) -> None:
    """The loss trace is finite and the best epoch is no worse than epoch 0."""
    losses = [loss for _, loss in model.trace]
    if not losses or not all(math.isfinite(x) for x in losses):
        tally.fail(1, f"{what}: non-finite loss trace")
    elif model.trace[model.best_epoch][1] > losses[0]:
        tally.fail(1, f"{what}: best-epoch loss above the epoch-0 loss")


class Workload:
    name = ""
    FULL: dict = {}
    TINY: dict = {}

    def __init__(self, seed: int, workdir: Path, params: dict | None = None,
                 reference: dict | None = None):
        """``reference`` is the loaded reference.json; None skips its checks."""
        self.seed = seed
        self.workdir = Path(workdir)
        self.p = dict(self.FULL if params is None else params)
        self.ref = reference[self.name] if reference is not None else None
        self.fn = by_name(FUNCTION)
        self.kernel = matern(2.5)
        self.setup_train_s: list = []  # wall time of each training in setup()
        self.tally: Tally | None = None

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Untimed work the output checks need, done once after set-up."""

    def warmup(self) -> None:
        raise NotImplementedError

    def cycle(self) -> Tally:
        raise NotImplementedError

    def on_traced_return(self, span: str, args, out) -> None:
        """Checks on outputs that only the tracer sees (traced cycles only)."""

    def _reference_check(self, tally: Tally, value: float, expected: float, what: str):
        if not math.isclose(value, expected, rel_tol=REFERENCE_RTOL):
            tally.fail(1, f"{what}: {value!r} != reference {expected!r}")


class CvTune(Workload):
    name = "cv-tune"
    FULL = dict(n=40, M=35, etas=(1e-7, 1e-8, 1e-9, 1e-10), folds=5, epochs=220,
                n_test=500)
    TINY = dict(n=12, M=3, etas=(1e-7, 1e-9), folds=2, epochs=3, n_test=20)

    def setup(self):
        p = self.p
        self.U = halton(p["n"], D).points
        self.Y = self.fn.eval_unit(self.U)
        self.grid = TuneGrid(etas=p["etas"], Ms=(p["M"],), folds=p["folds"])
        self.rows = len(p["etas"]) * p["folds"]

    def warmup(self):
        # Same shapes as a cycle, one epoch: imports, BLAS start-up and the
        # allocator's adaptive thresholds reach the state a cycle leaves.
        p = self.p
        best, _ = evaluation.cross_validate(
            self.U, self.Y, self.grid, self.seed, epochs=1, early_stop_rel=0.0)
        evaluation.run_experiment(
            "ppgpr", FUNCTION, n_train=p["n"], n_test=p["n_test"],
            seed=REFERENCE_SEED, eta=best["eta"], epochs=1, M=p["M"],
            early_stop_rel=0.0)

    def cycle(self):
        p = self.p
        t = self.tally = Tally(attempted=self.rows + 1)
        t0 = time.perf_counter()
        try:
            best, table = evaluation.cross_validate(
                self.U, self.Y, self.grid, self.seed,
                epochs=p["epochs"], early_stop_rel=0.0)
        except Exception as exc:  # a failed operation, not a failed run
            t.busy_s += time.perf_counter() - t0
            t.fail(t.attempted, f"cross_validate raised {exc!r}")
            return t
        try:
            rep = evaluation.run_experiment(
                "ppgpr", FUNCTION, n_train=p["n"], n_test=p["n_test"],
                seed=REFERENCE_SEED, eta=best["eta"], epochs=p["epochs"], M=p["M"],
                early_stop_rel=0.0)
        except Exception as exc:
            rep = None
            t.fail(1, f"run_experiment raised {exc!r}")
        t2 = time.perf_counter()
        t.busy_s += t2 - t0
        t.train_s.append((t2 - t0) / t.attempted)
        # The request is the whole tune-then-fit (what `ppgp tune` plus a fit
        # answers); the final run_experiment alone is too short a sample to
        # repeat within the bounds on this machine.
        t.request_s.append(t2 - t0)

        if best["eta"] not in p["etas"] or len(table) != self.rows:
            t.fail(self.rows, f"tune chose eta={best['eta']!r} with {len(table)} "
                              f"fold rows (want one of {p['etas']}, {self.rows} rows)")
        else:
            bad = sum(not math.isfinite(row["rmse"]) for row in table)
            if bad:
                t.fail(bad, f"{bad} fold(s) failed")
        if rep is None:
            return t
        t.rmse = rep.rmse
        if not math.isfinite(rep.rmse):
            t.fail(1, f"run_experiment rmse {rep.rmse!r}")
        elif self.ref is not None:
            # run_experiment is seeded at REFERENCE_SEED, so its RMSE is a
            # function of the chosen eta alone and is checked at every seed.
            self._reference_check(t, rep.rmse,
                                  self.ref["test_rmse_by_eta"][repr(best["eta"])],
                                  "run_experiment")
            if self.seed == REFERENCE_SEED and best["eta"] != self.ref["eta"]:
                t.fail(1, f"chose eta={best['eta']!r}, reference {self.ref['eta']!r}")
        return t

    def on_traced_return(self, span, args, out):
        if span == "pursuit.train" and self.tally is not None:
            check_trace(out, self.tally, "train")


class TrainLarge(Workload):
    name = "train-large"
    FULL = dict(n=400, M=40, eta=1e-9, epochs=20, requests=4, n_test=500)
    TINY = dict(n=16, M=4, eta=1e-9, epochs=3, requests=2, n_test=20)

    def setup(self):
        # The seed shuffles the training rows.  The initial weights and the
        # test requests are fixed: test_rmse over 2000 i.i.d. points spreads
        # 10-17 % across draws (relative errors are heavy-tailed), and a
        # different initial W gives a different model.  The answer does
        # not depend on row order beyond rounding, so the best loss and
        # test_rmse are checked against the reference at every seed.
        p = self.p
        U = halton(p["n"], D).points[np.random.default_rng(self.seed).permutation(p["n"])]
        self.U, self.Y = U, self.fn.eval_unit(U)
        fixed = np.random.default_rng(REFERENCE_SEED)
        self.W0 = fixed.normal(0.0, 1.0 / math.sqrt(D), size=(p["M"], D))
        self.tests = [fixed.random((p["n_test"], D)) for _ in range(p["requests"])]
        self.truths = [self.fn.eval_unit(U_test) for U_test in self.tests]
        self.cfg = TrainConfig(eta=p["eta"], epochs=p["epochs"], M=p["M"],
                               early_stop_rel=0.0)

    def warmup(self):
        cfg = TrainConfig(eta=self.p["eta"], epochs=1, M=self.p["M"], early_stop_rel=0.0)
        pursuit.train(self.U, self.Y, self.kernel, cfg, W0=self.W0).predict(self.tests[0])

    def cycle(self):
        t = self.tally = Tally(attempted=1 + len(self.tests))
        t0 = time.perf_counter()
        try:
            model = pursuit.train(self.U, self.Y, self.kernel, self.cfg, W0=self.W0)
        except Exception as exc:
            t.busy_s += time.perf_counter() - t0
            t.fail(t.attempted, f"train raised {exc!r}")
            return t
        t.train_s.append(time.perf_counter() - t0)
        t.busy_s += t.train_s[-1]
        check_trace(model, t, "train")
        if len(model.trace) != self.p["epochs"] + 1:
            t.fail(1, f"train ran {len(model.trace)} loss evaluations, "
                      f"want {self.p['epochs'] + 1}")
        elif self.ref is not None:
            self._reference_check(t, model.trace[model.best_epoch][1],
                                  self.ref["best_loss"], "train best loss")

        preds = []
        for k, U_test in enumerate(self.tests):
            t0 = time.perf_counter()
            try:
                pred = model.predict(U_test)
            except Exception as exc:
                pred = None
                t.fail(1, f"predict {k} raised {exc!r}")
            t.busy_s += time.perf_counter() - t0
            if pred is not None and not np.isfinite(pred).all():
                t.fail(1, f"predict {k}: non-finite predictions")
            elif pred is not None:
                preds.append(pred)
        # As on cv-tune, the request is the whole train-then-predict: the
        # slowest of a run's 0.3 s predicts spread 37 % across runs here.
        t.request_s.append(t.busy_s)
        if len(preds) == len(self.tests):
            t.rmse = relative_rmse(np.concatenate(preds), np.concatenate(self.truths))
            if self.ref is not None:
                self._reference_check(t, t.rmse, self.ref["test_rmse"], "train-large")
        return t


class PredictServe(Workload):
    name = "predict-serve"
    FULL = dict(n=40, M=35, eta=1e-7, epochs=220, files=8, rows=1000, sampled=4)
    TINY = dict(n=12, M=3, eta=1e-7, epochs=3, files=2, rows=20, sampled=2)

    def setup(self):
        p = self.p
        self.workdir.mkdir(parents=True, exist_ok=True)
        U = halton(p["n"], D).points
        cfg = TrainConfig(eta=p["eta"], epochs=p["epochs"], M=p["M"],
                          early_stop_rel=0.0, seed=REFERENCE_SEED)
        t0 = time.perf_counter()
        self.model = pursuit.train(U, self.fn.eval_unit(U), self.kernel, cfg)
        self.setup_train_s.append(time.perf_counter() - t0)
        self.model_path = self.workdir / "model.txt"
        save_model(self.model, self.model_path)
        rng = np.random.default_rng(self.seed)
        self.points = []
        for k in range(p["files"]):
            pts = rng.random((p["rows"], D))
            path = self.workdir / f"points{k}.csv"
            lines = [",".join(f"x{j + 1}" for j in range(D))]
            lines += [",".join(repr(float(x)) for x in row) for row in pts]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            self.points.append((path, pts))

    def prepare_checks(self):
        p = self.p
        rng = np.random.default_rng([self.seed, 1])
        self.expected = []
        for path, pts in self.points:
            rows = rng.choice(p["rows"], size=p["sampled"], replace=False)
            single = [self.model.predict(pts[i:i + 1])[0] for i in rows]
            self.expected.append((self.model.predict(pts), rows, np.array(single),
                                  self.fn.eval_unit(pts)))

    def warmup(self):
        for k in range(len(self.points)):
            cli.main(self.request(k))

    def request(self, k: int) -> list[str]:
        path = self.points[k][0]
        out = self.workdir / f"pred{k}.csv"
        return ["predict", "--model", str(self.model_path), "--points", str(path),
                "--out", str(out)]

    def cycle(self):
        t = self.tally = Tally()
        preds, truths = [], []
        for k in range(len(self.points)):
            argv = self.request(k)
            t.attempted += 1
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:
                code = f"raised {exc!r}"
            dt = time.perf_counter() - t0
            t.busy_s += dt
            t.request_s.append(dt)
            if code != 0:
                t.fail(1, f"request {k}: exit {code}")
                continue
            try:
                got = read_predictions(Path(argv[-1]))
            except (OSError, ValueError, IndexError) as exc:
                t.fail(1, f"request {k}: unreadable output {exc!r}")
                continue
            want, rows, single, truth = self.expected[k]
            if got.shape != want.shape or not np.isfinite(got).all():
                t.fail(1, f"request {k}: {got.size} predictions, non-finite or "
                          f"wrong count (want {want.size})")
            elif not np.array_equal(got, want):
                t.fail(1, f"request {k}: CSV differs from in-process predict")
            elif not np.array_equal(got[rows], single):
                t.fail(1, f"request {k}: batch rows differ from single-row predict")
            else:
                preds.append(got)
                truths.append(truth)
        if preds:
            t.rmse = relative_rmse(np.concatenate(preds), np.concatenate(truths))
            if (self.ref is not None and self.seed == REFERENCE_SEED
                    and len(preds) == len(self.points)):
                self._reference_check(t, t.rmse, self.ref["test_rmse"], "predict-serve")
        return t


def read_predictions(path: Path) -> np.ndarray:
    """Last column of a `ppgp predict` CSV, below its comments and header."""
    values = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("x1,"):
                continue
            values.append(float(line.rsplit(",", 1)[1]))
    return np.array(values)


WORKLOADS = {w.name: w for w in (CvTune, TrainLarge, PredictServe)}
