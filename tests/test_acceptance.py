"""End-to-end acceptance checks.

Each check prints one PASS/FAIL summary line with capture suspended
before asserting, so a full run always shows one line per criterion with
the measured numbers.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from ppgp import (
    TuneGrid,
    by_name,
    cli,
    cross_validate,
    gaussian,
    halton,
    init_weights,
    loss_and_gradient,
    marginal_fill_distance_exact,
    matern,
    randomized_lhs,
    rate_fit,
    run_experiment,
    sup_error_curve,
    uniform_random,
)

ETA_GRID = (1e-7, 1e-8, 1e-9, 1e-10)
EPOCHS = 220


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}",
              flush=True)


def _tuned_eta(function: str, n_train: int, M: int, seed: int) -> float:
    """Step size chosen by k-fold CV on the training data only."""
    fn = by_name(function)
    U = halton(n_train, fn.dim).points
    Y = fn.eval_unit(U)
    grid = TuneGrid(etas=ETA_GRID, Ms=(M,), folds=5)
    best, _ = cross_validate(U, Y, grid, seed=seed, epochs=EPOCHS,
                             early_stop_rel=0.0)
    return best["eta"]


def _fd_gradient(W, X, Y, kernel1d, h=6e-4):
    """Richardson-extrapolated central differences: quotients at h and
    h/2 combine to cancel the h^2 truncation term, which keeps the
    oracle sharp even where factorization conditioning amplifies
    roundoff in the objective."""
    def central(step):
        G = np.zeros_like(W)
        for k in range(W.shape[0]):
            for j in range(W.shape[1]):
                Wp = W.copy()
                Wp[k, j] += step
                lp, _ = loss_and_gradient(Wp, X, Y, kernel1d)
                Wm = W.copy()
                Wm[k, j] -= step
                lm, _ = loss_and_gradient(Wm, X, Y, kernel1d)
                G[k, j] = (lp - lm) / (2.0 * step)
        return G

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


class TestAcceptance:
    def test_criterion_1_borehole_headline(self, capsys):
        """Projection-pursuit GP on the borehole function, 5 seeds:
        CV-tuned eta, 220 epochs with best-epoch return; RMSE <= 0.20
        on at least 3 seeds, median below the additive GP, each seed
        within its time budget."""
        rmses, walls = [], []
        for seed in range(5):
            t0 = time.perf_counter()
            eta = _tuned_eta("borehole", 40, 35, seed)
            rep = run_experiment(
                "ppgpr", "borehole", n_train=40, n_test=500, seed=seed,
                eta=eta, epochs=EPOCHS, M=35, early_stop_rel=0.0,
            )
            walls.append(time.perf_counter() - t0)
            rmses.append(rep.rmse)
        additive = [
            run_experiment("gp-add", "borehole", n_train=40, n_test=500,
                           seed=s).rmse
            for s in range(5)
        ]
        hits = sum(r <= 0.20 for r in rmses)
        med_pp = float(np.median(rmses))
        med_add = float(np.median(additive))
        ok = hits >= 3 and med_pp < med_add and max(walls) <= 60.0
        _report(capsys, 1, ok,
                f"rmse per seed {[round(r, 4) for r in rmses]} "
                f"({hits}/5 <= 0.20, need >=3), median {med_pp:.4f} vs "
                f"additive {med_add:.4f}, slowest seed {max(walls):.1f} s "
                f"(limit 60)")
        assert ok

    def test_criterion_2_method_ordering(self, capsys):
        """Median-over-5-seeds RMSE ordering on the three physical
        functions: projection pursuit <= product <= 1.1 x isotropic on
        borehole and otl-circuit; projection pursuit <= isotropic on
        wing-weight (all methods reported)."""
        cases = (("borehole", 40, 35), ("otl-circuit", 30, 25),
                 ("wing-weight", 50, 45))
        med = {}
        for function, n_train, M in cases:
            eta = _tuned_eta(function, n_train, M, seed=0)
            for method in ("gp-iso", "gp-pro", "gp-add", "ppgpr"):
                vals = [
                    run_experiment(
                        method, function, n_train=n_train, n_test=500,
                        seed=s, eta=eta, epochs=EPOCHS, M=M,
                        early_stop_rel=0.0,
                    ).rmse
                    for s in range(5)
                ]
                med[function, method] = float(np.median(vals))
        ok = True
        for function in ("borehole", "otl-circuit"):
            ok = ok and (med[function, "ppgpr"] <= med[function, "gp-pro"]
                         <= 1.1 * med[function, "gp-iso"])
        ok = ok and (med["wing-weight", "ppgpr"]
                     <= med["wing-weight", "gp-iso"])
        detail = "; ".join(
            f"{fn}: pp {med[fn, 'ppgpr']:.4f}, pro {med[fn, 'gp-pro']:.4f}, "
            f"iso {med[fn, 'gp-iso']:.4f}, add {med[fn, 'gp-add']:.4f}"
            for fn, _, _ in cases
        )
        _report(capsys, 2, ok, detail + " (need pp <= pro <= 1.1 iso on first two, "
                                "pp <= iso on wing-weight)")
        assert ok

    def test_criterion_3_additive_separation(self, capsys):
        """Structure match: additive GP >= 5x better on the exactly
        additive function; isotropic GP >= 2x better on xy + x^2."""
        add = run_experiment("gp-add", "additive-sine", n_train=30,
                             n_test=500, seed=0)
        iso = run_experiment("gp-iso", "additive-sine", n_train=30,
                             n_test=500, seed=0)
        factor_a = iso.rmse / add.rmse
        iso2 = run_experiment("gp-iso", "xy-plus-x2", n_train=25,
                              n_test=500, seed=0)
        add2 = run_experiment("gp-add", "xy-plus-x2", n_train=25,
                              n_test=500, seed=0)
        factor_b = add2.rmse / iso2.rmse
        ok = factor_a >= 5.0 and factor_b >= 2.0
        _report(capsys, 3, ok,
                f"additive-sine iso/add = {factor_a:.1f} (need >= 5); "
                f"xy-plus-x2 add/iso = {factor_b:.1f} (need >= 2)")
        assert ok

    def test_criterion_4_gradient_oracle(self, capsys):
        """Analytic training gradient vs central finite differences on
        20 random small instances, both kernel families, within 1e-4
        and 10 seconds."""
        rng = np.random.default_rng(42)
        t0 = time.perf_counter()
        worst = 0.0
        checked = 0
        for trial in range(10):
            n = int(rng.integers(4, 9))
            d = int(rng.integers(1, 4))
            M = int(rng.integers(1, 6))
            X = uniform_random(n, d, trial).points
            Y = rng.normal(size=n)
            W = init_weights(d, M, trial + 100)
            for base in (matern(2.5), gaussian(1.0)):
                _, G = loss_and_gradient(W, X, Y, base)
                G_fd = _fd_gradient(W, X, Y, base)
                rel = float(np.max(np.abs(G - G_fd)) / np.max(np.abs(G_fd)))
                worst = max(worst, rel)
                checked += 1
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-4 and checked == 20 and elapsed <= 10.0
        _report(capsys, 4, ok, f"worst rel err {worst:.2e} over {checked} instances "
                       f"(need <= 1e-4), {elapsed:.1f} s (limit 10)")
        assert ok

    def test_criterion_5_design_bounds(self, capsys):
        """100 randomized-LHS draws at n=20, d=5: one point per axis
        stratum and exact marginal fill distance <= 2/n, every time."""
        n, d = 20, 5
        failures = 0
        worst_h = 0.0
        for seed in range(100):
            design = randomized_lhs(n, d, seed)
            for j in range(d):
                strata = np.floor(design.points[:, j] * n).astype(int)
                if not np.array_equal(np.sort(strata), np.arange(n)):
                    failures += 1
                h = marginal_fill_distance_exact(design.points, j)
                worst_h = max(worst_h, h)
                if h > 2.0 / n:
                    failures += 1
        ok = failures == 0
        _report(capsys, 5, ok, f"0 stratum/fill violations in 100 draws required, "
                       f"got {failures}; worst h_j {worst_h:.4f} "
                       f"(bound {2.0 / n})")
        assert ok

    def test_criterion_6_rate_trend(self, capsys):
        """log max P(x) vs log n for the additive Matern 2.5 structure
        in d=2 decays with slope <= -2.0 (R^2 >= 0.95) while the
        isotropic slope is strictly larger, within 120 seconds."""
        t0 = time.perf_counter()
        ns = [10, 20, 40, 80]
        add_rows = sup_error_curve("additive", 2.5, 2, ns, trials=0, seed=0)
        iso_rows = sup_error_curve("isotropic", 2.5, 2, ns, trials=0, seed=0)
        add_fit = rate_fit([(r.n, r.max_p) for r in add_rows])
        iso_fit = rate_fit([(r.n, r.max_p) for r in iso_rows])
        elapsed = time.perf_counter() - t0
        ok = (add_fit.slope <= -2.0 and add_fit.r2 >= 0.95
              and iso_fit.slope > add_fit.slope and elapsed <= 120.0)
        _report(capsys, 6, ok,
                f"additive slope {add_fit.slope:.3f} (need <= -2.0), "
                f"R^2 {add_fit.r2:.4f} (need >= 0.95), isotropic slope "
                f"{iso_fit.slope:.3f} (must be larger), {elapsed:.1f} s "
                f"(limit 120)")
        assert ok

    def test_criterion_7_property_suites(self, capsys):
        """The kernel, linear-algebra, and GP property suites pass in a
        clean subprocess."""
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "tests/test_kernels.py",
             "tests/test_linalg.py", "tests/test_gp.py", "-q"],
            cwd=root, capture_output=True, text=True,
        )
        tail = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
        ok = proc.returncode == 0
        _report(capsys, 7, ok, f"property suites exit {proc.returncode} ({tail})")
        assert ok, proc.stdout + proc.stderr

    def test_criterion_8_bench_table_determinism(self, capsys, tmp_path):
        """bench-table run twice with one config produces byte-identical
        CSV bodies (comment lines carry wall-clock times and are
        excluded)."""
        args = ["bench-table", "--functions", "borehole",
                "--methods", "gp-iso,gp-pro,ppgpr", "--seeds", "1",
                "--n-train", "20", "--epochs", "40", "--eta", "1e-8"]
        bodies = []
        rcs = []
        for name in ("first.csv", "second.csv"):
            out = tmp_path / name
            rcs.append(cli.main(args + ["--out", str(out)]))
            raw = out.read_bytes().split(b"\n")
            bodies.append(b"\n".join(l for l in raw if not l.startswith(b"#")))
        ok = rcs == [0, 0] and bodies[0] == bodies[1] and len(bodies[0]) > 0
        _report(capsys, 8, ok, f"exit codes {rcs}, bodies "
                       f"{'identical' if bodies[0] == bodies[1] else 'DIFFER'} "
                       f"({len(bodies[0])} bytes)")
        assert ok
