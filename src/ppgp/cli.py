"""Command-line front end.

Subcommands: ``design``, ``fit``, ``predict``, ``eval-grid``,
``bench-table``, ``tune``, ``theory-check``.

``fit``, ``bench-table`` and ``tune`` build their models from one
:class:`~ppgp.evaluation.ModelSpec` through
:func:`~ppgp.evaluation.make_model`, the same factory the library's
experiment harness uses, with the same weight seeds; the kernel and
training keys take their defaults from ``ModelSpec``.

Every subcommand accepts ``--config FILE`` (plain text, one ``key=value``
per line, ``#`` comments) plus per-key flags; flags override the file.
Unknown keys are rejected with the list of valid keys, missing required
keys with an example snippet.

All output is CSV.  Comment lines (``# ...``) record the resolved
configuration (the seed among them) and the subcommand's wall-clock time
(``# wall_ms=``); the body below them is deterministic, so identical
configs produce byte-identical bodies.  The ``# config key=value`` lines,
written to a file without their ``# config`` prefix, replay the run
through ``--config``.

Exit codes: 0 success, 1 usage or config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import designs, ratecheck
from .benchmarks import by_name
from .errors import (
    ConfigError,
    DomainError,
    FitError,
    MetricError,
    ModelFormatError,
    SingularMatrixError,
    TrainingError,
)
from .evaluation import (
    METHODS,
    ModelSpec,
    TuneGrid,
    _experiment_seeds,
    _halton_training,
    benchmark_table,
    cross_validate,
    make_model,
)
# fit and train go unused here, but perfbench/tracer.py patches cli.fit and cli.train
from .gp import fit
from .modelio import load_model, save_model
from .pursuit import PpgprModel, default_node_count, train

__all__ = ["main"]

_USAGE_ERRORS = (ConfigError, DomainError, ModelFormatError)
_NUMERICAL_ERRORS = (SingularMatrixError, FitError, TrainingError, MetricError)


@dataclass(frozen=True)
class Key:
    """One config entry: name, kind (a :data:`_KINDS` entry), default (as
    text), requiredness; the example defaults to ``name=default``."""

    name: str
    kind: str
    default: str | None = None
    required: bool = False
    example: str = ""
    help: str = ""

    def __post_init__(self):
        if not self.example and self.default is not None:
            object.__setattr__(self, "example", f"{self.name}={self.default}")


def _fmt(x) -> str:
    """One CSV cell: floats in round-trip ``repr``, None as an empty cell."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return "" if x is None else str(x)


def _count(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise ValueError("expected a non-negative integer")
    return value


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean (1/0/true/false)")


def _parse_kernels(raw: str) -> tuple:
    """family:nu:phi triples separated by ';' (nu '-' or empty for none)."""
    out = []
    for part in raw.split(";"):
        fields = [f.strip() for f in part.split(":")]
        if len(fields) != 3:
            raise ValueError(f"{part!r} is not family:nu:phi (e.g. matern:2.5:1.0)")
        family, nu, phi = fields
        out.append((family, None if nu in ("", "-") else float(nu), float(phi)))
    return tuple(out)


def _items(parse):
    """Parser of a non-empty comma-separated list whose items ``parse`` reads."""
    def read(raw: str) -> tuple:
        items = tuple(parse(x.strip()) for x in raw.split(",") if x.strip() != "")
        if not items:
            raise ValueError("expected at least one item")
        return items
    return read


def _joined(render, sep=","):
    return lambda values: sep.join(render(v) for v in values)


# key kind -> (parse text, render value); every rendered value parses back.
# Every int key is a count or a seed, so negative integers are rejected.
_KINDS = {
    "str": (str, str),
    "int": (_count, str),
    "float": (float, _fmt),
    "bool": (_parse_bool, str),
    "ints": (_items(_count), _joined(str)),
    "floats": (_items(float), _joined(_fmt)),
    "strs": (_items(str), _joined(str)),
    "kernels": (_parse_kernels,
                _joined(_joined(lambda f: "-" if f is None else _fmt(f), ":"), ";")),
}


def _spec_key(name: str, kind: str, help: str = "") -> Key:
    """A key for a :class:`ModelSpec` field, with the field's default."""
    return Key(name, kind, default=_KINDS[kind][1](getattr(ModelSpec, name)), help=help)


_NODE_COUNT_HELP = "defaults to min(n_train-5, 5d)"
_N_TRAIN_KEY = Key("n_train", "int", example="n_train=40", help="defaults to 5 d")
# each is a ModelSpec field of the same name
_KERNEL_KEYS = [_spec_key("family", "str"), _spec_key("nu", "float"), _spec_key("phi", "float")]
_TRAIN_KEYS = [
    _spec_key("eta", "float"),
    _spec_key("epochs", "int"),
    Key("M", "int", example="M=35", help=_NODE_COUNT_HELP),
    _spec_key("early_stop_rel", "float",
              help="10-epoch relative-improvement threshold; 0 disables early stop"),
    _spec_key("nugget", "float"),
    _spec_key("center", "bool"),
]
_MODEL_KEYS = _KERNEL_KEYS + _TRAIN_KEYS
# the training keys of tune: its grid sets eta and M
_TUNE_TRAIN_KEYS = [k for k in _TRAIN_KEYS if k.name not in ("eta", "M")]

SUBCOMMANDS: dict[str, list[Key]] = {
    "design": [
        Key("generator", "str", required=True, example="generator=halton",
            help=" | ".join(designs.GENERATORS)),
        Key("n", "int", required=True, example="n=40"),
        Key("d", "int", required=True, example="d=8"),
        Key("seed", "int", default="0"),
        Key("out", "str", example="out=design.csv"),
    ],
    "fit": [
        Key("function", "str", required=True, example="function=borehole"),
        Key("method", "str", default="ppgpr", help=" | ".join(METHODS)),
        _N_TRAIN_KEY,
        *_MODEL_KEYS,
        Key("seed", "int", default="0"),
        Key("model_out", "str", required=True, example="model_out=model.txt"),
        Key("trace_out", "str", example="trace_out=trace.csv",
            help="ppgpr only: the per-epoch loss"),
        Key("out", "str", example="out=fit.csv"),
    ],
    "predict": [
        Key("model", "str", required=True, example="model=model.txt"),
        Key("points", "str", required=True, example="points=points.csv"),
        Key("out", "str", example="out=predictions.csv"),
    ],
    "eval-grid": [
        Key("function", "str", required=True, example="function=xy-plus-x2"),
        Key("resolution", "int", default="101"),
        Key("model", "str", example="model=model.txt",
            help="optional: tabulate this model instead of the true function"),
        Key("out", "str", example="out=grid.csv"),
    ],
    "bench-table": [
        Key("functions", "strs", required=True,
            example="functions=borehole,otl-circuit"),
        Key("methods", "strs", required=True,
            example="methods=gp-iso,gp-pro,ppgpr"),
        Key("seeds", "ints", default="0", example="seeds=0,1,2"),
        _N_TRAIN_KEY,
        *_MODEL_KEYS,
        Key("out", "str", example="out=table.csv"),
    ],
    "tune": [
        Key("function", "str", required=True, example="function=borehole"),
        _N_TRAIN_KEY,
        Key("etas", "floats", default="1e-7,1e-8,1e-9,1e-10"),
        Key("Ms", "ints", example="Ms=35", help=_NODE_COUNT_HELP),
        Key("kernels", "kernels", default=_KINDS["kernels"][1](TuneGrid.kernels),
            example="kernels=matern:2.5:1.0;gaussian:-:0.5"),
        Key("folds", "int", default=_KINDS["int"][1](TuneGrid.folds)),
        *_TUNE_TRAIN_KEYS,
        Key("seed", "int", default="0"),
        Key("out", "str", example="out=tune.csv"),
    ],
    "theory-check": [
        Key("structures", "strs", default="additive,isotropic"),
        Key("nu", "float", default="2.5"),
        Key("d", "int", default="2"),
        Key("n_list", "ints", default="10,20,40,80"),
        Key("trials", "int", default="0", example="trials=2",
            help="prior draws per n; 0 skips the sup-error column"),
        Key("nugget", "float", default=_KINDS["float"][1](ratecheck.THEORY_NUGGET)),
        Key("seed", "int", default="0"),
        Key("out", "str", example="out=rates.csv"),
    ],
}


def _text_lines(path: str, what: str) -> Iterator[tuple[int, str]]:
    """(number, stripped text) of each non-blank, non-``#`` line of a UTF-8
    input file; a leading byte-order mark is dropped, not read as text."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from None
    stripped = (line.strip() for line in lines)
    return ((i, s) for i, s in enumerate(stripped, start=1) if s and not s.startswith("#"))


def load_config_file(path: str) -> dict[str, str]:
    """Parse a key=value config file; '#' starts a comment line, and a
    leading byte-order mark is ignored."""
    out: dict[str, str] = {}
    for lineno, stripped in _text_lines(path, "config file"):
        if "=" not in stripped:
            raise ConfigError(
                f"{path}:{lineno}: expected key=value, got {stripped!r}"
            )
        k, v = stripped.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def resolve_config(sub: str, file_cfg: dict[str, str], flag_cfg: dict[str, str]) -> dict:
    """Merge defaults < config file < flags into a typed config dict."""
    keys = SUBCOMMANDS[sub]
    valid = sorted(k.name for k in keys)
    for name in file_cfg:
        if name not in valid:
            raise ConfigError(
                f"unknown config key {name!r} for '{sub}'; valid keys: " + ", ".join(valid)
            )
    raw = {**file_cfg, **{k: v for k, v in flag_cfg.items() if v is not None}}
    missing = [k.name for k in keys if k.required and k.name not in raw]
    if missing:
        snippet = "\n".join(k.example for k in keys if k.example)
        raise ConfigError(
            f"missing required key(s): {', '.join(missing)}"
            f"\nexample config for '{sub}':\n{snippet}"
        )
    resolved: dict = {}
    for key in keys:
        text = raw.get(key.name, key.default)
        try:
            resolved[key.name] = None if text is None else _KINDS[key.kind][0](text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key.name!r}: {text!r} ({exc})") from None
    return resolved


def _header_comments(sub: str, cfg: dict) -> list[str]:
    """``# config`` lines that read back, through ``--config``, to ``cfg``."""
    lines = [f"# ppgp {sub}"]
    for key in sorted(SUBCOMMANDS[sub], key=lambda k: k.name):
        if cfg[key.name] is not None:
            lines.append(f"# config {key.name}={_KINDS[key.kind][1](cfg[key.name])}")
    return lines


def _csv(header: str, rows) -> str:
    """CSV text: the ``header`` line, then one line per row of values."""
    return header + "\n" + "".join(",".join(map(_fmt, row)) + "\n" for row in rows)


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from None


def _read_points_csv(path: str) -> np.ndarray:
    rows = []
    header_allowed = True
    for number, stripped in _text_lines(path, "points file"):
        try:
            rows.append([float(f) for f in stripped.split(",")])
        except ValueError:
            # only the first data line may be a header; a later one is a
            # corrupt row, never silently dropped
            if not header_allowed:
                raise ConfigError(
                    f"non-numeric row on line {number} of {path!r}: {stripped!r}"
                ) from None
        header_allowed = False
    if not rows:
        raise ConfigError(f"no numeric rows found in {path!r}")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ConfigError(f"ragged rows in {path!r}: widths {sorted(widths)}")
    return np.array(rows)


def _spec_fields(cfg: dict, keys: list[Key]) -> dict:
    """The :class:`ModelSpec` fields that ``keys`` name, from a resolved config."""
    return {k.name: cfg[k.name] for k in keys}


def _run_design(cfg: dict) -> tuple[str, list[str]]:
    generate = designs.GENERATORS.get(cfg["generator"])
    if generate is None:
        raise ConfigError(
            f"unknown generator {cfg['generator']!r}; "
            f"valid: {', '.join(designs.GENERATORS)}"
        )
    points = generate(cfg["n"], cfg["d"], cfg["seed"]).points
    return _csv(",".join(f"x{j + 1}" for j in range(points.shape[1])), points), []


def _run_fit(cfg: dict) -> tuple[str, list[str]]:
    spec = ModelSpec(cfg["method"], **_spec_fields(cfg, _MODEL_KEYS))
    if spec.method != "ppgpr" and cfg["trace_out"] is not None:
        raise ConfigError(f"trace_out is for ppgpr: {spec.method} trains no epochs")
    U, Y = _halton_training(by_name(cfg["function"]), cfg["n_train"])
    model = make_model(spec, U, Y, _experiment_seeds(cfg["seed"])[1])
    ppgpr = isinstance(model, PpgprModel)
    comments = [f"# model written to {cfg['model_out']}"]
    # the trace goes first: a trace path that cannot be written leaves no model
    if cfg["trace_out"] is not None:
        _write_text(cfg["trace_out"], _csv("epoch,loss", model.trace))
        comments.append(f"# trace written to {cfg['trace_out']}")
    save_model(model, cfg["model_out"])
    if not ppgpr:
        row = [cfg["method"], cfg["function"], U.shape[0], model.log_likelihood()]
        return _csv("method,function,n_train,loss", [row]), comments
    row = [cfg["method"], cfg["function"], U.shape[0], model.M, model.best_epoch,
           len(model.trace), model.trace[model.best_epoch][1], int(model.diverged)]
    return _csv("method,function,n_train,M,best_epoch,epochs_run,loss,diverged",
                [row]), comments


def _run_predict(cfg: dict) -> tuple[str, list[str]]:
    model = load_model(cfg["model"])
    pts = _read_points_csv(cfg["points"])
    d = model.dim
    if pts.shape[1] != d:
        raise ConfigError(
            f"points have {pts.shape[1]} columns but the model expects {d}"
        )
    outside = ~((pts >= 0.0) & (pts <= 1.0))
    if np.any(outside):
        i, j = np.argwhere(outside)[0]
        raise ConfigError(
            f"data row {i + 1}, column x{j + 1} of {cfg['points']!r} is "
            f"{float(pts[i, j])!r}, outside the unit cube [0, 1]"
        )
    header = ",".join([*(f"x{j + 1}" for j in range(d)), "prediction"])
    return _csv(header, ([*row, p] for row, p in zip(pts, model.predict(pts)))), []


def _run_eval_grid(cfg: dict) -> tuple[str, list[str]]:
    fn = by_name(cfg["function"])
    if fn.dim != 2:
        raise ConfigError(
            f"eval-grid needs a 2-input function, {cfg['function']!r} has {fn.dim}"
        )
    res = cfg["resolution"]
    if res < 2:
        raise ConfigError("resolution must be at least 2")
    axis = np.linspace(0.0, 1.0, res)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([g1.ravel(), g2.ravel()], axis=1)
    if cfg["model"] is not None:
        vals = load_model(cfg["model"]).predict(pts)
        source = "model"
    else:
        vals = fn.eval_unit(pts)
        source = "function"
    body = _csv("x1,x2,value", ([u1, u2, v] for (u1, u2), v in zip(pts, vals)))
    return body, [f"# values from {source}"]


def _run_bench_table(cfg: dict) -> tuple[str, list[str]]:
    fields = _spec_fields(cfg, _MODEL_KEYS)
    specs = [ModelSpec(method, **fields) for method in cfg["methods"]]
    reports = benchmark_table(cfg["functions"], specs, cfg["seeds"], n_train=cfg["n_train"])
    header = ("function,method,seed,n_train,n_test,family,nu,phi,eta,epochs,M,"
              "centered,diverged,rmse,rmse_abs")
    rows = []
    for r in reports:
        s = r.spec
        training = (s.eta, s.epochs, s.M) if s.method == "ppgpr" else (None,) * 3
        rows.append([r.function, s.method, r.seed, r.n_train, r.n_test, s.family, s.nu,
                     s.phi, *training, int(s.center), int(r.diverged), r.rmse, r.rmse_abs])
    return _csv(header, rows), []


def _run_tune(cfg: dict) -> tuple[str, list[str]]:
    U, Y = _halton_training(by_name(cfg["function"]), cfg["n_train"])
    Ms = (default_node_count(*U.shape),) if cfg["Ms"] is None else cfg["Ms"]
    grid = TuneGrid(etas=cfg["etas"], Ms=Ms, kernels=cfg["kernels"], folds=cfg["folds"])
    best, table = cross_validate(
        U, Y, grid, cfg["seed"], **_spec_fields(cfg, _TUNE_TRAIN_KEYS)
    )
    rows = [["fold", row["grid_index"], row["eta"], row["M"], row["family"],
             row["nu"], row["phi"], row["fold"], row["rmse"], None] for row in table]
    rows.append(["best", None, best["eta"], best["M"], *best["kernel"],
                 None, None, best["mean_rmse"]])
    return _csv("kind,grid_index,eta,M,family,nu,phi,fold,rmse,mean_rmse", rows), []


def _run_theory_check(cfg: dict) -> tuple[str, list[str]]:
    out = []
    for structure in cfg["structures"]:
        rows = ratecheck.sup_error_curve(
            structure, cfg["nu"], cfg["d"], cfg["n_list"],
            trials=cfg["trials"], seed=cfg["seed"], nugget=cfg["nugget"],
        )
        out += [["curve", structure, None, row.n, row.max_p,
                 None if np.isnan(row.sup_err) else row.sup_err, None, None, None]
                for row in rows]
        fits = [("max_p", [(r.n, r.max_p) for r in rows])]
        if cfg["trials"] > 0:
            fits.append(("sup_err", [(r.n, r.sup_err) for r in rows]))
        for metric, pairs in fits:
            rf = ratecheck.rate_fit(pairs)
            out.append(["fit", structure, metric, None, None, None,
                        rf.slope, rf.intercept, rf.r2])
    return _csv("record,structure,metric,n,max_p,sup_err,slope,intercept,r2", out), []


_RUNNERS = {
    "design": _run_design,
    "fit": _run_fit,
    "predict": _run_predict,
    "eval-grid": _run_eval_grid,
    "bench-table": _run_bench_table,
    "tune": _run_tune,
    "theory-check": _run_theory_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppgp",
        description="Gaussian-process and projection-pursuit surrogate modeling.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, keys in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=f"{name} (keys: {', '.join(k.name for k in keys)})")
        p.add_argument("--config", default=None, help="key=value config file")
        for key in keys:
            p.add_argument(
                f"--{key.name.replace('_', '-')}",
                dest=f"key_{key.name}",
                default=None,
                help=(key.help or key.kind)
                + ("" if key.default is None else f" (default {key.default})"),
            )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; remap to our usage code
        return 0 if exc.code in (0, None) else 1
    sub = args.subcommand
    try:
        file_cfg = {} if args.config is None else load_config_file(args.config)
        flag_cfg = {
            k[len("key_"):]: v for k, v in vars(args).items() if k.startswith("key_")
        }
        cfg = resolve_config(sub, file_cfg, flag_cfg)
        t0 = time.perf_counter()
        body, extra = _RUNNERS[sub](cfg)
        wall_ms = 1e3 * (time.perf_counter() - t0)
        comments = [*_header_comments(sub, cfg), f"# wall_ms={wall_ms:.1f}", *extra]
        text = "".join(c + "\n" for c in comments) + body
        if cfg["out"] is None:
            sys.stdout.write(text)
        else:
            _write_text(cfg["out"], text)
        return 0
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
