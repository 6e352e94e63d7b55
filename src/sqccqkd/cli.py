"""Command-line front end: sweeps, optimisation, simulation, figure data.

Every run writes one header-bearing CSV (or JSON array) whose rows echo all
inputs, so each artifact is self-describing.  Output is byte-identical for
identical configuration and seed.  Exit codes: 0 success (a failing point
becomes a flagged row), 1 the run could not finish, 2 usage error.

``_OPTIONS`` declares every option once; ``_merge`` returns their values
keyed by dest, which is also the config-file key and the CSV column.
``_COMMANDS`` gives each command its columns, its input points and the
batch step computing their cells from the inputs each point echoes.
The rate commands evaluate all their points together, through the
lockstep V search and one kernel call for the diagnostics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .channel import (
    ChannelParams,
    ProtocolParams,
    _shared_state,
    attenuation_db_to_transmissivity,
)
from .errors import Checks, DomainError, SqccError
from .finitekey import SecurityParams
from .gaussian import _check_finite
from .keyrate import _lockstep, _Rows
from .montecarlo import (_MAX_SHOTS, RNG_ALGORITHM, ShotChunk, _disclosed, estimate,
                         shot_chunks)
from .postprocess import RenormStrategy, _moments, _snr

__all__ = ["main"]

OUTPUT_DIR_ENV = "SQCCQKD_OUTPUT_DIR"

_DEFAULT_BLOCK = 1e8  # sweep-finite's block size when no N is given

# the commands that take an option
_RATE = ("sweep-asymptotic", "sweep-finite", "optimize", "compare-baseline")
_GRID = _RATE + ("simulate",)
_ALL = _GRID + ("validate-fig2",)
_SWEEPS = ("sweep-asymptotic", "sweep-finite")
_FINITE = ("sweep-finite", "optimize")
_SHOTS = ("simulate", "validate-fig2")
_SIM = ("simulate",)

_T_ALTERNATIVES = ("T", "db", "t_grid")  # one of them gives the transmissivities


def _parse_t_grid(descriptor: str) -> list[float]:
    """Parse 'log:lo:hi:n' or 'lin:lo:hi:n' grid descriptors."""
    try:
        kind, lo, hi, n = descriptor.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:  # not four fields, or one that is not a number
        kind, lo, hi, n = "", 0.0, 0.0, 0
    if kind not in ("log", "lin") or not 0.0 < lo < hi < math.inf or n < 2:
        raise argparse.ArgumentTypeError("grid must look like log:0.01:0.9:50 (finite "
                                         f"0 < lo < hi, n >= 2), got {descriptor!r}")
    if kind == "log":  # libm exp: numpy's SIMD exp would make T depend on the CPU
        step = (math.log(hi) - math.log(lo)) / (n - 1)  # hi / lo may overflow
        return [lo * math.exp(step * i) for i in range(n - 1)] + [hi]
    return list(np.linspace(lo, hi, n))


@dataclass(frozen=True)
class _Option:
    """One option; ``dest`` is also its config-file key."""

    dest: str
    type: Callable = float  # converts the flag's text; bool makes a switch
    many: bool = False  # takes a list
    default: object = None  # None leaves the value unset
    commands: tuple[str, ...] = _GRID
    flag: str = ""  # if not --dest
    choices: tuple[str, ...] | None = None
    help: str | None = None
    check: Callable | None = None  # raises DomainError on a set value or a list's item


def _require(ok: Callable[[float], bool], message: str) -> Callable[[float], None]:
    """The check that raises ``message``, formatted with the value, where ``ok`` fails."""
    def check(value):
        if not ok(value):
            raise DomainError(message.format(value))

    return check


def _security(field: str) -> Callable[[float], None]:
    """The check of one SecurityParams field, set alone."""
    return lambda value: SecurityParams(math.inf, **{field: value})


_EPS = ("eps_pe", "eps_s", "eps_h", "eps_ent", "eps_qrng", "eps_ir", "eps_cal")
# security option -> the SecurityParams field it sets; unset ones keep its default
_SECURITY = {"p_f": "frame_success", "d_rx": "discretization_bits", **{k: k for k in _EPS}}

# checked in this order: of two bad values, the earlier option's is reported
_OPTIONS = (
    _Option("db", many=True, default=(), check=attenuation_db_to_transmissivity,
            help="attenuation value(s) in dB (converted to T)"),
    _Option("t_grid", _parse_t_grid, commands=_RATE, flag="--T-grid",
            help="grid descriptor log:lo:hi:n"),
    _Option("p_f", commands=_FINITE, check=_security("frame_success"),
            help="frame success probability"),
    _Option("d_rx", int, commands=_FINITE, check=_security("discretization_bits"),
            help="discretization bits"),
    *(_Option(key, commands=_FINITE, check=_security(key)) for key in _EPS),
    _Option("N", many=True, default=(), commands=_FINITE,
            check=_require(lambda n: 2 <= n < math.inf,
                           "N must be >= 2 and finite, got {}"),
            help="block size(s)"),
    _Option("T", many=True, default=(0.1,), check=ChannelParams,
            help="transmissivity value(s)"),
    _Option("eps", default=0.05, check=lambda x: ChannelParams(1.0, x),
            help="channel excess noise"),
    _Option("sigma", default=0.0, check=lambda x: ChannelParams(1.0, 0.0, x),
            help="phase-noise factor (0 disables)"),
    _Option("V", default=5.0, commands=_SWEEPS + _SIM, check=ProtocolParams,
            help="fixed modulation variance"),
    _Option("beta", default=0.95, commands=_RATE,
            check=lambda x: ProtocolParams(1.0, 0.0, x), help="reconciliation efficiency"),
    _Option("W", many=True, default=(0.5,), commands=_RATE,
            check=_require(lambda w: 0.0 < w <= 0.5, "W must be in (0, 0.5], got {}"),
            help="classical QoS bit-error threshold(s)"),
    _Option("seed", int, default=42, commands=_SHOTS,
            check=_require(lambda seed: seed >= 0, "seed must be >= 0, got {}")),
    _Option("disclose", commands=_SIM,
            check=_require(lambda f: 0.0 < f < 1.0,
                           "disclose fraction must be in (0, 1), got {}"),
            help="run the estimation pipeline with this disclosed fraction"),
    _Option("strategy", str, default="b-preserving", commands=_RATE,
            choices=tuple(s.value for s in RenormStrategy)),
    _Option("config", str, commands=_ALL, help="JSON file with flat key/value defaults"),
    _Option("output", str, default="", commands=_ALL,
            help="artifact file path"),
    _Option("fmt", str, default="csv", commands=_ALL, flag="--format",
            choices=("csv", "json")),
    _Option("optimize_v", bool, default=False, commands=_SWEEPS,
            help="maximise the rate over V at each point"),
    _Option("d", many=True, default=(), commands=_SHOTS,
            check=lambda x: ProtocolParams(1.0, x), help="displacement(s)"),
    _Option("n", int, default=100_000, commands=_SHOTS,
            check=_require(lambda n: 2 <= n <= _MAX_SHOTS,
                           f"n must be >= 2 and <= {_MAX_SHOTS}, got {{}}"),
            help="shots per point"),
    _Option("symbol", str, default="uniform-random", commands=_SIM,
            choices=("uniform-random", "1", "2", "3", "4"),
            help="'uniform-random' or a fixed index"),
    _Option("shots_output", str, default="", commands=_SIM,
            help="also dump per-shot scatter data to this CSV"),
)


def _fmt(value) -> str:
    """Full-precision, roundtrip-stable cell rendering."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_cell(value):
    """JSON has no NaN or infinity: a non-finite float is written as null."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _artifact_path(config: dict) -> str:
    return config["output"] or os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."),
                                            f"{config['command']}.{config['fmt']}")


def _write_rows(rows: list[dict], columns: list[str], config: dict) -> str:
    path = _artifact_path(config)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        if config["fmt"] == "json":
            json.dump([{k: _json_cell(row.get(k, "")) for k in columns} for row in rows],
                      fh, indent=2, default=_fmt, allow_nan=False)
            fh.write("\n")
        else:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows([_fmt(row.get(k, "")) for k in columns] for row in rows)
    return path


def _grid(config: dict, **extra) -> Iterator[dict]:
    """The N x T x W points of a rate command; N is blank if none is given."""
    for n in config["N"] or [""]:
        for t in config["T"]:
            for w in config["W"]:
                yield {"T": t, "W": w, "N": n, **extra}


def _batches(config: dict, d_default: list[float]) -> Iterator[dict]:
    """One seeded Monte Carlo batch per displacement, at the run's one T."""
    for i, d in enumerate(config["d"] or d_default):
        yield {"T": config["T"][0], "d": d, "n": config["n"], "seed": config["seed"] + i,
               "rng": RNG_ALGORITHM, "schedule": str(config["symbol"])}


def _rows(config: dict, points: list[dict], model: str = "sqcc") -> _Rows:
    """The run's kernel rows for ``model``: each point's channel and threshold and,
    where the points have an N, the run's SecurityParams at that N."""
    # every point of a command has an N, or none has
    secs = [config["security"][p["N"]] for p in points if p["N"]]
    return _Rows([ChannelParams(p["T"], p["eps"], p["sigma"]) for p in points],
                 [p["W"] for p in points], config["strategy"], points[0]["beta"], model,
                 secs or None)


def _optima(rows: _Rows, suffix: str = "") -> list[dict | SqccError]:
    """Each row's optimum over V as cells, their names ending in ``suffix``, or the
    error its search stopped at."""
    names = [name + suffix for name in
             ("v_star", "k_star", "evaluations", "bracket_low", "bracket_high")]
    return [opt if isinstance(opt, SqccError) else
            dict(zip(names, (opt.v_star, opt.k_star, opt.evaluations, *opt.bracket)))
            for opt in _lockstep(rows.scores, len(rows))]


def _sweep_rows(config: dict, points: list[dict]) -> list[dict | SqccError]:
    """Pipeline diagnostics at the fixed or optimal V; points with an N add K^F.
    The V search and the diagnostics share one set of kernel rows."""
    rows = _rows(config, points)
    out = _optima(rows) if config["optimize_v"] else [{} for _ in points]
    live = np.flatnonzero([isinstance(row, dict) for row in out])
    # the optimal V where the search found a key, else the fixed one
    v = [out[i]["v_star"] if math.isfinite(out[i].get("v_star", math.nan))
         else points[i]["V"] for i in live.tolist()]
    cells, checks = rows.cells(live, np.array(v))
    cells = {name: values.tolist() for name, values in cells.items()}
    for j, i in enumerate(live.tolist()):
        error = checks.error(j)
        if error is not None:
            out[i] = error
            continue
        out[i].update((name, values[j]) for name, values in cells.items())
        if points[i]["N"]:
            out[i]["epsilon_total"] = config["security"][points[i]["N"]].epsilon_total()
    return out


def _compare_rows(config: dict, points: list[dict]) -> list[dict | SqccError]:
    new, old = (_optima(_rows(config, points, model), "_" + model)
                for model in ("sqcc", "baseline"))
    return [n if isinstance(n, SqccError) else o if isinstance(o, SqccError) else
            {**n, **o, "advantage": n["k_star_sqcc"] >= o["k_star_baseline"]}
            for n, o in zip(new, old)]


def _each(row: Callable[[dict, dict], dict]):
    """The batch step that computes each point on its own with ``row``."""
    def rows(config: dict, points: list[dict]) -> list[dict | SqccError]:
        out = []
        for point in points:
            try:
                out.append(row(config, point))
            except SqccError as exc:
                out.append(exc)
        return out

    return rows


def _dumped(chunks: Iterator[ShotChunk], path: str) -> Iterator[ShotChunk]:
    """The chunks, each written to the shots CSV at ``path`` (opened on the first
    one) as it passes; a float is written as its ``repr``, as the csv module does."""
    line = "%d,%r,%r,%r,%r,%r,%r,%d,%d\r\n"
    with open(path, "w", newline="") as fh:
        fh.write("shot,alice_x,alice_y,bob_raw_x,bob_raw_y,"
                 "bob_post_x,bob_post_y,true_symbol,decided_symbol\r\n")
        for chunk in chunks:
            columns = (*chunk.joint[:, :2].T, *chunk.bob_raw.T, *chunk.joint[:, 2:].T,
                       chunk.true_symbols, chunk.decided_symbols)
            fh.writelines(map(line.__mod__, zip(
                range(chunk.start, chunk.start + len(chunk.joint)),
                *(column.tolist() for column in columns))))
            yield chunk


def _sampled(config: dict, p: dict) -> dict:
    """Analytic and empirical moment cells of one seeded batch, streamed in one pass."""
    proto = ProtocolParams(p["V"], p["d"])
    chan = ChannelParams(p["T"], p["eps"], p["sigma"])
    checks = Checks()
    with np.errstate(all="ignore"):
        _, b, c = _shared_state(checks, p["V"], p["d"], p["T"], p["eps"], p["sigma"])
        td2, snr = _snr(p["T"], p["d"], b)
        e_c, _, b_d, c_d = _moments(checks, td2, snr, b, c)
        _check_finite(checks, b_d, c_d, names=("b_d", "c_d"))
    checks.raise_first()
    chunks = shot_chunks(proto, chan, config["symbol"], p["n"], p["seed"])
    if config["shots_output"]:
        chunks = _dumped(chunks, config["shots_output"])
    m, est = estimate(chunks, p["n"], config["disclose"])
    cells = {
        "snr": float(snr), "e_C": float(e_c),
        "a_d": p["V"], "b_d": float(b_d), "c_d": float(c_d),
        "a_hat": m.a_hat, "a_se": m.a_se, "b_hat": m.b_hat, "b_se": m.b_se,
        "c_hat": m.c_hat, "c_se": m.c_se, "e_C_hat": m.e_c_hat, "e_C_se": m.e_c_se,
        "mean_bx_hat": float(m.mean_hat[2]), "mean_bx_se": float(m.mean_se[2]),
        "mean_by_hat": float(m.mean_hat[3]), "mean_by_se": float(m.mean_se[3]),
    }
    if est is not None:
        cells.update(snr_hat=est.snr_hat, delta_v_hat=est.delta_v_hat)
    return cells


def _fig2_row(config: dict, p: dict) -> dict:
    """Analytic vs simulated postprocessed moments at one reference displacement."""
    row = _sampled(config, p)
    binom_se = math.sqrt(max(row["e_C"] * (1.0 - row["e_C"]), 1e-12) / (2 * p["n"]))
    checks = {f"{q}_pass": abs(row[f"{q}_hat"] - row[f"{q}_d"]) <= 5.0 * row[f"{q}_se"]
              for q in "abc"}
    checks["e_C_pass"] = abs(row["e_C_hat"] - row["e_C"]) <= 5.0 * binom_se
    return {**row, **checks, "pass": all(checks.values())}


@dataclass(frozen=True)
class _Command:
    help: str
    columns: list[str]
    points: Callable[[dict], Iterator[dict]]  # the input cells of each row
    # the computed cells of each point, or the error that flags it
    rows: Callable[[dict, list[dict]], list[dict | SqccError]]


_INPUT_COLUMNS = "T W V d eps beta sigma strategy "
_DIAG_COLUMNS = " snr e_C delta a_d b_d c_d delta_v I_AB chi_EB K feasible error"
_MOMENT_COLUMNS = " snr e_C a_d b_d c_d a_hat a_se b_hat b_se c_hat c_se e_C_hat e_C_se"
# the reference operating point of the moment-validation sweep, which no config-file
# value changes.  One fixed symbol: the analytic moments describe a single classical
# sub-ensemble, and by symmetry every sub-ensemble matches.
_FIG2 = {"V": 5.0, "T": [0.1], "eps": 0.05, "sigma": 0.0, "symbol": 1}

_COMMANDS = {
    "sweep-asymptotic": _Command(
        "asymptotic rates over a grid",
        (_INPUT_COLUMNS + "v_star k_star" + _DIAG_COLUMNS).split(),
        _grid, _sweep_rows),
    "sweep-finite": _Command(
        "finite-block rates over a grid",
        (_INPUT_COLUMNS + "N v_star k_star" + _DIAG_COLUMNS
         + " K_PE K_F ell epsilon_total").split(),
        _grid, _sweep_rows),
    "optimize": _Command(
        "maximise the rate over V at each point",
        ("T W eps beta sigma strategy model N v_star k_star evaluations"
         " bracket_low bracket_high error").split(),
        lambda c: _grid(c, model="sqcc"), lambda c, points: _optima(_rows(c, points))),
    "simulate": _Command(
        "Monte Carlo moments at given displacement(s)",
        (_INPUT_COLUMNS + "n seed rng schedule" + _MOMENT_COLUMNS + " mean_bx_hat"
         " mean_bx_se mean_by_hat mean_by_se snr_hat delta_v_hat error").split(),
        lambda c: _batches(c, [c["V"]]),
        _each(_sampled)),
    "validate-fig2": _Command(
        "analytic vs empirical moments on the reference sweep",
        ("d n seed rng V T eps" + _MOMENT_COLUMNS
         + " a_pass b_pass c_pass e_C_pass pass error").split(),
        lambda c: _batches(c, [float(x) for x in range(0, 21, 2)]),
        _each(_fig2_row)),
    "compare-baseline": _Command(
        "optimised rate vs the prior coupling model",
        ("T W eps beta sigma v_star_sqcc k_star_sqcc v_star_baseline k_star_baseline"
         " advantage error").split(),
        _grid, _compare_rows),
}


def _run(config: dict) -> int:
    """Execute one command; writes the artifact file and returns the exit code.

    Every row echoes the inputs.  A point whose computation fails with a
    package error becomes a flagged row: the inputs, ``feasible`` false and
    the message in ``error``.  An error of the whole batch flags every row.
    """
    command = _COMMANDS[config["command"]]
    inputs = {key: config[key] for key in ("V", "eps", "beta", "sigma")}
    points = [{**inputs, "strategy": config["strategy"].value, **point}
              for point in command.points(config)]
    try:
        results = command.rows(config, points)
    except SqccError as exc:
        results = [exc] * len(points)
    rows, failed = [], 0
    for point, cells in zip(points, results):
        if isinstance(cells, SqccError):
            failed += 1
            cells = {"feasible": False, "error": str(cells)}
        rows.append({**point, **cells})
    if failed:
        print(f"warning: {failed} row(s) failed and were flagged", file=sys.stderr)
    path = _write_rows(rows, command.columns, config)
    print(f"wrote {len(rows)} row(s) to {path}")
    return 0


@functools.cache  # built on the first main() call, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqccqkd",
        description="Secret-key rates and Monte Carlo validation for "
                    "simultaneous quantum-classical CV-QKD.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for opt in (o for o in _OPTIONS if name in o.commands):
            kind = ({"action": "store_true"} if opt.type is bool else
                    {"type": opt.type, "choices": opt.choices,
                     "nargs": "+" if opt.many else None})
            p.add_argument(opt.flag or "--" + opt.dest.replace("_", "-"), dest=opt.dest,
                           default=None, help=opt.help, **kind)
    return parser


def _file_value(opt: _Option, value):
    """A config-file value, type-checked and converted like the matching flag.

    Switches and free-text options take JSON booleans and strings only; any
    other value goes through the option's converter as text.
    """
    exact = opt.type is bool or opt.type is str and not opt.choices
    try:
        if opt.many != isinstance(value, list):
            raise TypeError("expected a list" if opt.many else "expected one value")
        items = []
        for item in value if opt.many else [value]:
            if exact and type(item) is not opt.type:
                raise TypeError(f"expected a {opt.type.__name__}, got {item!r}")
            items.append(opt.type(item if exact else str(item)))
            if opt.choices and items[-1] not in opt.choices:
                raise ValueError(f"expected one of {opt.choices}, got {item!r}")
    except (TypeError, ValueError, OverflowError, argparse.ArgumentTypeError) as exc:
        raise DomainError(f"config key {opt.dest!r}: {exc}") from None
    return items if opt.many else items[0]


@contextlib.contextmanager
def _naming(file_keys, *keys: str):
    """A DomainError raised inside names the first of ``keys`` whose value the
    config file gave; an error about flag or default values is left as it is."""
    try:
        yield
    except DomainError as exc:
        key = next((k for k in keys if k in file_keys), None)
        if key is None:
            raise
        raise DomainError(f"config key {key!r}: {exc}") from None


def _merge(args: argparse.Namespace) -> dict:
    """CLI flags override config-file values, which override the table's defaults.

    A null value or an empty list counts as not given, and a file value of
    another command's option is type-checked, then ignored.  Each option's
    check, then each rule across options, runs here, so bad input exits as a
    usage error before any row runs; a file value's error names its key.
    Returns the option values keyed by dest, plus ``command`` and ``security``
    (the SecurityParams of each N), with ``strategy`` as a RenormStrategy.
    """
    flags = {k: v for k, v in vars(args).items() if v is not None}
    file_values = {}
    if "config" in flags:
        try:
            with open(flags["config"]) as fh:
                file_values = json.load(fh)
        except (OSError, ValueError) as exc:
            raise DomainError(f"cannot read config file: {exc}") from None
        if not isinstance(file_values, dict):
            raise DomainError("config file must hold a flat JSON object")
        unknown = [key for key in file_values if key not in {o.dest for o in _OPTIONS}]
        if unknown:
            raise DomainError(f"config key {unknown[0]!r} names no option")
    given = {}
    for opt in _OPTIONS:
        if file_values.get(opt.dest) not in (None, []):
            value = _file_value(opt, file_values[opt.dest])
            if flags["command"] in opt.commands:
                given[opt.dest] = value
    named = functools.partial(_naming, given.keys() - flags.keys())
    given.update(flags)

    if sum(k in given for k in _T_ALTERNATIVES) > 1:
        raise DomainError("T, db and T-grid are mutually exclusive")
    t_key = next((k for k in _T_ALTERNATIVES if k in given), "T")
    if "t_grid" in given:
        given["T"] = given["t_grid"]
    values = {opt.dest: given.get(opt.dest, opt.default) for opt in _OPTIONS}
    values.update({opt.dest: [float(v) for v in values[opt.dest]]
                   for opt in _OPTIONS if opt.many})
    if values["symbol"] != "uniform-random":
        values["symbol"] = int(values["symbol"])
    if flags["command"] == "sweep-finite" and not values["N"]:
        values["N"] = [_DEFAULT_BLOCK]

    for opt in _OPTIONS:
        value = values[opt.dest]
        if opt.check is not None and value is not None and flags["command"] in opt.commands:
            with named(t_key if opt.dest == "T" else opt.dest):
                for item in value if opt.many else [value]:
                    opt.check(item)
        if opt.dest == "db" and value:  # the T it gives is checked at T's turn
            values["T"] = [attenuation_db_to_transmissivity(db) for db in value]
    fields = {_SECURITY[k]: values[k] for k in _SECURITY if values[k] is not None}
    with named(*_EPS):  # the seven epsilons, each in range, sum below 1
        SecurityParams(math.inf, **fields)
    with named("N", "p_f"):  # p_f N >= 1 at each N
        security = {n: SecurityParams(n, **fields) for n in values["N"]}
    if flags["command"] in _SIM and len(values["T"]) > 1:
        with named(t_key):
            raise DomainError(
                f"simulate runs at one T, got {len(values['T'])} transmissivities")
    if values["disclose"] is not None:
        with named("disclose", "n"):
            _disclosed(values["disclose"], values["n"])
    if values["shots_output"] and len(values["d"]) > 1:
        with named("d", "shots_output"):
            raise DomainError(f"--shots-output holds the shots of one displacement, "
                              f"got {len(values['d'])} displacements")
    shots = values["shots_output"]  # given to simulate only
    if shots:
        artifact = _artifact_path({**values, "command": flags["command"]})
        if os.path.realpath(shots) == os.path.realpath(artifact):
            with named("shots_output"):
                raise DomainError(f"shots_output {shots!r} names the artifact's file "
                                  f"{artifact!r}; the artifact would overwrite the shots")
    if flags["command"] == "validate-fig2":
        values.update(_FIG2)
    return {**values, "command": flags["command"], "security": security,
            "strategy": RenormStrategy(values["strategy"])}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge(args)
    except SqccError as exc:
        parser.error(str(exc))  # exits 2
    try:
        return _run(config)
    except (SqccError, OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
