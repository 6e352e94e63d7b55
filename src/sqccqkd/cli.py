"""Command-line front end: sweeps, optimisation, simulation, figure data.

Every run writes one header-bearing CSV (or JSON array) whose rows echo all
inputs, so each artifact is self-describing.  Output is byte-identical for
identical configuration and seed.  Exit codes: 0 success (a failing point
becomes a flagged row), 1 the run could not finish, 2 usage error.

``_OPTIONS`` declares every option once; ``_COMMANDS`` gives each command
its columns, its input points and the batch step computing their cells.
The rate commands evaluate all their points together, through the
lockstep V search and one kernel call for the diagnostics.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .channel import ChannelParams, ProtocolParams, attenuation_db_to_transmissivity
from .errors import DomainError, SqccError
from .finitekey import SecurityParams
from .keyrate import optimise_rows, rate_rows
from .montecarlo import (
    RNG_ALGORITHM,
    discriminate_and_redisplace,
    empirical_moments,
    estimation_pipeline,
    sample_joint,
)
from .postprocess import RenormStrategy, postprocess_stats

__all__ = ["RunConfig", "run", "main"]

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
    parts = descriptor.split(":")
    if len(parts) != 4 or parts[0] not in ("log", "lin"):
        raise argparse.ArgumentTypeError(
            f"grid must look like log:0.01:0.9:50, got {descriptor!r}")
    kind, lo, hi, n = parts[0], float(parts[1]), float(parts[2]), int(parts[3])
    if not (0.0 < lo < hi) or n < 2:
        raise argparse.ArgumentTypeError(f"invalid grid bounds in {descriptor!r}")
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
    field: str = ""  # the RunConfig field it fills
    flag: str = ""  # if not --dest
    choices: tuple[str, ...] | None = None
    help: str | None = None


# security option -> the SecurityParams field it sets; unset ones keep its default
_SECURITY = {"p_f": "frame_success", "d_rx": "discretization_bits",
             **{key: key for key in ("eps_pe", "eps_s", "eps_h", "eps_ent", "eps_qrng",
                                     "eps_ir", "eps_cal")}}

_OPTIONS = (
    _Option("T", many=True, default=(0.1,), field="t_values",
            help="transmissivity value(s)"),
    _Option("db", many=True, default=(),
            help="attenuation value(s) in dB (converted to T)"),
    _Option("t_grid", _parse_t_grid, flag="--T-grid", help="grid descriptor log:lo:hi:n"),
    _Option("W", many=True, default=(0.5,), commands=_RATE, field="w_values",
            help="classical QoS bit-error threshold(s)"),
    _Option("eps", default=0.05, field="excess_noise", help="channel excess noise"),
    _Option("beta", default=0.95, field="beta", help="reconciliation efficiency"),
    _Option("sigma", default=0.0, field="sigma", help="phase-noise factor (0 disables)"),
    _Option("strategy", str, default="b-preserving", field="strategy",
            choices=tuple(s.value for s in RenormStrategy)),
    _Option("mi_double", bool, default=False, commands=_RATE, field="mi_double",
            help="double the mutual information (dual-quadrature count)"),
    _Option("config", str, commands=_ALL, help="JSON file with flat key/value defaults"),
    _Option("output", str, default="", commands=_ALL, field="output",
            help="artifact file path"),
    _Option("fmt", str, default="csv", commands=_ALL, field="fmt", flag="--format",
            choices=("csv", "json")),
    _Option("V", default=5.0, commands=_SWEEPS + _SIM, field="modulation_variance",
            help="fixed modulation variance"),
    _Option("optimize_v", bool, default=False, commands=_SWEEPS, field="optimize_v",
            help="maximise the rate over V at each point"),
    _Option("N", many=True, default=(), commands=_FINITE, field="block_sizes",
            help="block size(s); optimize takes the first"),
    _Option("p_f", commands=_FINITE, help="frame success probability"),
    _Option("d_rx", int, commands=_FINITE, help="discretization bits"),
    *(_Option(key, commands=_FINITE) for key in _SECURITY if key.startswith("eps_")),
    _Option("d", many=True, default=(), commands=_SHOTS, field="d_values",
            help="displacement(s)"),
    _Option("n", int, default=100_000, commands=_SHOTS, field="n_shots",
            help="shots per point"),
    _Option("seed", int, default=42, commands=_SHOTS, field="seed"),
    _Option("symbol", str, default="uniform-random", commands=_SIM,
            field="symbol_schedule", choices=("uniform-random", "1", "2", "3", "4"),
            help="'uniform-random' or a fixed index"),
    _Option("disclose", commands=_SIM, field="disclose_fraction",
            help="run the estimation pipeline with this disclosed fraction"),
    _Option("shots_output", str, default="", commands=_SIM, field="shots_output",
            help="also dump per-shot scatter data to this CSV"),
)


@dataclass
class RunConfig:
    """Fully resolved run description (flags merged over config-file values).

    ``_merge`` fills each field from the option naming it in ``_OPTIONS``.
    ``security`` carries every security option; each ``block_sizes`` entry
    replaces its block size in turn.
    """

    command: str
    t_values: list[float]
    w_values: list[float]
    excess_noise: float
    beta: float
    sigma: float
    strategy: RenormStrategy
    modulation_variance: float
    optimize_v: bool
    mi_double: bool
    block_sizes: list[float]
    security: SecurityParams
    d_values: list[float]
    n_shots: int
    seed: int
    symbol_schedule: str | int
    disclose_fraction: float | None
    output: str
    fmt: str
    shots_output: str

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise DomainError(f"unknown command {self.command!r}")
        if self.fmt not in ("csv", "json"):
            raise DomainError(f"output format must be csv or json, got {self.fmt!r}")
        self.strategy = RenormStrategy(self.strategy)


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


def _write_rows(rows: list[dict], columns: list[str], config: RunConfig) -> str:
    path = config.output or os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."),
                                         f"{config.command}.{config.fmt}")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        if config.fmt == "json":
            json.dump([{k: _json_cell(row.get(k, "")) for k in columns} for row in rows],
                      fh, indent=2, default=_fmt, allow_nan=False)
            fh.write("\n")
        else:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows([_fmt(row.get(k, "")) for k in columns] for row in rows)
    return path


def _grid(config: RunConfig, **extra) -> Iterator[dict]:
    """The T x W points of a rate command."""
    for t in config.t_values:
        for w in config.w_values:
            yield {"T": t, "W": w, **extra}


def _batches(config: RunConfig, d_default: list[float], **extra) -> Iterator[dict]:
    """One seeded Monte Carlo batch per displacement."""
    for i, d in enumerate(config.d_values or d_default):
        yield {"d": d, "n": config.n_shots, "seed": config.seed + i,
               "rng": RNG_ALGORITHM, **extra}


def _rate_inputs(config: RunConfig, points: list[dict]):
    """Each point's channel, threshold and, where it has an N, SecurityParams."""
    chans = [ChannelParams(p["T"], config.excess_noise, config.sigma) for p in points]
    secs = [dataclasses.replace(config.security, block_size=p["N"]) for p in points
            if p.get("N")]  # every point of a command has an N, or none has
    return chans, [p["W"] for p in points], secs or None


def _sweep_rows(config: RunConfig, points: list[dict]) -> list[dict | SqccError]:
    """Pipeline diagnostics at the fixed or optimal V; points with an N add K^F."""
    chans, thresholds, secs = _rate_inputs(config, points)
    out = [{} for _ in points]
    v = [config.modulation_variance] * len(points)
    if config.optimize_v:
        opts = optimise_rows(chans, thresholds, config.strategy, config.beta,
                             mi_double=config.mi_double, secs=secs)
        for i, opt in enumerate(opts):
            if isinstance(opt, SqccError):
                out[i] = opt
                continue
            out[i] = {"v_star": opt.v_star, "k_star": opt.k_star}
            if math.isfinite(opt.v_star):
                v[i] = opt.v_star
    live = [i for i, row in enumerate(out) if isinstance(row, dict)]
    if not live:
        return out
    cells, checks = rate_rows([chans[i] for i in live], [thresholds[i] for i in live],
                              [v[i] for i in live], config.strategy, config.beta,
                              config.mi_double, secs and [secs[i] for i in live])
    cells = {name: values.tolist() for name, values in cells.items()}
    for j, i in enumerate(live):
        error = checks.error(j)
        if error is not None:
            out[i] = error
            continue
        out[i].update((name, values[j]) for name, values in cells.items())
        if secs:
            out[i]["epsilon_total"] = secs[i].epsilon_total()
    return out


def _optimize_rows(config: RunConfig, points: list[dict]) -> list[dict | SqccError]:
    chans, thresholds, secs = _rate_inputs(config, points)
    opts = optimise_rows(chans, thresholds, config.strategy, config.beta,
                         mi_double=config.mi_double, secs=secs)
    return [opt if isinstance(opt, SqccError) else
            {"v_star": opt.v_star, "k_star": opt.k_star, "evaluations": opt.evaluations,
             "bracket_low": opt.bracket[0], "bracket_high": opt.bracket[1]}
            for opt in opts]


def _compare_rows(config: RunConfig, points: list[dict]) -> list[dict | SqccError]:
    chans, thresholds, _ = _rate_inputs(config, points)
    new, old = (optimise_rows(chans, thresholds, config.strategy, config.beta,
                              model=model, mi_double=config.mi_double)
                for model in ("sqcc", "baseline"))
    return [n if isinstance(n, SqccError) else o if isinstance(o, SqccError) else
            {"v_star_sqcc": n.v_star, "k_star_sqcc": n.k_star,
             "v_star_baseline": o.v_star, "k_star_baseline": o.k_star,
             "advantage": n.k_star >= o.k_star}
            for n, o in zip(new, old)]


def _each(row: Callable[[RunConfig, dict], dict]):
    """The batch step that computes each point on its own with ``row``."""
    def rows(config: RunConfig, points: list[dict]) -> list[dict | SqccError]:
        out = []
        for point in points:
            try:
                out.append(row(config, point))
            except SqccError as exc:
                out.append(exc)
        return out

    return rows


def _sampled(config: RunConfig, p: dict, chan: ChannelParams, schedule: str | int):
    """Analytic and empirical moment cells of one seeded batch, and the batch."""
    proto = ProtocolParams(p["V"], p["d"], config.beta)
    stats = postprocess_stats(proto, chan)
    batch = sample_joint(proto, chan, schedule, config.n_shots, p["seed"])
    post = discriminate_and_redisplace(batch, proto, chan)
    m = empirical_moments(post)
    cells = {
        "snr": stats.snr, "e_C": stats.e_c,
        "a_d": stats.a_d, "b_d": stats.b_d, "c_d": stats.c_d,
        "a_hat": m.a_hat, "a_se": m.a_se, "b_hat": m.b_hat, "b_se": m.b_se,
        "c_hat": m.c_hat, "c_se": m.c_se, "e_C_hat": m.e_c_hat, "e_C_se": m.e_c_se,
        "mean_bx_hat": float(m.mean_hat[2]), "mean_bx_se": float(m.mean_se[2]),
        "mean_by_hat": float(m.mean_hat[3]), "mean_by_se": float(m.mean_se[3]),
    }
    return cells, batch, post


def _simulate_row(config: RunConfig, p: dict) -> dict:
    chan = ChannelParams(p["T"], config.excess_noise, config.sigma)
    row, batch, post = _sampled(config, p, chan, config.symbol_schedule)
    if config.disclose_fraction:
        est = estimation_pipeline(batch, config.disclose_fraction)
        row.update(snr_hat=est.snr_hat, delta_v_hat=est.delta_v_hat)
    if config.shots_output:
        with open(config.shots_output, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["shot", "alice_x", "alice_y", "bob_raw_x", "bob_raw_y",
                             "bob_post_x", "bob_post_y", "true_symbol", "decided_symbol"])
            outcomes = (batch.alice_outcomes, batch.bob_outcomes, post.bob_outcomes)
            for i in range(batch.n_shots):
                xs = [repr(x) for xy in outcomes for x in xy[i].tolist()]
                writer.writerow([i, *xs, int(batch.true_symbols[i]),
                                 int(post.decided_symbols[i])])
    return row


def _fig2_row(config: RunConfig, p: dict) -> dict:
    """Analytic vs simulated postprocessed moments at one reference displacement.

    Fixed first-symbol schedule: the analytic moments describe a single
    classical sub-ensemble, and by symmetry every sub-ensemble matches.
    """
    row, _, _ = _sampled(config, p, ChannelParams(p["T"], p["eps"]), 1)
    binom_se = math.sqrt(max(row["e_C"] * (1.0 - row["e_C"]), 1e-12)
                         / (2 * config.n_shots))
    checks = {f"{q}_pass": abs(row[f"{q}_hat"] - row[f"{q}_d"]) <= 5.0 * row[f"{q}_se"]
              for q in "abc"}
    checks["e_C_pass"] = abs(row["e_C_hat"] - row["e_C"]) <= 5.0 * binom_se
    return {**row, **checks, "pass": all(checks.values())}


@dataclass(frozen=True)
class _Command:
    help: str
    columns: list[str]
    points: Callable[[RunConfig], Iterator[dict]]  # the input cells of each row
    # the computed cells of each point, or the error that flags it
    rows: Callable[[RunConfig, list[dict]], list[dict | SqccError]]


_INPUT_COLUMNS = "T W V d eps beta sigma strategy "
_DIAG_COLUMNS = " snr e_C delta a_d b_d c_d delta_v I_AB chi_EB K feasible error"
_MOMENT_COLUMNS = " snr e_C a_d b_d c_d a_hat a_se b_hat b_se c_hat c_se e_C_hat e_C_se"
# the reference operating point of the moment-validation sweep
_FIG2 = {"V": 5.0, "T": 0.1, "eps": 0.05}

_COMMANDS = {
    "sweep-asymptotic": _Command(
        "asymptotic rates over a grid",
        (_INPUT_COLUMNS + "v_star k_star" + _DIAG_COLUMNS).split(),
        _grid, _sweep_rows),
    "sweep-finite": _Command(
        "finite-block rates over a grid",
        (_INPUT_COLUMNS + "N v_star k_star" + _DIAG_COLUMNS
         + " K_PE K_F ell epsilon_total").split(),
        lambda c: (p for n in c.block_sizes for p in _grid(c, N=n)),
        _sweep_rows),
    "optimize": _Command(
        "maximise the rate over V at one point",
        ("T W eps beta sigma strategy model N v_star k_star evaluations"
         " bracket_low bracket_high error").split(),
        lambda c: _grid(c, model="sqcc", N=c.block_sizes[0] if c.block_sizes else ""),
        _optimize_rows),
    "simulate": _Command(
        "Monte Carlo moments at given displacement(s)",
        (_INPUT_COLUMNS + "n seed rng schedule" + _MOMENT_COLUMNS + " mean_bx_hat"
         " mean_bx_se mean_by_hat mean_by_se snr_hat delta_v_hat error").split(),
        lambda c: _batches(c, [c.modulation_variance], T=c.t_values[0],
                           schedule=str(c.symbol_schedule)),
        _each(_simulate_row)),
    "validate-fig2": _Command(
        "analytic vs empirical moments on the reference sweep",
        ("d n seed rng V T eps" + _MOMENT_COLUMNS
         + " a_pass b_pass c_pass e_C_pass pass error").split(),
        lambda c: _batches(c, [float(x) for x in range(0, 21, 2)], **_FIG2),
        _each(_fig2_row)),
    "compare-baseline": _Command(
        "optimised rate vs the prior coupling model",
        ("T W eps beta sigma v_star_sqcc k_star_sqcc v_star_baseline k_star_baseline"
         " advantage error").split(),
        _grid, _compare_rows),
}


def run(config: RunConfig) -> int:
    """Execute one command; writes the artifact file and returns the exit code.

    Every row echoes the inputs.  A point whose computation fails with a
    package error becomes a flagged row: the inputs, ``feasible`` false and
    the message in ``error``.  An error of the whole batch flags every row.
    """
    command = _COMMANDS[config.command]
    inputs = {"V": config.modulation_variance, "eps": config.excess_noise,
              "beta": config.beta, "sigma": config.sigma,
              "strategy": config.strategy.value}
    points = [{**inputs, **point} for point in command.points(config)]
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
        group = p.add_mutually_exclusive_group()
        for opt in (o for o in _OPTIONS if name in o.commands):
            kind = ({"action": "store_true"} if opt.type is bool else
                    {"type": opt.type, "choices": opt.choices,
                     "nargs": "+" if opt.many else None})
            (group if opt.dest in _T_ALTERNATIVES else p).add_argument(
                opt.flag or "--" + opt.dest.replace("_", "-"), dest=opt.dest,
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


def _merge(args: argparse.Namespace) -> RunConfig:
    """CLI flags override config-file values, which override the table's defaults.

    A null value or an empty list counts as not given.  Every value is
    checked here, so bad input exits as a usage error before any row runs.
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
    given = {opt.dest: _file_value(opt, file_values[opt.dest]) for opt in _OPTIONS
             if file_values.get(opt.dest) not in (None, [])}
    given.update(flags)

    if sum(k in given for k in _T_ALTERNATIVES) > 1:
        raise DomainError("T, db and T-grid are mutually exclusive")
    if "db" in given:
        given["T"] = [attenuation_db_to_transmissivity(v) for v in given["db"]]
    elif "t_grid" in given:
        given["T"] = given["t_grid"]
    values = {opt.dest: given.get(opt.dest, opt.default) for opt in _OPTIONS}
    values.update({opt.dest: [float(v) for v in values[opt.dest]]
                   for opt in _OPTIONS if opt.many})
    if values["symbol"] != "uniform-random":
        values["symbol"] = int(values["symbol"])

    if flags["command"] == "sweep-finite" and not values["N"]:
        values["N"] = [_DEFAULT_BLOCK]
    security = SecurityParams(math.inf, **{  # a template: each N replaces its block size
        name: given[dest] for dest, name in _SECURITY.items() if dest in given})
    for n in values["N"]:
        if not 2 <= n < math.inf:
            raise DomainError(f"N must be >= 2 and finite, got {n}")
        dataclasses.replace(security, block_size=n)  # checks p_f N >= 1 at this N
    for t in values["T"]:
        ChannelParams(t, values["eps"], values["sigma"])
    ProtocolParams(values["V"], 0.0, values["beta"])
    for w in values["W"]:
        if not 0.0 < w <= 0.5:
            raise DomainError(f"W must be in (0, 0.5], got {w}")
    if values["seed"] < 0:
        raise DomainError(f"seed must be >= 0, got {values['seed']}")
    disclose = values["disclose"]
    if disclose is not None and not 0.0 < disclose < 1.0:
        raise DomainError(f"disclose fraction must be in (0, 1), got {disclose}")
    return RunConfig(command=flags["command"], security=security,
                     **{opt.field: values[opt.dest] for opt in _OPTIONS if opt.field})


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge(args)
    except SqccError as exc:
        parser.error(str(exc))  # exits 2
    try:
        return run(config)
    except (SqccError, OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
