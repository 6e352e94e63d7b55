"""Span tracer installed from outside the package.

Every public function of each layer module is replaced by a wrapper at
every module namespace that binds it by name, so calls made through
module globals (``special._bisect_beta`` -> ``beta_reg``) and through
``from .x import f`` bindings (``cli`` -> ``asymptotic_rate``) are both
seen.  Spans hold a name id, start and end (``perf_counter_ns``), the
index of the enclosing span and the id of the CLI command that caused
them.  They live in compact arrays and are written out when the run
ends; integer nanoseconds make self times exact, so a command's self
times sum to its ``cli.main`` span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = ("special", "channel", "gaussian", "postprocess",
          "keyrate", "finitekey", "montecarlo", "cli")

class Tracer:
    """Collects spans and per-function counters for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_cmd = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.errors: dict[str, int] = {}
        # per-function extras gathered from arguments and results
        self.quantile_args: set = set()
        self.worst_case_args: set = set()
        self.evaluations = {"keyrate.optimise_v": 0, "finitekey.optimise_v_finite": 0}
        self.feasible = 0
        self.shots = 0
        self.bytes_out = 0
        self._events: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self, package: str = "sqccqkd") -> None:
        """Wrap every public function of each layer wherever it is bound."""
        modules = [importlib.import_module(package)]
        modules += [importlib.import_module(f"{package}.{m}") for m in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{attr}")
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _wrap(self, fn, qualname: str):
        nid = self.name_ids.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        hook = _HOOKS.get(qualname)
        append, errors = self._events.append, self.errors

        # Entry appends (name id, time), exit appends (-1, time); parents and
        # command ids are recovered from the nesting in end_command().  This
        # keeps the wrapper to four list appends and two clock reads.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            append(nid)
            append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                append(-1)
                append(perf_counter_ns())
                errors[qualname] = errors.get(qualname, 0) + 1
                raise
            append(-1)
            append(perf_counter_ns())
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def end_command(self, cmd: int) -> None:
        """Turn the events of one finished command into spans."""
        events, stack = self._events, []
        for i in range(0, len(events), 2):
            code, t = events[i], events[i + 1]
            if code >= 0:
                stack.append(len(self.span_start))
                self.span_name.append(code)
                self.span_cmd.append(cmd)
                self.span_parent.append(stack[-2] if len(stack) > 1 else -1)
                self.span_start.append(t)
                self.span_end.append(0)
            else:
                self.span_end[stack.pop()] = t
        if stack:
            raise RuntimeError("unbalanced trace events")
        events.clear()

    # -- results ----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """Span table as arrays; ``self_ns`` is duration minus child cover."""
        start = np.frombuffer(self.span_start, dtype=np.int64)
        end = np.frombuffer(self.span_end, dtype=np.int64)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child_ns = np.zeros(len(dur), dtype=np.int64)
        np.add.at(child_ns, parent[has_parent], dur[has_parent])
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "cmd": np.frombuffer(self.span_cmd, dtype=np.int32).copy(),
            "parent": parent.copy(),
            "start_ns": start.copy(),
            "end_ns": end.copy(),
            "self_ns": dur - child_ns,
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())


def _leading_args(params: tuple[str, ...], args, kwargs) -> tuple:
    """The named leading parameters of a call, however they were passed."""
    bound = dict(zip(params, args))
    bound.update(kwargs)
    return tuple(bound[p] for p in params)


def _quantile_hook(tr: Tracer, args, kwargs, result):
    tr.quantile_args.add(_leading_args(("z", "half_n"), args, kwargs))


def _worst_case_hook(tr: Tracer, args, kwargs, result):
    tr.worst_case_args.add(_leading_args(("a_hat", "b_hat", "c_hat", "sec"), args, kwargs))


def _optimise_v_hook(tr: Tracer, args, kwargs, result):
    tr.evaluations["keyrate.optimise_v"] += result.evaluations


def _optimise_v_finite_hook(tr: Tracer, args, kwargs, result):
    tr.evaluations["finitekey.optimise_v_finite"] += result.evaluations


def _asymptotic_rate_hook(tr: Tracer, args, kwargs, result):
    tr.feasible += bool(result.feasible)


def _sample_joint_hook(tr: Tracer, args, kwargs, result):
    tr.shots += result.n_shots
    tr.bytes_out += (result.alice_outcomes.nbytes + result.bob_outcomes.nbytes
                     + result.true_symbols.nbytes + result.decided_symbols.nbytes)


_HOOKS = {
    "special.beta_inv_cdf_symmetric": _quantile_hook,
    "finitekey.worst_case_estimators": _worst_case_hook,
    "keyrate.optimise_v": _optimise_v_hook,
    "finitekey.optimise_v_finite": _optimise_v_finite_hook,
    "keyrate.asymptotic_rate": _asymptotic_rate_hook,
    "montecarlo.sample_joint": _sample_joint_hook,
}


def layer_metrics(tr: Tracer, rows_written: int, bytes_written: int,
                  nonzero_exits: int) -> dict[str, float]:
    """Per-layer metrics named ``<layer>.<function>.<measure>``."""
    spans = tr.spans()
    n_names = len(tr.names)
    calls = np.bincount(spans["name"], minlength=n_names)
    self_s = np.bincount(spans["name"], weights=spans["self_ns"],
                         minlength=n_names) / 1e9
    total_s = np.bincount(spans["name"], weights=spans["end_ns"] - spans["start_ns"],
                          minlength=n_names) / 1e9

    def count(qual):
        i = tr.name_ids.get(qual)
        return int(calls[i]) if i is not None else 0

    def seconds(qual, table=self_s):
        i = tr.name_ids.get(qual)
        return float(table[i]) if i is not None else 0.0

    def layer_self(layer):
        return float(sum(self_s[i] for q, i in tr.name_ids.items()
                         if q.startswith(layer + ".")))

    def ratio(num, den):
        return num / den if den else 0.0

    quantiles = count("special.beta_inv_cdf_symmetric") + count("special.beta_quantile")
    out = {
        "special.beta_inv_cdf_symmetric.calls": count("special.beta_inv_cdf_symmetric"),
        "special.beta_inv_cdf_symmetric.self_s": seconds("special.beta_inv_cdf_symmetric"),
        "special.beta_inv_cdf_symmetric.unique_frac": ratio(
            len(tr.quantile_args), count("special.beta_inv_cdf_symmetric")),
        "special.beta_reg.calls": count("special.beta_reg"),
        "special.beta_reg.self_s": seconds("special.beta_reg"),
        "special.beta_reg.per_quantile": ratio(count("special.beta_reg"), quantiles),
        "special.erfc_inv.calls": count("special.erfc_inv"),
        "special.erfc_inv.self_s": seconds("special.erfc_inv"),
        "special.beta_quantile.calls": count("special.beta_quantile"),
        "special.beta_quantile.self_s": seconds("special.beta_quantile"),
        "channel.shared_state.calls": count("channel.shared_state"),
        "channel.shared_state.per_row": ratio(count("channel.shared_state"), rows_written),
        "postprocess.postprocess_stats.calls": count("postprocess.postprocess_stats"),
        "postprocess.renormalise.calls": count("postprocess.renormalise"),
        "postprocess.required_displacement.calls": count("postprocess.required_displacement"),
        "postprocess.self_s": layer_self("postprocess"),
        "gaussian.symplectic_spectrum.calls": count("gaussian.symplectic_spectrum"),
        "gaussian.g_function.calls": count("gaussian.g_function"),
        "gaussian.self_s": layer_self("gaussian"),
        "keyrate.optimise_v.calls": count("keyrate.optimise_v"),
        "keyrate.optimise_v.total_s": seconds("keyrate.optimise_v", total_s),
        "keyrate.optimise_v.evaluations": tr.evaluations["keyrate.optimise_v"],
        "keyrate.asymptotic_rate.calls": count("keyrate.asymptotic_rate"),
        "keyrate.asymptotic_rate.self_s": seconds("keyrate.asymptotic_rate"),
        "keyrate.asymptotic_rate.feasible_frac": ratio(
            tr.feasible, count("keyrate.asymptotic_rate")),
        "keyrate.baseline_rate.calls": count("keyrate.baseline_rate"),
        "keyrate.baseline_rate.self_s": seconds("keyrate.baseline_rate"),
        "keyrate.holevo_bound.calls": count("keyrate.holevo_bound"),
        "keyrate.holevo_bound.self_s": seconds("keyrate.holevo_bound"),
        "finitekey.optimise_v_finite.calls": count("finitekey.optimise_v_finite"),
        "finitekey.optimise_v_finite.total_s": seconds("finitekey.optimise_v_finite", total_s),
        "finitekey.optimise_v_finite.evaluations":
            tr.evaluations["finitekey.optimise_v_finite"],
        "finitekey.finite_rate.calls": count("finitekey.finite_rate"),
        "finitekey.finite_rate.self_s": seconds("finitekey.finite_rate"),
        "finitekey.worst_case_estimators.calls": count("finitekey.worst_case_estimators"),
        "finitekey.worst_case_estimators.total_s":
            seconds("finitekey.worst_case_estimators", total_s),
        "finitekey.worst_case_estimators.unique_frac": ratio(
            len(tr.worst_case_args), count("finitekey.worst_case_estimators")),
        "montecarlo.sample_joint.self_s": seconds("montecarlo.sample_joint"),
        "montecarlo.discriminate_and_redisplace.self_s":
            seconds("montecarlo.discriminate_and_redisplace"),
        "montecarlo.empirical_moments.self_s": seconds("montecarlo.empirical_moments"),
        "montecarlo.estimation_pipeline.self_s": seconds("montecarlo.estimation_pipeline"),
        "montecarlo.sample_joint.shots": tr.shots,
        "montecarlo.sample_joint.bytes_out": tr.bytes_out,
        "cli.main.calls": count("cli.main"),
        "cli.main.self_s": seconds("cli.main"),
        "cli.main.errors": nonzero_exits,
        "cli.rows_written": rows_written,
        "cli.bytes_written": bytes_written,
    }
    for layer in LAYERS:
        out[f"{layer}.errors"] = sum(n for q, n in tr.errors.items()
                                     if q.startswith(layer + "."))
    return out
