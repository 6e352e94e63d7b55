"""Any config-file object ends in exit 0, 1 or 2, never in an uncaught exception.

Every example reuses the process's one parser, so a state leak between
runs would show here too.
"""

import json
import os
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

import sqccqkd.cli as cli

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 300),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e300, -1e300, 0.0, 1e-3, 0.5, 5.0, 1e8]),
    st.text(max_size=8),
    st.sampled_from(["uniform-random", "c-preserving", "json", "log:0.1:0.9:2", "3"]),
)
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=2), st.dictionaries(
    st.text(max_size=3), SCALARS, max_size=2))


def drawn(good, bad, many=False):
    """A good value three times as often as a bad one; lists of them if ``many``."""
    one = st.one_of(*[st.sampled_from(good)] * 3, st.sampled_from(bad))
    return st.lists(one, max_size=2) if many else one


# The shots and the block size set a run's cost, so they take a few small
# values: no Monte Carlo batch above 200 shots and no mid-size V search.
# p_f N falls below 1 at N = 2 with p_f = 0.1, and at N = 1e3 with p_f = 1e-4.
SIZES = st.fixed_dictionaries(
    {"n": drawn([2, 50, 200], [-1, 0, 1, 2.5, "abc", None, 10**400])},
    optional={"N": drawn([2, 10, 1e3, 1e8], [-5.0, 0.0, 1.5, float("nan"), "x", None],
                         many=True)})
# the finite-key options, and a shots dump that stays in the run directory;
# one value in four is any value
CHOSEN = {key: st.one_of(value, value, value, VALUES) for key, value in {
    "p_f": drawn([1e-4, 0.1, 0.5, 1.0], [0.0, 1.5, float("inf"), "x"]),
    "d_rx": drawn([1, 6], [-1, 0, 2.5, True, 10**400]),
    **{key: drawn([1e-10, 0.5], [0.0, 1.0, -1.0, float("nan"), 1e-200, 5e-324])
       for key in cli._SECURITY if key.startswith("eps_")},
    "shots_output": drawn(["shots.csv"], ["", 5]),
}.items()}
KEYS = st.sampled_from([opt.dest for opt in cli._OPTIONS
                        if opt.dest not in ("n", "N", *CHOSEN)] + ["unknown"])
CONFIGS = st.builds(
    lambda sizes, chosen, other: {**other, **sizes, **chosen}, SIZES,
    st.lists(st.sampled_from(sorted(CHOSEN)), max_size=4, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({key: CHOSEN[key] for key in keys})),
    st.dictionaries(KEYS, VALUES, max_size=4))


@settings(max_examples=50, deadline=None, database=None)
@given(st.sampled_from(sorted(cli._COMMANDS)),
       st.one_of(CONFIGS, CONFIGS, CONFIGS, SCALARS))  # three object configs in four
def test_any_config_exits_cleanly(command, config):
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp)
        (path / "cfg.json").write_text(json.dumps(config))
        argv = [command, "--config", str(path / "cfg.json"), "--output", str(path / "o")]
        os.chdir(tmp)  # where a drawn shots_output goes
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(home)
    assert code in (0, 1, 2)
