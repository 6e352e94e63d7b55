"""Any config-file object ends in exit 0, 1 or 2, never in an uncaught exception."""

import json
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
KEYS = st.sampled_from([opt.dest for opt in cli._OPTIONS] + ["unknown"])
# cheap commands only: no Monte Carlo, and optimize keeps N tiny or absent
COMMANDS = st.sampled_from(["sweep-asymptotic", "optimize"])


@settings(max_examples=50, deadline=None, database=None)
@given(COMMANDS, st.one_of(st.dictionaries(KEYS, VALUES, max_size=4), SCALARS))
def test_any_config_exits_cleanly(command, config):
    if isinstance(config, dict) and command == "optimize":
        config.pop("N", None)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp)
        (path / "cfg.json").write_text(json.dumps(config))
        argv = [command, "--config", str(path / "cfg.json"), "--output", str(path / "o")]
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
