"""Golden CLI artifacts: the bytes every command writes on tiny inputs, and its options.

After an intended output change, regenerate the files and review their diff:

    PYTHONPATH=src python tests/test_golden.py
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

import sqccqkd.cli as cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

# {config} and {shots} stand for files in the run directory; --output is
# appended as <case>.csv, or <case>.json with --format json.
CASES = {
    "sweep_asymptotic": ["sweep-asymptotic", "--T", "0.1", "0.5", "--W", "0.5", "1e-3",
                         "--V", "5"],
    "sweep_asymptotic_db_optv": ["sweep-asymptotic", "--db", "3", "10", "--W", "1e-3",
                                 "--optimize-v", "--strategy", "c-preserving"],
    "sweep_asymptotic_config": ["sweep-asymptotic", "--config", "{config}", "--V", "7"],
    "sweep_asymptotic_log": ["sweep-asymptotic", "--T-grid", "log:0.05:0.9:5",
                             "--W", "1e-3", "--optimize-v"],
    "sweep_asymptotic_flagged": ["sweep-asymptotic", "--T", "0.3", "--W", "1e-3",
                                 "--V", "1e300"],
    "sweep_finite": ["sweep-finite", "--T", "0.5", "0.9", "--W", "1e-3", "--V", "3",
                     "--N", "1e8", "1e6", "--format", "json"],
    "sweep_finite_optv": ["sweep-finite", "--T-grid", "lin:0.3:0.9:2", "--W", "1e-3",
                          "--optimize-v", "--N", "1e8", "--eps-pe", "1e-9",
                          "--p-f", "0.98"],
    "sweep_finite_flagged": ["sweep-finite", "--T", "0.3", "--W", "1e-3", "--V", "1e300",
                             "--N", "1e8"],
    "optimize": ["optimize", "--T", "0.6", "--W", "1e-3", "--eps", "0.05"],
    "optimize_finite": ["optimize", "--T", "0.6", "0.2", "--W", "1e-3", "--N", "1e8",
                        "--d-rx", "5"],
    "optimize_finite_json": ["optimize", "--T", "0.6", "--W", "1e-3", "--N", "1e8",
                             "--format", "json"],
    "compare_baseline": ["compare-baseline", "--T", "0.3", "--W", "1e-6", "1e-3"],
    "simulate_shots": ["simulate", "--T", "0.1", "--V", "5", "--d", "12", "--n", "200",
                       "--seed", "7", "--symbol", "1", "--shots-output", "{shots}"],
    "simulate_disclose": ["simulate", "--T", "0.1", "--V", "5", "--d", "12", "0",
                          "--n", "2000", "--seed", "8", "--disclose", "0.1"],
    "simulate_flagged": ["simulate", "--T", "0.1", "--V", "1e300", "--d", "12",
                         "--n", "200"],
    "validate_fig2": ["validate-fig2", "--n", "2000", "--seed", "42",
                      "--d", "0", "10", "20"],
}

CONFIG = {"T": [0.4], "W": [0.5, 1e-3], "V": 2.0, "eps": 0.02, "sigma": 1e-4,
          "optimize_v": False}


def run_case(name: str, workdir: pathlib.Path) -> dict[str, bytes]:
    """Run one case in ``workdir``; returns the bytes of every file it wrote."""
    (workdir / "config.json").write_text(json.dumps(CONFIG))
    argv = [arg.format(config=workdir / "config.json", shots=workdir / f"{name}.shots.csv")
            for arg in CASES[name]]
    fmt = "json" if "json" in argv else "csv"
    argv += ["--output", str(workdir / f"{name}.{fmt}")]
    assert cli.main(argv) == 0
    return {p.name: p.read_bytes() for p in sorted(workdir.glob(f"{name}.*"))}


def option_table() -> dict[str, dict[str, str]]:
    """Each subcommand's options: dest -> its space-separated option strings."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {command: {a.dest: " ".join(sorted(a.option_strings)) for a in p._actions}
            for command, p in sub.choices.items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_bytes(name, tmp_path):
    written = run_case(name, tmp_path)
    expected = sorted(p.name for p in GOLDEN.glob(f"{name}.*"))
    assert sorted(written) == expected
    for filename, data in written.items():
        assert data == (GOLDEN / filename).read_bytes(), filename


# the commands whose bytes come from the rate kernel
RATE_CASES = sorted(name for name, argv in CASES.items()
                    if argv[0] not in ("simulate", "validate-fig2"))


def _avx512_dispatch() -> list[str]:
    """numpy's AVX-512-level dispatch targets that this CPU has."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__
            if (name == "X86_V4" or name.startswith("AVX512"))
            and umath.__cpu_features__.get(name)]


# the README grid: 7,900 evaluations per model, enough that a SIMD exp or log
# would change some bytes, in the grid or in the kernel
README_GRID = ["--W", "0.5", "1e-3", "--T-grid", "log:0.01:0.9:50"]
README_RUNS = [["sweep-asymptotic", *README_GRID, "--optimize-v"],
               ["compare-baseline", *README_GRID]]


def readme_digests(workdir: pathlib.Path) -> list[str]:
    """SHA-256 of the artifact of each README run."""
    digests = []
    for i, argv in enumerate(README_RUNS):
        out = workdir / f"readme{i}.csv"
        assert cli.main([*argv, "--output", str(out)]) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    return digests


def test_rate_bytes_without_avx512(tmp_path):
    """The rate artifacts do not depend on which SIMD kernels numpy dispatches to.

    numpy's AVX-512 exp/log differ from libm in the last bit, so a kernel
    using them would write other bytes on other CPUs.  With those targets
    disabled, the rate cases must still match the golden files, and the
    README runs the bytes this process writes with every target enabled.
    """
    features = _avx512_dispatch()
    if not features:
        pytest.skip("numpy dispatches no AVX-512 kernels on this CPU")
    script = f"""
import pathlib, sys, tempfile
sys.path[:0] = {[str(pathlib.Path(__file__).parent)]!r}
import test_golden
assert not any(test_golden._avx512_dispatch()), "features still enabled"
for name in test_golden.RATE_CASES:
    with tempfile.TemporaryDirectory() as scratch:
        for filename, data in test_golden.run_case(name, pathlib.Path(scratch)).items():
            if data != (test_golden.GOLDEN / filename).read_bytes():
                print("differs:", filename)
with tempfile.TemporaryDirectory() as scratch:
    print("readme:", *test_golden.readme_digests(pathlib.Path(scratch)))
"""
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(features)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "differs" not in done.stdout, done.stdout
    assert f"readme: {' '.join(readme_digests(tmp_path))}" in done.stdout


def test_subcommand_options():
    assert option_table() == json.loads((GOLDEN / "options.json").read_text())


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    for case in CASES:
        with tempfile.TemporaryDirectory() as scratch:
            for filename, data in run_case(case, pathlib.Path(scratch)).items():
                (GOLDEN / filename).write_bytes(data)
    options = json.dumps(option_table(), indent=1, sort_keys=True)
    (GOLDEN / "options.json").write_text(options + "\n")
