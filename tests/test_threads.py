"""Results do not depend on the BLAS thread count.

A fresh interpreter runs every case below once with
``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` at 1 and once at 2: the
FCI pilot's prescreened selection (the 4,900-determinant 8-site h-chain's
pilot is a Davidson solve, above ``DENSE_CUTOFF``), and the reports and
written files of ``fci``, ``usci-build``, ``qsci`` (noiseless and noisy),
``sample --csv`` and ``demo``.  Each interpreter runs all the cases, so
the check costs two start-ups.  Discrete values (ints, strings, switches, keys, lengths) and
written files must be equal; the floats, FCI energies among them, must
agree to ``FLOAT_TOL``, except the Davidson pilot's energy and coefficients,
which must be the same bytes.  A run's timings are left out.
"""

import json
import math

import pytest

from helpers import run_python

FLOAT_TOL = 1e-12
NOISE = ["--depol-p", "0.05", "--eps0", "0.02", "--eps1", "0.03"]
FIXTURES = ("h-chain-synthetic", "hubbard4")
RUNS = {
    f"{name}-{fixture}": [argv[0], "--fixture", fixture, *argv[1:]]
    for fixture in FIXTURES
    for name, argv in {
        "fci": ["fci"],
        "usci-build": ["usci-build", "--save-circuit", "circuit.json"],
        "qsci": ["qsci", "--seed", "7"],
        "qsci-noisy": ["qsci", *NOISE],
        "sample": ["sample", "--csv", "shots.csv"],
        "demo": ["demo"],
    }.items()
}

# Prints {"selections": {table: {"energy", "masks", "bytes"}}, "runs":
# {case: {"code", "report", "files"}}} as JSON on the last line of stdout;
# "bytes" is the pilot energy's hex and the sha256 of its coefficients.
# Each CLI case runs in a directory of its own, which then holds only what
# it wrote.
PROBE = """
import contextlib, hashlib, io, json, os, sys
from qselci.circuits import prescreen
from qselci.cli import cli_dispatch
from qselci.dets import det_masks
from qselci.fixtures import (fixture_table, h_chain_synthetic_table,
                             hubbard_chain_table)
from qselci.hamiltonian import fci_oracle

tables = {name: fixture_table(name) for name in json.loads(sys.argv[2])}
tables["hubbard8-4e"] = hubbard_chain_table(8, n_electrons=4)
tables["h-chain8"] = h_chain_synthetic_table(8)  # Davidson pilot
out = {"selections": {}, "runs": {}}
for name, table in tables.items():
    pilot = fci_oracle(table)
    out["selections"][name] = {
        "energy": pilot.energy,
        "bytes": [pilot.energy.hex(),
                  hashlib.sha256(pilot.coeffs.tobytes()).hexdigest()],
        "masks": det_masks(prescreen(pilot, 0.01)).tolist()}
for case, argv in json.loads(sys.argv[1]).items():
    os.mkdir(case)
    os.chdir(case)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_dispatch([*argv, "--out", "../report.json"])
    with open("../report.json") as fh:
        report = json.load(fh)
    report["manifest"].pop("timings")
    files = {}
    for name in sorted(os.listdir(".")):
        with open(name) as fh:
            files[name] = fh.read()
    out["runs"][case] = {"code": code, "report": report, "files": files}
    os.chdir("..")
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """{threads: the probe's output} at 1 and 2 BLAS threads."""
    found = {}
    for threads in ("1", "2"):
        proc = run_python(
            ["-c", PROBE, json.dumps(RUNS), json.dumps(FIXTURES)],
            cwd=tmp_path_factory.mktemp(f"threads{threads}"),
            env={"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        found[threads] = json.loads(proc.stdout.splitlines()[-1])
    return found


def assert_same(one, two, where):
    """Equal discrete values and structure, floats within FLOAT_TOL."""
    if isinstance(one, float) and isinstance(two, float):
        assert math.isclose(one, two, rel_tol=0.0, abs_tol=FLOAT_TOL), (
            f"{where}: {one!r} at 1 thread, {two!r} at 2")
    elif isinstance(one, dict) and isinstance(two, dict):
        assert list(one) == list(two), f"{where}: keys differ"
        for key in one:
            assert_same(one[key], two[key], f"{where}/{key}")
    elif isinstance(one, list) and isinstance(two, list):
        assert len(one) == len(two), f"{where}: lengths differ"
        for k, (a, b) in enumerate(zip(one, two)):
            assert_same(a, b, f"{where}[{k}]")
    else:
        assert one == two, f"{where}: {one!r} at 1 thread, {two!r} at 2"


@pytest.mark.parametrize("name", [*FIXTURES, "hubbard8-4e", "h-chain8"])
def test_pilot_selection_is_thread_independent(outputs, name):
    one, two = (outputs[t]["selections"][name] for t in ("1", "2"))
    assert one["masks"] == two["masks"]
    assert_same(one["energy"], two["energy"], name)


def test_davidson_pilot_bytes_are_thread_independent(outputs):
    one, two = (outputs[t]["selections"]["h-chain8"]["bytes"]
                for t in ("1", "2"))
    assert one == two


@pytest.mark.parametrize("case", sorted(RUNS))
def test_cli_outputs_are_thread_independent(outputs, case):
    one, two = (outputs[t]["runs"][case] for t in ("1", "2"))
    assert one["code"] == two["code"] == 0
    assert one["files"] == two["files"]
    assert_same(one["report"], two["report"], case)
