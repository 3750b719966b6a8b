"""Small shared helpers: randomized test inputs, shared FCI states,
full-register views of sector states, fresh interpreters on the source
tree, and the rejected CLI option values and input files that the CLI
tests and the golden outputs share."""

import functools
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from qselci.circuits import build_usci
from qselci.dets import Determinant, hartree_fock, sector_masks
from qselci.fcidump import IntegralTable
from qselci.fixtures import (
    FIXTURES,
    h_chain_synthetic_table,
    hubbard_chain_table,
)
from qselci.hamiltonian import fci_oracle


def random_table(n_orbitals, n_electrons, ms2=0, seed=0, with_core=True):
    """A dense random integral table with full 8-fold two-electron symmetry."""
    rng = np.random.default_rng(seed)
    table = IntegralTable(
        n_orbitals=n_orbitals,
        n_electrons=n_electrons,
        ms2=ms2,
        core_energy=float(rng.normal()) if with_core else 0.0,
    )
    h = rng.normal(size=(n_orbitals, n_orbitals))
    table.h = (h + h.T) / 2
    seen = set()
    for idx in itertools.product(range(n_orbitals), repeat=4):
        from qselci.fcidump import _canonical

        key = _canonical(*idx)
        if key not in seen:
            seen.add(key)
            table.set_g(*key, float(rng.normal() * 0.5))
    return table


def hf_pick_usci(n_orbitals, n_alpha, n_beta, n_pick, seed):
    """The benchmark's sampling circuit shape: Hartree-Fock plus a seeded
    pick of ``n_pick`` of its in-sector singles and doubles, at the CLI's
    uniform angle 0.15.  Returns (circuit, params)."""
    hf = hartree_fock(n_orbitals, n_alpha, n_beta)
    masks = sector_masks(n_orbitals, n_alpha, n_beta)
    moved = (np.bitwise_count(masks[:, 0] ^ np.uint64(hf.alpha))
             + np.bitwise_count(masks[:, 1] ^ np.uint64(hf.beta)))
    pool = masks[(moved == 2) | (moved == 4)]
    pick = np.random.default_rng(seed).choice(len(pool), n_pick, replace=False)
    selected = [hf] + [Determinant(int(a), int(b)) for a, b in pool[pick]]
    circuit = build_usci(hf, selected, n_orbitals)
    return circuit, np.full(circuit.n_params, 0.15)


@functools.cache
def fci_states():
    """{name: FCI ground state} of every fixture and of the half-filled
    8-site Hubbard and hydrogen-chain tables (4,900 determinants each)."""
    tables = {name: make() for name, make in FIXTURES.items()}
    tables["hubbard8"] = hubbard_chain_table(8)
    tables["h-chain-8"] = h_chain_synthetic_table(8)
    return {name: fci_oracle(table) for name, table in tables.items()}


def full_register(state):
    """A statevector's amplitudes scattered into a zero vector over all
    2^n basis states."""
    amps = np.zeros(1 << state.n_qubits, dtype=complex)
    amps[state.index] = state.amps
    return amps


ROOT = Path(__file__).resolve().parent.parent


def run_python(args, cwd=ROOT, env=None):
    """Run a fresh interpreter in ``cwd`` with ``src`` first on its import
    path and ``env`` over the environment; returns the completed process
    with text output."""
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True,
        text=True, timeout=300,
    )


# Option values the library rejects with ValueError, so each run is a
# one-line usage error.  "WF" stands for a saved wavefunction, and the
# argument after --config for the text of the config file.
BAD_OPTION_VALUES = [
    ["sample", "--fixture", "hubbard4", "--pg", "0.001"],  # no --n2q
    ["qsci", "--fixture", "hubbard4", "--eps0", "2"],
    ["qsci", "--fixture", "hubbard4", "--shots", "0"],
    # a prescreen cap that can select nothing, once blamed on the cutoff
    ["qsci", "--fixture", "hubbard4", "--top-m", "0"],
    ["bounds", "--n", "10", "--m", "9", "--f2q", "0.99"],  # odd, closed shell
    # more electrons than spin orbitals: an empty sector, whose infinite
    # log-probability once overflowed the gate budget
    ["bounds", "--n", "10", "--m", "30", "--f2q", "0.99"],
    ["bounds", "--n", "10", "--n-alpha", "5", "--n-beta", "11", "--f2q", "0.99"],
    # non-finite floats, which once ran to a meaningless exit 0
    ["bounds", "--lambda-h", "nan", "--q-r", "0.5"],
    ["expand", "--fixture", "hubbard4", "--in", "WF", "--tau", "nan"],
    ["analyze", "--in", "WF", "--mi-threshold", "nan", "--mi-edges", "F"],
    ["expand", "--fixture", "hubbard4", "--in", "WF", "--config", "tau = inf"],
    # a required shot count past a float: gap_id ** 2 underflows to 0, or
    # the count overflows to inf
    ["bounds", "--k-pool", "3", "--delta", "0.1", "--gap-id", "1e-200"],
    ["bounds", "--k-pool", "3", "--delta", "0.1", "--gap-id", "1e-160"],
    ["bounds", "--k-pool", "3", "--delta", "1e-320", "--gap-id", "0.5"],
    # other bounds past a float, once reported as "inf" with exit 0
    ["bounds", "--shots", "100", "--delta", "1e-320"],
    ["bounds", "--lambda-h", "1e308", "--q-r", "0.0"],
    ["bounds", "--lambda-h", "1e308", "--p", "1"],
    ["bounds", "--shots", "100", "--delta", "1e-320", "--r", "4", "--d", "16",
     "--q-r", "0.5", "--lambda-h", "1"],
]


def _fcidump_header(fields):
    return f"&FCI {fields},\n&END\n 1.0 1 1 0 0\n".encode("ascii")


# Input files that fail as one domain error: not text, or (for FCIDUMP) a
# header naming no determinant or a key without a value, or a body value
# that is not a finite number.
BAD_INPUT_FILES = {
    "fcidump": (["fcidump-info", "--fcidump"],
                b"&FCI NORB=2,NELEC=2,\n&END\n 1.0 1 1 0 0 \xff\n",
                "error: UndecodableInput: line 3: "),
    "fcidump-header": (["fcidump-info", "--fcidump"], b"\xff&FCI\n",
                       "error: UndecodableInput: line 1: "),
    "fcidump-odd-electrons": (["fcidump-info", "--fcidump"],
                              _fcidump_header("NORB=2,NELEC=3,MS2=0"),
                              "error: MalformedHeader: line 1: "),
    "fcidump-too-many-electrons": (["fcidump-info", "--fcidump"],
                                   _fcidump_header("NORB=2,NELEC=6"),
                                   "error: MalformedHeader: line 1: "),
    "fcidump-ms2-past-norb": (["fcidump-info", "--fcidump"],
                              _fcidump_header("NORB=2,NELEC=2,MS2=4"),
                              "error: MalformedHeader: line 1: "),
    "fcidump-negative-electrons": (["fcidump-info", "--fcidump"],
                                   _fcidump_header("NORB=2,NELEC=-2"),
                                   "error: MalformedHeader: line 1: "),
    "fcidump-key-without-value": (["fcidump-info", "--fcidump"],
                                  _fcidump_header("NORB=2,NELEC=2,MS2=two"),
                                  "error: MalformedHeader: line 1: "),
    "fcidump-nan-integral": (["fcidump-info", "--fcidump"],
                             b"&FCI NORB=2,NELEC=2,\n&END\n nan 1 1 0 0\n",
                             "error: NonNumericValue: line 3: "),
    "config": (["qsci", "--fixture", "hubbard4", "--config"],
               b"shots = 100\n\xff\n", "error: ConfigParseError: "),
}
