"""Small shared helpers: randomized test inputs, full-register views of
sector states, and fresh interpreters on the source tree."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from qselci.fcidump import IntegralTable


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


def full_register(state):
    """A statevector's amplitudes scattered into a zero vector over all
    2^n basis states."""
    amps = np.zeros(1 << state.n_qubits, dtype=complex)
    amps[state.index] = state.amps
    return amps


ROOT = Path(__file__).resolve().parent.parent


def run_python(args):
    """Run a fresh interpreter with ``src`` first on its import path;
    returns the completed process with text output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=300,
    )
