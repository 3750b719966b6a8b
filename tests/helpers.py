"""Small shared helpers: randomized test inputs, full-register views of
sector states, and fresh interpreters on the source tree."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from qselci.circuits import build_usci
from qselci.dets import Determinant, hartree_fock, sector_masks
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
