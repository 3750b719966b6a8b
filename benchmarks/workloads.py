"""The benchmark's workloads.

Each workload is a closed loop with one client: ``setup(seed)`` builds every
input from the workload seed through qselci's public API, then ops run one
at a time.  ``op(i, seed)`` does op ``i`` and returns its raw output;
``check(output)`` is applied outside the timed region and returns the list
of failed output checks plus per-op figures keyed by per-layer metric name
(accuracy, and the CLI's own timings).

The benchmark calls library functions through their modules (for example
``sampling.sample``) so that the traced run's wrappers see every call.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

from qselci import (
    circuits,
    expansion,
    fcidump,
    fixtures,
    hamiltonian,
    pipeline,
    sampling,
    simulator,
)

import generators

ENERGY_TOL = 1e-9  # energies are variational: E >= E_exact - ENERGY_TOL
MONOTONE_TOL = 1e-12  # expansion never raises the energy by more than this
INIT_ANGLE = 0.15  # the CLI's uniform angle for unoptimized circuits
NOISE = dict(depolarizing_p=0.01, readout_eps0=0.005, readout_eps1=0.01)
HA_TO_MHA = 1e3


def _noise():
    return sampling.NoiseModel(**NOISE)


def _uniform_params(circuit):
    return np.full(circuit.n_params, INIT_ANGLE)


def _circuit_from_pilot(pilot):
    """The ``qselci qsci`` circuit: prescreen the pilot at cutoff 0.01 and
    build the USCI circuit over the kept determinants."""
    selected = circuits.prescreen(pilot, 0.01)
    return circuits.build_usci(selected[0], selected, pilot.n_orbitals)


def _shot_errors(kept, rejected, shots, n_alpha, n_beta):
    """Kept + rejected = shots, and every kept string is in the sector."""
    errors = []
    if kept.total_shots + rejected != shots:
        errors.append(
            f"kept {kept.total_shots} + rejected {rejected} != shots {shots}"
        )
    for s in kept.counts:
        half = len(s) // 2
        if s[:half].count("1") != n_alpha or s[half:].count("1") != n_beta:
            errors.append(f"kept string {s} outside the sector")
            break
    return errors


def _variational_errors(label, energy, exact):
    if energy < exact - ENERGY_TOL:
        return [f"{label} energy {energy!r} below exact {exact!r}"]
    return []


class Workload:
    setup_reps = 3  # setups per run; setup_s is their median
    accuracy_ops = 1  # ops 0..accuracy_ops-1 always run; accuracy averages them
    work_in_children = False  # peak RSS and speed gauge from child processes
    gauge = None  # the run's SpeedGauge, which child processes' samples join

    def __init__(self, root, work_dir):
        self.root = root
        self.work = work_dir


class QsciHubbard8(Workload):
    """``qselci qsci`` on the 8-site Hubbard chain with 4 electrons: FCI
    pilot, prescreen and USCI circuit in setup; one noisy
    sample-filter-diagonalize pass per op.  Four electrons (a 784-determinant
    sector) keep each setup near 2.5 s, so the FCI pilot can be repeated for
    the setup median within the benchmark's time budget."""

    name = "qsci-hubbard8"
    n_electrons = 4
    shots = 100_000
    accuracy_ops = 3

    def setup(self, seed):
        self.table = fixtures.hubbard_chain_table(8, n_electrons=self.n_electrons)
        pilot = hamiltonian.fci_oracle(self.table)
        self.exact = pilot.energy
        self.circuit = _circuit_from_pilot(pilot)
        self.params = _uniform_params(self.circuit)

    def op(self, i, seed):
        cfg = pipeline.PipelineConfig(shots=self.shots, noise=_noise(), seed=seed)
        return pipeline.run_qsci_once(self.circuit, self.params, self.table, cfg)

    def check(self, res):
        t = self.table
        errors = _shot_errors(res.counts, res.n_rejected, self.shots,
                              t.n_alpha, t.n_beta)
        errors += _variational_errors("subspace", res.energy, self.exact)
        if res.n_unique != len(res.wavefunction.dets):
            errors.append("unique determinant count differs from dimension")
        return errors, {
            "accuracy.energy_err_mha": (res.energy - self.exact) * HA_TO_MHA
        }


class Sample20q(Workload):
    """The ``sample`` path at 20 qubits: simulate, noisy distribution, shots,
    readout flips, sector filter and de-duplication; no Hamiltonian work."""

    name = "sample-20q"
    n_sites = 10
    n_pick = 200
    shots = 200_000

    def setup(self, seed):
        self.table = fixtures.h_chain_synthetic_table(self.n_sites)
        selected = generators.hf_excitation_pick(self.table, self.n_pick, seed)
        self.circuit = circuits.build_usci(
            selected[0], selected, self.table.n_orbitals
        )
        self.params = _uniform_params(self.circuit)

    def op(self, i, seed):
        sample_seed, readout_seed = pipeline.derive_seeds(seed, 2)
        noise = _noise()
        t = self.table
        state = simulator.Statevector.from_determinant(
            self.circuit.reference, t.n_orbitals
        )
        state = simulator.apply_circuit(self.circuit, self.params, state)
        dist = sampling.ideal_distribution(state)
        dist = sampling.depolarize_distribution(dist, noise.depolarizing_p)
        counts = sampling.sample(dist, self.shots, sample_seed, noise=noise)
        counts = sampling.apply_readout(counts, noise, readout_seed)
        kept, rejected = sampling.symmetry_filter(counts, t.n_alpha, t.n_beta)
        dets = sampling.counts_to_determinants(kept, t.n_orbitals)
        return kept, rejected, dets

    def check(self, output):
        kept, rejected, dets = output
        t = self.table
        errors = _shot_errors(kept, rejected, self.shots, t.n_alpha, t.n_beta)
        if len(dets) != len(kept.counts) or len(set(dets)) != len(dets):
            errors.append("determinants are not the unique kept strings")
        return errors, {}


class RefineDense8(Workload):
    """Expansion then PT2 on a dense random 8-orbital, 4-electron table,
    rotating through K starting wavefunctions from seeded low-shot qsci
    passes.  Every two-electron class is nonzero, so screening skips little.
    Each start keeps its ``start_dets`` heaviest determinants (re-solved),
    so ops are the same size whatever the seed."""

    name = "refine-dense8"
    n_orbitals = 8
    n_electrons = 4
    n_starts = 3
    start_shots = 500  # gives 170-245 unique determinants
    start_dets = 150
    top_k = 200
    accuracy_ops = n_starts  # one full rotation of the starts

    def setup(self, seed):
        table_seed, *pass_seeds = pipeline.derive_seeds(seed, 1 + self.n_starts)
        self.table = generators.dense_random_table(
            self.n_orbitals, self.n_electrons, table_seed
        )
        pilot = hamiltonian.fci_oracle(self.table)
        self.exact = pilot.energy
        circuit = _circuit_from_pilot(pilot)
        params = _uniform_params(circuit)
        self.starts = []
        for s in pass_seeds:
            sampled = pipeline.run_qsci_once(
                circuit, params, self.table,
                pipeline.PipelineConfig(
                    shots=self.start_shots, noise=_noise(), seed=s
                ),
            ).wavefunction
            kept = circuits.prescreen(sampled, 0.0, top_m=self.start_dets)
            self.starts.append(hamiltonian.davidson_lowest(
                hamiltonian.build_subspace(kept, self.table)
            ))

    def op(self, i, seed):
        psi = self.starts[i % self.n_starts]
        grown = expansion.expand_and_rediagonalize(psi, self.table, 0.0, self.top_k)
        pt2 = expansion.en_pt2(psi, self.table)
        return psi, grown, pt2

    def check(self, output):
        psi, grown, pt2 = output
        errors = _variational_errors("expanded", grown.energy_after, self.exact)
        if grown.energy_before != psi.energy:
            errors.append("expansion reports another starting energy")
        if grown.energy_after > grown.energy_before + MONOTONE_TOL:
            errors.append(
                f"expansion raised the energy: {grown.energy_before!r} -> "
                f"{grown.energy_after!r}"
            )
        if not 0 < grown.n_added <= self.top_k:
            errors.append(f"expansion added {grown.n_added} determinants")
        if pt2.n_external < grown.n_added:
            errors.append("PT2 saw fewer external determinants than were added")
        corrected = psi.energy + pt2.delta_e
        return errors, {
            "accuracy.energy_err_mha": (grown.energy_after - self.exact) * HA_TO_MHA,
            "accuracy.pt2_err_mha": abs(corrected - self.exact) * HA_TO_MHA,
        }


CLI_TIMEOUT_S = 170
GAUGED_CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)), "gauged_cli.py")
CLI_SUBCOMMANDS = ("qsci", "pt2", "analyze", "bounds")


class CliSession(Workload):
    """Four CLI subprocesses per op (qsci, pt2, analyze, bounds) on a seeded
    dense 6-orbital FCIDUMP, start-up and imports included.  Each runs the
    CLI as ``python -m qselci.cli`` does, under benchmarks/gauged_cli.py, so
    the speed gauge samples inside the process doing the work."""

    name = "cli-session"
    n_orbitals = 6
    n_electrons = 6
    work_in_children = True
    accuracy_ops = 2

    def __init__(self, root, work_dir):
        super().__init__(root, work_dir)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def setup(self, seed):
        import jsonschema

        self.jsonschema = jsonschema
        text = generators.fcidump_text(self.n_orbitals, self.n_electrons, seed)
        self.fcidump = os.path.join(self.work, "system.fcidump")
        with open(self.fcidump, "w", encoding="utf-8") as fh:
            fh.write(text)
        table = fcidump.parse_fcidump(text)
        if fcidump.serialize_fcidump(table) != text:
            raise RuntimeError("FCIDUMP round trip changed the integrals")
        self.exact = hamiltonian.fci_oracle(table).energy
        with open(os.path.join(self.root, "src", "qselci", "schemas",
                               "report.schema.json"), encoding="utf-8") as fh:
            self.schema = json.load(fh)

    def _argv(self, sub, seed):
        wf = os.path.join(self.work, "wf.json")
        if sub == "qsci":
            return ["qsci", "--fcidump", self.fcidump, "--shots", "20000",
                    "--depol-p", "0.01", "--eps0", "0.005", "--eps1", "0.01",
                    "--seed", str(seed), "--save-wf", wf]
        if sub == "pt2":
            return ["pt2", "--fcidump", self.fcidump, "--in", wf]
        if sub == "analyze":
            return ["analyze", "--in", wf]
        return ["bounds", "--preset", "cas10-10", "--shots", "10000",
                "--delta", "0.05"]

    def run_cli(self, argv):
        """One CLI subprocess, run as ``python -m qselci.cli`` with the speed
        gauge inside it; returns (exit code, output text, wall seconds)."""
        samples = os.path.join(self.work, "gauge.json")
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, GAUGED_CLI, samples, *argv],
            cwd=self.work, env=self.env, capture_output=True, text=True,
            timeout=CLI_TIMEOUT_S,
        )
        wall = time.perf_counter() - t0
        with open(samples, encoding="utf-8") as fh:
            child_samples = json.load(fh)
        os.remove(samples)
        if self.gauge is not None:
            self.gauge.add(child_samples)
        return proc.returncode, proc.stdout + proc.stderr, wall

    def import_seconds(self):
        """Time of ``import qselci.cli`` in a fresh interpreter."""
        code = ("import time; t = time.perf_counter(); import qselci.cli; "
                "print(time.perf_counter() - t)")
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=self.work, env=self.env,
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True,
        )
        return float(proc.stdout.split()[-1])

    def op(self, i, seed):
        runs = {}
        for sub in CLI_SUBCOMMANDS:
            out = os.path.join(self.work, f"{sub}.report.json")
            if os.path.exists(out):
                os.remove(out)
            code, text, wall = self.run_cli(self._argv(sub, seed) + ["--out", out])
            report = None
            if code == 0 and os.path.exists(out):
                with open(out, encoding="utf-8") as fh:
                    report = json.load(fh)
            runs[sub] = {"code": code, "text": text, "wall_s": wall,
                         "report": report}
        return runs

    def check(self, runs):
        errors = []
        for sub, run in runs.items():
            if run["code"] != 0:
                errors.append(f"{sub} exited {run['code']}")
            if "Traceback" in run["text"]:
                errors.append(f"{sub} printed a traceback")
            if run["report"] is None:
                errors.append(f"{sub} wrote no report")
                continue
            try:
                self.jsonschema.validate(run["report"], self.schema)
            except self.jsonschema.ValidationError as exc:
                errors.append(f"{sub} report invalid: {exc.message}")
        if errors:
            return errors, {}
        qsci = runs["qsci"]["report"]["result"]
        pt2 = runs["pt2"]["report"]["result"]
        errors += _variational_errors("qsci", qsci["energy"], self.exact)
        if pt2["energy"] != qsci["energy"]:
            errors.append("pt2 read another wavefunction than qsci wrote")
        values = {
            "accuracy.energy_err_mha": (qsci["energy"] - self.exact) * HA_TO_MHA,
            "accuracy.pt2_err_mha": abs(pt2["energy_plus_pt2"] - self.exact)
            * HA_TO_MHA,
        }
        for sub, run in runs.items():
            values[f"cli.{sub}.wall_s"] = run["wall_s"]
            values[f"cli.{sub}.stage_s"] = sum(
                run["report"]["manifest"]["timings"].values()
            )
        return errors, values


WORKLOADS = {
    w.name: w for w in (QsciHubbard8, Sample20q, RefineDense8, CliSession)
}
