"""Command-line interface: every pipeline stage as a subcommand.

Every invocation emits one JSON report with a fixed envelope — the
subcommand name, a reproducibility manifest (config echo, seeds, versions,
per-stage timings, digests of auxiliary output files), and a stage-specific
result object.  The envelope validates against the shipped
``schemas/report.schema.json``.  Reports are reproducible: the same config
and seed give identical JSON apart from the timing fields.

Configs can come from a flat ``key = value`` text file (``--config``);
explicit flags override file values, which override built-in defaults.
Keys are the long flag names with either dashes or underscores.

All randomness flows from the single ``--seed`` value: per-stage seeds are
derived from it through numpy's SeedSequence in a fixed documented order.
Exit codes: 0 success, 1 domain error (the error class name is printed),
2 usage error, including an option value the library rejects with
ValueError (printed the same way).  Each warning is one ``warning:
<message>`` line on stderr.

Start-up is most of a small run, so each handler imports the qselci modules
it calls when it runs, and those modules import scipy's submodules inside
the functions that call them: ``bounds`` or ``analyze`` never loads the
eigensolvers, and only ``qsci --optimize`` loads the optimizer.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time
import warnings
from contextlib import contextmanager, suppress

import numpy as np
import scipy

from . import __version__
from .errors import ConfigParseError, QselciError


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def _versions():
    return {
        "qselci": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
    }


class RunManifest:
    """Reproducibility envelope carried by every report; ``config`` is
    echoed when the report is made, with any value a handler filled in."""

    def __init__(self, config):
        self.config = config
        self.seeds = {}
        if "seed" in config:  # the master seed and the stage seeds it derives
            from .sampling import stage_seeds

            self.seeds = {"master": int(config["seed"]),
                          **stage_seeds(config["seed"])}
        self.versions = _versions()
        self.timings = {}
        self.digests = {}
        self.written = []
        self._open_stages = []

    @contextmanager
    def stage(self, name):
        """Time a stage; a stage opened inside another is recorded under
        ``outer/inner``, so repeated inner names do not collide."""
        self._open_stages.append(name)
        key = "/".join(self._open_stages)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._open_stages.pop()
        self.timings[key] = time.perf_counter() - t0

    def write_file(self, path, text):
        """Write an auxiliary output file, record its digest, and keep its
        path so that a failed run can remove it."""
        data = text.encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(data)
        self.written.append(path)
        self.digests[os.path.basename(path)] = hashlib.sha256(data).hexdigest()

    def to_json_dict(self):
        return {
            "config": _jsonify(self.config),
            "seeds": self.seeds,
            "versions": self.versions,
            "timings": self.timings,
            "digests": self.digests,
        }


def _jsonify(value):
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return repr(value)
    return value


# ---------------------------------------------------------------------------
# option tables and config files
# ---------------------------------------------------------------------------

def _bool_from_text(text):
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# (flag, type, default, help); type None marks store_true switches
_COMMON = [
    ("--out", str, None, "path for the JSON report (default: stdout)"),
    ("--config", str, None, "flat key=value config file"),
]

_TABLE_SRC = [
    ("--fcidump", str, None, "integral file to load"),
    ("--fixture", str, None,
     "built-in system: hubbard4 | two-orbital | h-chain-synthetic"),
]

_PER_GATE = [
    ("--pg", float, None, "per-gate error rate (overrides --depol-p)"),
    ("--n2q", int, None, "two-qubit gate count for --pg aggregation"),
]

_READOUT = [
    ("--eps0", float, 0.0, "readout flip probability 0->1"),
    ("--eps1", float, 0.0, "readout flip probability 1->0"),
]

_PRESCREEN = [
    ("--cutoff", float, 0.01, "prescreen amplitude cutoff"),
    ("--top-m", int, None, "prescreen size cap"),
]

_CIRCUIT = [
    ("--layers", int, 1, "ansatz layer count"),
    ("--degree-cap", int, None, "per-qubit excitation-partner cap"),
    ("--orbital-rotation", None, False,
     "prepend one-body rotation gates to each layer"),
]

# single rows that more than one subcommand lists
_DEPOL = ("--depol-p", float, 0.0, "global depolarizing strength")
_SHOTS = ("--shots", int, 100_000, "measurement shots")
_SEED = ("--seed", int, 2026, "master randomness seed")
_ITERS = ("--iters", int, 1, "expansion iterations")
_SAVE_WF = ("--save-wf", str, None, "write the final wavefunction")

_SAMPLED = _COMMON + _TABLE_SRC + _PRESCREEN + _CIRCUIT + [
    ("--init-angle", float, 0.15,
     "uniform initial rotation angle for unoptimized runs"),
    _DEPOL,
] + _PER_GATE + _READOUT

OPTIONS = {
    "fcidump-info": _COMMON + _TABLE_SRC,
    "fci": _COMMON + _TABLE_SRC + [
        ("--cap", int, 10 ** 7, "maximum FCI dimension"),
        ("--save-wf", str, None, "write the wavefunction JSON"),
    ],
    "usci-build": _COMMON + _TABLE_SRC + _PRESCREEN + _CIRCUIT + [
        ("--save-circuit", str, None, "write the circuit JSON"),
    ],
    "qsci": _SAMPLED + [
        _SHOTS,
        _SEED,
        ("--optimize", None, False,
         "run derivative-free parameter optimization"),
        ("--max-evals", int, 500, "optimizer evaluation budget"),
        ("--opt-tol", float, 1e-8, "optimizer energy tolerance"),
        ("--patience", int, 10,
         "evaluations without improvement before stopping"),
        _SAVE_WF,
    ],
    "sample": _SAMPLED + [
        ("--ansatz", str, "usci", "usci | lucj"),
        ("--shots", int, 10_000, "measurement shots"),
        _SEED,
        ("--top", int, 20, "how many strings to list in the report"),
        ("--csv", str, None, "write bitstring,count rows to a file"),
    ],
    "expand": _COMMON + _TABLE_SRC + [
        ("--in", str, None, "wavefunction JSON to start from"),
        ("--tau", float, 0.0, "coupling-score threshold"),
        _ITERS,
        ("--top-k", int, None, "cap on additions per iteration"),
        _SAVE_WF,
    ],
    "pt2": _COMMON + _TABLE_SRC + [
        ("--in", str, None, "wavefunction JSON to correct"),
    ],
    "bounds": _COMMON + [
        ("--preset", str, None, "named input bundle: cas10-10"),
        ("--n", int, None, "active-space spatial orbitals"),
        ("--m", int, None, "active-space electrons (closed shell)"),
        ("--n-alpha", int, None, "alpha electrons (open shell)"),
        ("--n-beta", int, None, "beta electrons (open shell)"),
        ("--f2q", float, None, "two-qubit survival fidelity"),
        ("--q-r", float, None, "exact retained weight"),
        ("--lambda-h", float, None, "spectral half-width (Ha)"),
        ("--p", float, 0.0, "global depolarizing strength"),
        ("--r", int, None, "retained-set size"),
        ("--d", int, None, "full-space dimension"),
        ("--shots", int, None, "measurement shots M"),
        ("--delta", float, None, "confidence parameter"),
        ("--zeta-r", float, 0.0, "distribution-mismatch allowance"),
        ("--delta-r", float, None, "noisy boundary gap"),
        ("--k-pool", int, None, "candidate-pool size"),
        ("--gap-id", float, None, "ideal boundary gap"),
        ("--p-hat-r", float, None, "measured cumulative weight"),
    ],
    "analyze": _COMMON + [
        ("--in", str, None, "wavefunction JSON to analyze"),
        ("--mi-edges", str, None,
         "write the mutual-information edge list (i,j,weight CSV)"),
        ("--mi-threshold", float, 0.0, "minimum weight for exported edges"),
    ],
    "demo": _COMMON + [
        ("--fixture", str, "hubbard4",
         "hubbard4 | two-orbital | h-chain-synthetic"),
        _SHOTS,
        _SEED,
        _DEPOL,
    ] + _READOUT + _PRESCREEN + [
        ("--init-angle", float, 0.15,
         "uniform rotation angle for the sampling circuits"),
        ("--tau", float, 0.0, "expansion score threshold"),
        _ITERS,
    ],
}


def _dest(name):
    """The option name of flag ``--name`` and of config key ``name``: dashes
    read as underscores, and ``in`` (a Python keyword) stored as ``infile``."""
    name = name.replace("-", "_")
    return "infile" if name == "in" else name


def build_parser():
    """The qselci parser and the map from each subcommand to its parser."""
    parser = argparse.ArgumentParser(
        prog="qselci",
        description="Determinant-sampling selected-CI pipeline.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, rows in OPTIONS.items():
        sub = subs.add_parser(name)
        for flag, typ, default, help_text in rows:
            kind = {"action": "store_true"} if typ is None else {"type": typ}
            sub.add_argument(flag, dest=_dest(flag[2:]), default=default,
                             help=help_text, **kind)
    return parser, subs.choices


def parse_config_file(path, option_rows):
    """Flat ``key = value`` file; keys are long flag names (dash or
    underscore) other than ``config``, one per line, with # comments and
    blank lines allowed."""
    types = {_dest(flag[2:]): typ for flag, typ, _d, _h in option_rows
             if flag != "--config"}
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read config file: {exc}") from None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigParseError("expected key = value", line_no)
        key, _, text = line.partition("=")
        key = key.strip()
        dest = _dest(key)
        if dest not in types:
            raise ConfigParseError(f"unknown key {key!r}", line_no)
        text = text.strip()
        typ = types[dest]
        try:
            if typ is None:
                values[dest] = _bool_from_text(text)
            else:
                values[dest] = typ(text)
        except ValueError:
            raise ConfigParseError(
                f"bad value {text!r} for key {key!r}", line_no
            ) from None
    return values


# ---------------------------------------------------------------------------
# shared handler helpers
# ---------------------------------------------------------------------------

def _load_table(opts):
    from .fcidump import parse_fcidump
    from .fixtures import fixture_table

    if opts.get("fcidump") and opts.get("fixture"):
        raise _UsageError("give either --fcidump or --fixture, not both")
    if opts.get("fcidump"):
        with open(opts["fcidump"], "r", encoding="utf-8") as fh:
            return parse_fcidump(fh)
    if opts.get("fixture"):
        return fixture_table(opts["fixture"])
    raise _UsageError("one of --fcidump or --fixture is required")


def _noise_from(opts):
    from .sampling import NoiseModel

    return NoiseModel(
        depolarizing_p=opts["depol_p"],
        per_gate_pg=opts.get("pg"),
        n_2q=opts.get("n2q"),
        readout_eps0=opts["eps0"],
        readout_eps1=opts["eps1"],
    )


def _load_wavefunction(opts, table=None):
    """The ``--in`` wavefunction, checked against ``table`` when given."""
    from .hamiltonian import Wavefunction

    if not opts.get("infile"):
        raise _UsageError("--in is required")
    with open(opts["infile"], "rb") as fh:
        psi = Wavefunction.from_json(fh.read())
    if table is not None:
        psi.check_table(table)
    return psi


def _wf_digest(wf, k=10):
    from .dets import bitstrings, rank_order

    weights = wf.coeffs ** 2
    top = rank_order(wf.masks, weights)[:k]
    return [
        {"determinant": s, "weight": w}
        for s, w in zip(bitstrings(wf.masks[top], wf.n_orbitals),
                        weights[top].tolist())
    ]


def _pilot_selection(table, opts, manifest):
    """The FCI pilot and its prescreened determinants; the first of them is
    the reference of any circuit built from the selection."""
    from .circuits import prescreen
    from .hamiltonian import fci_oracle

    with manifest.stage("reference_solution"):
        oracle = fci_oracle(table)
    return oracle, prescreen(oracle, opts["cutoff"], opts.get("top_m"))


def _ansatz(name, table, selected, opts):
    """The USCI circuit of the selection, or the cluster-Jastrow (LUCJ)
    comparison baseline with fixed, documented generators: nearest-neighbor
    one-body mixing plus a short-range phase.  Both start from the
    selection's first determinant."""
    from .circuits import build_lucj, build_usci

    n = table.n_orbitals
    if name == "lucj":
        K = np.diag(np.full(n - 1, 0.25), 1)
        J = 0.4 * np.eye(2 * n) + 0.2 * (np.eye(2 * n, k=1) + np.eye(2 * n, k=-1))
        return build_lucj(K - K.T, J, selected[0])
    return build_usci(selected[0], selected, n, layers=opts.get("layers", 1),
                      degree_cap=opts.get("degree_cap"),
                      with_orbital_rotation=bool(opts.get("orbital_rotation")))


def _sample_once(circuit, table, opts, manifest):
    """Raw (unfiltered) counts of one noisy sampling pass, with every
    parameter at ``--init-angle``."""
    from .pipeline import noisy_counts, prepared_state

    noise = _noise_from(opts)
    params = np.full(circuit.n_params, opts["init_angle"])
    with manifest.stage("simulate"):
        state = prepared_state(circuit, params, table.n_orbitals)
    with manifest.stage("sample"):
        return noisy_counts(state, opts["shots"], noise, opts["seed"])


def _shot_summary(counts, rejected):
    """Distinct strings of raw counts and the share of their shots left
    once the sector filter has ``rejected`` of them."""
    return {
        "n_unique_bitstrings": counts.index.size,
        "valid_fraction": (counts.total_shots - rejected) / counts.total_shots,
    }


def _expand(psi, table, opts, manifest, stage):
    """Up to ``--iters`` expansion steps, stopping at the first that adds
    nothing; returns the final wavefunction and a record per step."""
    from .expansion import expand_and_rediagonalize

    if opts["iters"] < 0:
        raise ValueError(f"iters must be nonnegative, got {opts['iters']}")
    steps = []
    with manifest.stage(stage):
        for _ in range(opts["iters"]):
            res = expand_and_rediagonalize(
                psi, table, opts["tau"], opts.get("top_k")
            )
            steps.append({
                "energy_before": res.energy_before,
                "energy_after": res.energy_after,
                "n_added": res.n_added,
            })
            psi = res.wavefunction_after
            if res.n_added == 0:
                break
    return psi, steps


# ---------------------------------------------------------------------------
# handlers: each returns (result dict, human-readable lines)
# ---------------------------------------------------------------------------

def _handle_fcidump_info(opts, manifest):
    from .fcidump import table_summary

    with manifest.stage("parse"):
        table = _load_table(opts)
    result = table_summary(table)
    lines = [f"{k}: {v}" for k, v in result.items()]
    return result, lines


def _handle_fci(opts, manifest):
    from .hamiltonian import fci_oracle

    table = _load_table(opts)
    with manifest.stage("diagonalize"):
        wf = fci_oracle(table, cap=opts["cap"])
    result = {
        "energy": wf.energy,
        "dimension": len(wf.masks),
        "core_energy": table.core_energy,
        "top_weights": _wf_digest(wf),
    }
    if opts.get("save_wf"):
        manifest.write_file(opts["save_wf"], wf.to_json())
    lines = [
        f"ground energy: {wf.energy:.10f} Ha over {len(wf.masks)} determinants"
    ]
    return result, lines


def _handle_usci_build(opts, manifest):
    from .circuits import gate_counts

    table = _load_table(opts)
    with manifest.stage("build"):
        _oracle, selected = _pilot_selection(table, opts, manifest)
        circuit = _ansatz("usci", table, selected, opts)
    counts = gate_counts(circuit)
    result = {
        "n_selected": len(selected),
        "reference": selected[0].to_bitstring(table.n_orbitals),
        "n_qubits": circuit.n_qubits,
        "gate_counts": counts,
    }
    if opts.get("save_circuit"):
        manifest.write_file(opts["save_circuit"], circuit.to_json())
    lines = [
        f"selected {len(selected)} determinants; "
        f"{counts['n_gates']} gates, {counts['n_params']} parameters, "
        f"depth {counts['depth']}"
    ]
    return result, lines


def _handle_qsci(opts, manifest):
    from .pipeline import OptimizerConfig, PipelineConfig, optimize, run_qsci_once

    table = _load_table(opts)
    _oracle, selected = _pilot_selection(table, opts, manifest)
    circuit = _ansatz("usci", table, selected, opts)
    cfg = PipelineConfig(
        shots=opts["shots"],
        noise=_noise_from(opts),
        optimizer=OptimizerConfig(
            max_evaluations=opts["max_evals"],
            energy_tol=opts["opt_tol"],
            patience=opts["patience"],
        ),
        seed=opts["seed"],
    )
    trace = None
    if opts.get("optimize") and circuit.n_params > 0:
        with manifest.stage("optimize"):
            params, trace = optimize(circuit, table, cfg)
    else:
        params = np.full(circuit.n_params, opts["init_angle"])
    with manifest.stage("qsci"):
        res = run_qsci_once(circuit, params, table, cfg)
    result = {
        "energy": res.energy,
        "n_unique_determinants": res.n_unique,
        "n_rejected_shots": res.n_rejected,
        "n_retained_shots": res.counts.total_shots,
        "params": [float(x) for x in params],
        "top_weights": _wf_digest(res.wavefunction),
    }
    if trace is not None:
        result["energy_trace"] = [float(e) for e in trace]
    if opts.get("save_wf"):
        manifest.write_file(opts["save_wf"], res.wavefunction.to_json())
    lines = [
        f"sampled-subspace energy: {res.energy:.10f} Ha "
        f"({res.n_unique} determinants, {res.n_rejected} shots rejected)"
    ]
    return result, lines


def _handle_sample(opts, manifest):
    from .sampling import symmetry_filter

    table = _load_table(opts)
    if opts["ansatz"] not in ("usci", "lucj"):
        raise _UsageError("--ansatz must be usci or lucj")
    _oracle, selected = _pilot_selection(table, opts, manifest)
    circuit = _ansatz(opts["ansatz"], table, selected, opts)
    counts = _sample_once(circuit, table, opts, manifest)
    result = {
        "ansatz": opts["ansatz"],
        "shots": counts.total_shots,
        **_shot_summary(counts, symmetry_filter(
            counts, table.n_alpha, table.n_beta)[1]),
        "top": [
            {"bitstring": s, "count": c} for s, c in counts.top(opts["top"])
        ],
    }
    if opts.get("csv"):
        manifest.write_file(opts["csv"], counts.to_csv())
    lines = [
        f"{counts.total_shots} shots, {counts.index.size} unique strings, "
        f"valid fraction {result['valid_fraction']:.4f}"
    ]
    return result, lines


def _handle_expand(opts, manifest):
    table = _load_table(opts)
    psi, iterations = _expand(
        _load_wavefunction(opts, table), table, opts, manifest, "expand"
    )
    result = {
        "iterations": iterations,
        "final_energy": psi.energy,
        "final_dimension": len(psi.masks),
    }
    if opts.get("save_wf"):
        manifest.write_file(opts["save_wf"], psi.to_json())
    lines = [
        f"iteration {i + 1}: {it['energy_before']:.10f} -> "
        f"{it['energy_after']:.10f} Ha (+{it['n_added']} determinants)"
        for i, it in enumerate(iterations)
    ]
    return result, lines


def _handle_pt2(opts, manifest):
    from .expansion import en_pt2

    table = _load_table(opts)
    psi = _load_wavefunction(opts, table)
    with manifest.stage("pt2"):
        res = en_pt2(psi, table)
    result = {
        "delta_e": res.delta_e,
        "n_external": res.n_external,
        "n_skipped": res.n_skipped,
        "energy": psi.energy,
        "energy_plus_pt2": psi.energy + res.delta_e,
    }
    lines = [
        f"second-order correction: {res.delta_e:.10f} Ha over "
        f"{res.n_external} external determinants "
        f"({res.n_skipped} skipped)"
    ]
    return result, lines


_PRESETS = {
    "cas10-10": {"n": 10, "m": 10, "f2q": 0.990},
}

# the BoundInputs fields filled by a bounds flag of another dest
_BOUND_DESTS = {"m_shots": "shots", "f_2q": "f2q", "n_orbitals": "n",
                "m_electrons": "m"}


def _handle_bounds(opts, manifest):
    from dataclasses import fields

    from .bounds import BoundInputs, full_report

    if opts.get("preset"):
        preset = _PRESETS.get(opts["preset"])
        if preset is None:
            raise _UsageError(
                f"unknown preset {opts['preset']!r}; "
                f"available: {sorted(_PRESETS)}"
            )
        per_spin = (opts.get("n_alpha"), opts.get("n_beta")) != (None, None)
        for key, value in preset.items():
            if opts.get(key) is None and not (key == "m" and per_spin):
                opts[key] = value
    inputs = BoundInputs(**{f.name: opts[_BOUND_DESTS.get(f.name, f.name)]
                            for f in fields(BoundInputs)})
    with manifest.stage("bounds"):
        report = full_report(inputs)
    result = report.to_json_dict()
    width = max(len(k) for k in result)
    lines = ["quantity".ljust(width) + "  value", "-" * (width + 12)]
    for key, value in result.items():
        shown = "-" if value is None else (
            f"{value:.6g}" if isinstance(value, float) else str(value)
        )
        lines.append(key.ljust(width) + "  " + shown)
    return result, lines


def _handle_analyze(opts, manifest):
    from .analysis import analyze

    psi = _load_wavefunction(opts)
    with manifest.stage("analyze"):
        report = analyze(psi)
    result = report.to_json_dict()
    if opts.get("mi_edges"):
        edges = report.mi_edge_list(opts["mi_threshold"])
        manifest.write_file(opts["mi_edges"], "i,j,weight\n" + "".join(
            f"{i},{j},{w:.12g}\n" for i, j, w in edges
        ))
    max_s = max(result["entropies"]) if result["entropies"] else 0.0
    lines = [
        f"{len(result['entropies'])} spin orbitals, "
        f"max entropy {max_s:.4f} nats (ceiling ln 2 = 0.6931)"
    ]
    return result, lines


def _handle_demo(opts, manifest):
    from .fixtures import fixture_table
    from .pipeline import solve_counts
    from .sampling import symmetry_filter

    table = fixture_table(opts["fixture"])
    oracle, selected = _pilot_selection(table, opts, manifest)
    dominant = selected[0].to_bitstring(table.n_orbitals)  # largest |c|
    counts = {}
    with manifest.stage("sampling_comparison"):
        for name in ("usci", "lucj"):
            circuit = _ansatz(name, table, selected, opts)
            with manifest.stage(name):
                counts[name] = _sample_once(circuit, table, opts, manifest)

    # the QSCI pass diagonalizes the USCI shots drawn for the comparison,
    # and its sector filter gives their valid fraction
    with manifest.stage("qsci"):
        qsci_res = solve_counts(counts["usci"], table)
    rejected = {"usci": qsci_res.n_rejected, "lucj": symmetry_filter(
        counts["lucj"], table.n_alpha, table.n_beta)[1]}
    comparison = {}
    for name, drawn in counts.items():
        top10 = [s for s, _c in drawn.top(10)]
        comparison[name] = {
            "ansatz": name,
            **_shot_summary(drawn, rejected[name]),
            "dominant_in_top10": dominant in top10,
            "top10": top10,
        }
    psi, expansion_steps = _expand(
        qsci_res.wavefunction, table, opts, manifest, "refine"
    )
    result = {
        "fixture": opts["fixture"],
        "oracle_energy": oracle.energy,
        "sampling_comparison": comparison,
        "qsci_energy": qsci_res.energy,
        "qsci_error": qsci_res.energy - oracle.energy,
        "refined_energy": psi.energy,
        "refined_error": psi.energy - oracle.energy,
        "expansion": expansion_steps,
        "n_unique_determinants": qsci_res.n_unique,
        "n_rejected_shots": qsci_res.n_rejected,
    }
    lines = [
        f"oracle energy      : {oracle.energy:.10f} Ha",
        f"sampled subspace   : {qsci_res.energy:.10f} Ha "
        f"(error {result['qsci_error']:+.3e})",
        f"after refinement   : {psi.energy:.10f} Ha "
        f"(error {result['refined_error']:+.3e})",
        "ansatz comparison  : "
        + "; ".join(
            f"{k}: {v['n_unique_bitstrings']} strings, "
            f"valid {v['valid_fraction']:.3f}, "
            f"dominant in top-10: {v['dominant_in_top10']}"
            for k, v in comparison.items()
        ),
    ]
    return result, lines


HANDLERS = {
    "fcidump-info": _handle_fcidump_info,
    "fci": _handle_fci,
    "usci-build": _handle_usci_build,
    "qsci": _handle_qsci,
    "sample": _handle_sample,
    "expand": _handle_expand,
    "pt2": _handle_pt2,
    "bounds": _handle_bounds,
    "analyze": _handle_analyze,
    "demo": _handle_demo,
}


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def cli_dispatch(argv):
    """Run one subcommand; returns the process exit code."""
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    manifest = None
    try:
        if args.config:
            # the file's values replace the built-in defaults, and parsing
            # the same argv again puts the flags over them
            subparsers[args.subcommand].set_defaults(**parse_config_file(
                args.config, OPTIONS[args.subcommand]))
            args = parser.parse_args(argv)
        opts = vars(args)
        subcommand = opts.pop("subcommand")
        for dest, value in opts.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(
                    f"--{dest.replace('_', '-')} must be finite, got {value}")
        manifest = RunManifest(config=opts)
        with warnings.catch_warnings():
            # each warning the handler raises goes to stderr as one line
            warnings.showwarning = lambda message, *_: print(
                f"warning: {message}", file=sys.stderr)
            result, lines = HANDLERS[subcommand](opts, manifest)
        report = {
            "subcommand": subcommand,
            "manifest": manifest.to_json_dict(),
            "result": _jsonify(result),
        }
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        if opts.get("out"):
            with open(opts["out"], "w", encoding="utf-8") as fh:
                fh.write(text)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (QselciError, ValueError, OSError) as exc:
        # a failed run, such as one whose report cannot be written, leaves
        # none of its auxiliary files behind
        for path in manifest.written if manifest else []:
            with suppress(OSError):
                os.remove(path)
        # the library rejects an option value with ValueError: a usage error
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1
    if opts.get("out"):
        print(*lines, f"report written to {opts['out']}", sep="\n")
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    raise SystemExit(cli_dispatch(argv))


if __name__ == "__main__":
    main()
