"""Checked-in CLI and demo outputs: the cases, the runner, and the
comparison rule.

Each case is a list of ``qselci`` invocations run in one fresh directory,
so a ``--save-wf`` file written by one step can feed the next.  Every
directory starts with ``in.json``, the wavefunction of
``qsci --fixture hubbard4 --shots 20000 --seed 7`` (the ``WF`` of
``helpers.BAD_OPTION_VALUES``).  For each step the record keeps the argv,
the exit code, stdout, stderr, the JSON report with the values of
``manifest.timings`` and ``manifest.versions`` set to null (keys kept),
and every file the step wrote or changed; a file past ``LARGE_FILE``
bytes is kept as its size and sha256.

Steps run in-process through ``cli_dispatch`` with ``COLUMNS=80`` and
each Python warning shown once per message and place, as a fresh
interpreter shows a ``UserWarning`` (``cli_dispatch`` writes each one to
stderr as a ``warning: <message>`` line), except the few marked
``SUBPROCESS``, which run a fresh interpreter and so also pin the
exit-code and traceback contract and the real stderr.  The ``SCRIPT``
steps run one of the ``DEMOS`` scripts in a fresh interpreter, so the
demos' printed numbers are pinned like the CLI's.

Comparison (``matches``): when the numpy, SciPy and Python versions
recorded with the outputs are the running ones, a record must equal its
golden exactly.  Otherwise floats, and the numbers inside text, must
agree to ``REL_TOL`` relative, sha256 digests are not compared, and the
``--help`` texts (which follow argparse's version) are skipped.

Rewrite the outputs after an intended change with

    PYTHONPATH=src python tests/golden/regen.py

and review the change as a git diff; it prints the names of the cases it
added, removed or changed, and then those of the changed cases that also
differ by more than ``REL_TOL`` (``_close``), which moved by more than
their last bits.
"""

import hashlib
import io
import json
import math
import os
import re
import shutil
import sys
import tempfile
import warnings
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import scipy

TESTS = Path(__file__).resolve().parents[1]
if str(TESTS) not in sys.path:
    sys.path.insert(0, str(TESTS))

import helpers  # noqa: E402
from qselci.cli import OPTIONS, cli_dispatch  # noqa: E402

OUTPUTS = Path(__file__).resolve().parent / "outputs.json"
LARGE_FILE = 8192
REL_TOL = 1e-10
ABS_TOL = 1e-12

SEED_WF = ["qsci", "--fixture", "hubbard4", "--shots", "20000", "--seed",
           "7", "--save-wf", "in.json", "--out", "in.report.json"]
NOISE = ["--depol-p", "0.05", "--eps0", "0.02", "--eps1", "0.03"]
SUBPROCESS = "subprocess"
SCRIPT = "script"
DEMOS = sorted((helpers.ROOT / "demos").glob("[0-9][0-9]_*.py"))
CONFLICTING_FCIDUMP = ("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n"
                       " 0.6746 1 1 1 1\n 0.1813 2 1 2 1\n"
                       " 0.6636 2 2 1 1\n 0.6975 2 2 2 2\n"
                       " 0.7000 2 2 1 1\n-1.2524 1 1 0 0\n"
                       "-0.4759 2 2 0 0\n-1.2000 1 1 0 0\n"
                       "-0.5800 1 0 0 0\n 0.7137 0 0 0 0\n")


def _slug(argv):
    return re.sub(r"[^A-Za-z0-9.]+", "-", " ".join(argv)).strip("-")


def demo_case(path):
    """The name of the case that runs the demo script at ``path``."""
    return f"demos-{path.stem}"


def _cases():
    """{name: [step, ...]}; a step is an argv list, or a dict with the argv,
    input files to write first (text or bytes), whether to run it in a
    subprocess or as a script of the repository, and the report path when
    a config file sets ``out``."""
    cases = {}
    for f in ("hubbard4", "two-orbital"):
        fx = ["--fixture", f]
        cases.update({
            f"{f}-fcidump-info": [["fcidump-info", *fx]],
            f"{f}-fci-save-wf": [["fci", *fx, "--save-wf", "wf.json",
                                  "--out", "r.json"]],
            f"{f}-usci-build": [["usci-build", *fx,
                                 "--save-circuit", "circuit.json"]],
            f"{f}-qsci": [["qsci", *fx]],
            f"{f}-qsci-noisy": [["qsci", *fx, *NOISE]],
            f"{f}-sample-csv": [["sample", *fx, "--csv", "counts.csv"]],
            f"{f}-sample-csv-noisy": [["sample", *fx, "--csv", "counts.csv",
                                       *NOISE]],
            f"{f}-sample-lucj": [["sample", *fx, "--ansatz", "lucj"]],
            f"{f}-optimize-max-evals": [["qsci", *fx, "--optimize",
                                         "--max-evals", "12"]],
            f"{f}-optimize-patience": [["qsci", *fx, "--optimize",
                                        "--patience", "3"]],
            f"{f}-qsci-pg": [["qsci", *fx, "--pg", "0.002", "--n2q", "12"]],
            f"{f}-demo": [["demo", *fx]],
            f"{f}-save-wf-chain": [
                ["qsci", *fx, "--shots", "20000", "--save-wf", "wf.json",
                 "--out", "qsci.json"],
                ["expand", *fx, "--in", "wf.json", "--iters", "2",
                 "--save-wf", "wf2.json"],
                ["pt2", *fx, "--in", "wf.json"],
                ["analyze", "--in", "wf.json", "--mi-edges", "edges.csv"],
            ],
        })
    chain = ["--fixture", "h-chain-synthetic"]
    cases.update({
        # the second expansion reaches the whole 400-determinant sector, so
        # the last pt2 has no external determinant
        "h-chain-synthetic-save-wf-chain": [
            ["qsci", *chain, "--save-wf", "wf.json", "--out", "qsci.json"],
            ["expand", *chain, "--in", "wf.json", "--iters", "2",
             "--save-wf", "wf2.json"],
            ["pt2", *chain, "--in", "wf.json"],
            ["pt2", *chain, "--in", "wf2.json"],
        ],
        # few shots and a cap per iteration leave a pool of a few hundred
        "h-chain-synthetic-save-wf-chain-top-k": [
            ["qsci", *chain, "--shots", "300", "--save-wf", "wf.json",
             "--out", "qsci.json"],
            ["expand", *chain, "--in", "wf.json", "--iters", "2",
             "--top-k", "10", "--save-wf", "wf2.json"],
            ["pt2", *chain, "--in", "wf2.json"],
        ],
        # the per-gate strength needs a gate count and lies in [0, 1], and
        # when given it replaces --depol-p (result as hubbard4-qsci-pg)
        "hubbard4-qsci-pg-without-n2q": [
            ["qsci", "--fixture", "hubbard4", "--pg", "0.002"]],
        "hubbard4-qsci-pg-above-one": [
            ["qsci", "--fixture", "hubbard4", "--pg", "1.5", "--n2q", "12"]],
        "hubbard4-qsci-pg-over-depol-p": [
            ["qsci", "--fixture", "hubbard4", "--depol-p", "0.9", "--pg",
             "0.002", "--n2q", "12"]],
        "hubbard4-sample-csv-eps0-above-eps1": [
            ["sample", "--fixture", "hubbard4", "--csv", "counts.csv",
             "--eps0", "0.04", "--eps1", "0.01"]],
        "two-orbital-sample-csv-eps0-zero": [
            ["sample", "--fixture", "two-orbital", "--csv", "counts.csv",
             "--eps0", "0", "--eps1", "0.05"]],
        # at cutoff 0 the 36 determinants give multi-step decompositions
        "hubbard4-usci-build-layers-orbital-rotation": [
            ["usci-build", "--fixture", "hubbard4", "--cutoff", "0",
             "--layers", "3", "--orbital-rotation",
             "--save-circuit", "circuit.json"]],
        "hubbard4-usci-build-degree-cap-layers": [
            ["usci-build", "--fixture", "hubbard4", "--cutoff", "0",
             "--degree-cap", "1", "--layers", "2",
             "--save-circuit", "circuit.json"]],
        # an unknown ansatz is refused before the pilot, whose prescreen
        # would find no determinant at cutoff 2
        "sample-ansatz-foo": [
            ["sample", "--fixture", "hubbard4", "--ansatz", "foo"]],
        "sample-ansatz-foo-cutoff-2": [
            ["sample", "--fixture", "hubbard4", "--ansatz", "foo",
             "--cutoff", "2"]],
        "two-orbital-sample-csv-layers-orbital-rotation-noisy": [
            ["sample", "--fixture", "two-orbital", "--layers", "2",
             "--orbital-rotation", *NOISE, "--csv", "shots.csv"]],
        "bounds-preset": [["bounds", "--preset", "cas10-10"]],
        "bounds-all-inputs": [[
            "bounds", "--n", "10", "--m", "10", "--f2q", "0.99", "--q-r",
            "0.9", "--lambda-h", "2", "--p", "0.01", "--r", "50", "--d",
            "63504", "--shots", "100000", "--delta", "0.05", "--k-pool",
            "200", "--gap-id", "0.001", "--out", "r.json",
        ]],
        # full depolarization leaves no weight to invert, only that bound
        "bounds-full-depolarization": [[
            "bounds", "--p", "1", "--lambda-h", "1", "--q-r", "0.5",
            "--shots", "100", "--delta", "0.1", "--r", "5", "--d", "100",
        ]],
        "config-file": [{
            "argv": ["qsci", "--fixture", "hubbard4", "--config", "run.cfg",
                     "--seed", "11"],
            "files": {"run.cfg": "# a comment\nshots = 5000\nseed = 3\n"
                                 "depol_p = 0.02\neps1 = 0.01\n"},
        }],
        # dashed and underscored keys, switches as yes and false, and a
        # flag over a file value
        "config-file-key-spellings": [{
            "argv": ["qsci", "--config", "run.cfg", "--shots", "3000"],
            "files": {"run.cfg": "# noise and circuit\n\nfixture = hubbard4\n"
                                 "depol-p = 0.02\ntop_m = 4\n"
                                 "orbital_rotation = yes\noptimize = false\n"
                                 "shots = 5000\nseed = 5\n"},
        }],
        "config-file-switch-flag-over-file": [{
            "argv": ["qsci", "--fixture", "two-orbital", "--config", "run.cfg",
                     "--optimize"],
            "files": {"run.cfg": "optimize = false\nmax-evals = 6\n"
                                 "shots = 2000\n"},
        }],
        "config-file-in-keys": [
            {"argv": ["pt2", "--fixture", "hubbard4", "--config", "a.cfg"],
             "files": {"a.cfg": "in = in.json\n"}},
            {"argv": ["pt2", "--config", "b.cfg"],
             "files": {"b.cfg": "infile = in.json\nfixture = hubbard4\n"}},
            {"argv": ["analyze", "--config", "c.cfg"],
             "files": {"c.cfg": "in = in.json\n"}},
            {"argv": ["analyze", "--config", "d.cfg"],
             "files": {"d.cfg": "# edges above a threshold\ninfile = in.json\n"
                                "mi-edges = edges.csv\nmi_threshold = 0.01\n"}},
        ],
        "config-file-bad-boolean": [{
            "argv": ["qsci", "--fixture", "hubbard4", "--config", "run.cfg"],
            "files": {"run.cfg": "shots = 100\n\noptimize = maybe\n"},
        }],
        "config-file-key-of-another-subcommand": [{
            "argv": ["pt2", "--fixture", "hubbard4", "--config", "run.cfg"],
            "files": {"run.cfg": "# pt2 takes no shot count\nin = in.json\n"
                                 "shots = 100\n"},
        }],
        # the --config flag names the file, so the file cannot name another
        "config-file-config-key": [{
            "argv": ["bounds", "--config", "c.cfg", "--n", "4", "--m", "2"],
            "files": {"c.cfg": "n = 4\nconfig = other.cfg\n"},
        }],
        # the readout rates and the circuit in the file, the CSV by flag
        "config-file-sample-readout": [{
            "argv": ["sample", "--config", "run.cfg", "--csv", "counts.csv"],
            "files": {"run.cfg": "fixture = two-orbital\nshots = 3000\n"
                                 "seed = 4\neps0 = 0.03\neps1 = 0.01\n"
                                 "layers = 2\n"},
        }],
        "config-file-fci": [{
            "argv": ["fci", "--config", "run.cfg"],
            "files": {"run.cfg": "fixture = hubbard4\ncap = 100\n"
                                 "save-wf = wf.json\n"},
        }],
        "config-file-expand": [{
            "argv": ["expand", "--config", "run.cfg"],
            "files": {"run.cfg": "fixture = hubbard4\nin = in.json\n"
                                 "iters = 2\ntop_k = 5\ntau = 0.001\n"},
        }],
        "config-file-bounds": [{
            "argv": ["bounds", "--config", "run.cfg"],
            "files": {"run.cfg": "preset = cas10-10\nshots = 50000\n"
                                 "delta = 0.01\n"},
        }],
        "config-file-usci-build": [{
            "argv": ["usci-build", "--config", "run.cfg"],
            "files": {"run.cfg": "fixture = hubbard4\ncutoff = 0\nlayers = 2\n"
                                 "orbital-rotation = yes\n"
                                 "save-circuit = circuit.json\n"},
        }],
        "config-file-fcidump-info": [{
            "argv": ["fcidump-info", "--config", "run.cfg"],
            "files": {"run.cfg": "fcidump = h2.fcidump\n",
                      "h2.fcidump": "&FCI NORB=2,NELEC=2,MS2=0,\n&END\n"
                                    " 0.6746 1 1 1 1\n 0.1813 2 1 2 1\n"
                                    " 0.6636 2 2 1 1\n 0.6975 2 2 2 2\n"
                                    "-1.2524 1 1 0 0\n-0.4759 2 2 0 0\n"
                                    " 0.7137 0 0 0 0\n"},
        }],
        # the report to the file's path, the summary lines to stdout
        "config-file-out": [{
            "argv": ["fci", "--config", "run.cfg"],
            "files": {"run.cfg": "fixture = two-orbital\nout = r.json\n"},
            "out": "r.json",
        }],
        "config-file-demo": [{
            "argv": ["demo", "--config", "run.cfg"],
            "files": {"run.cfg": "fixture = two-orbital\nshots = 2000\n"
                                 "seed = 3\ndepol-p = 0.01\neps0 = 0.01\n"
                                 "eps1 = 0.02\ntau = 0.001\n"},
        }],
        # a conflicting h, a conflicting g and an orbital-energy record
        "fcidump-info-warnings": [{
            "argv": ["fcidump-info", "--fcidump", "h2.fcidump"],
            "files": {"h2.fcidump": CONFLICTING_FCIDUMP},
        }],
        "subprocess-fcidump-info-warnings": [{
            "argv": ["fcidump-info", "--fcidump", "h2.fcidump"],
            "files": {"h2.fcidump": CONFLICTING_FCIDUMP}, SUBPROCESS: True,
        }],
        "fci-save-wf-unwritable-report": [
            ["fci", "--fixture", "hubbard4", "--save-wf", "wf.json",
             "--out", "nodir/r.json"]],
        "analyze-mi-edges-unwritable-report": [
            ["analyze", "--in", "in.json", "--mi-edges", "edges.csv",
             "--out", "nodir/r.json"]],
        "subprocess-unknown-fixture": [
            {"argv": ["fci", "--fixture", "nope"], SUBPROCESS: True}],
        "subprocess-optimize-max-evals": [
            {"argv": ["qsci", "--fixture", "hubbard4", "--optimize",
                      "--max-evals", "12"], SUBPROCESS: True}],
        "help": [["--help"]],
    })
    for sub in OPTIONS:
        cases[f"help-{sub}"] = [[sub, "--help"]]
    for argv in helpers.BAD_OPTION_VALUES:
        argv = ["in.json" if a == "WF" else a for a in argv]
        files = {}
        if "--config" in argv:  # the argument after --config is the file text
            k = argv.index("--config") + 1
            files = {"run.cfg": argv[k] + "\n"}
            argv[k] = "run.cfg"
        cases["bad-" + _slug(argv)] = [{"argv": argv, "files": files}]
    for name, (argv, content, _) in helpers.BAD_INPUT_FILES.items():
        cases["bad-input-" + name] = [{"argv": [*argv, "input"],
                                       "files": {"input": content}}]
    for path in DEMOS:
        cases[demo_case(path)] = [
            {"argv": [path.relative_to(helpers.ROOT).as_posix()], SCRIPT: True}]
    return cases


CASES = _cases()


def versions():
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
    }


@contextmanager
def _in_directory(path):
    old_cwd, old_columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(path)
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal
    try:
        yield
    finally:
        os.chdir(old_cwd)
        if old_columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = old_columns


def _invoke(step):
    """(exit code, stdout, stderr) of one qselci run, or one script run, in
    the current directory."""
    argv = step["argv"]
    if step.get(SUBPROCESS) or step.get(SCRIPT):
        args = ([str(helpers.ROOT / argv[0]), *argv[1:]] if step.get(SCRIPT)
                else ["-m", "qselci.cli", *argv])
        proc = helpers.run_python(args, cwd=os.getcwd())
        return proc.returncode, proc.stdout, proc.stderr
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("default")
        code = cli_dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def _snapshot(directory):
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _file_record(data):
    if len(data) > LARGE_FILE:
        return {"size": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    return data.decode("utf-8")


def _normalized(report):
    manifest = report["manifest"]
    for key in ("timings", "versions"):
        manifest[key] = dict.fromkeys(manifest[key])
    return report


def run_step(step, directory):
    """The record of one step, run in ``directory``."""
    if isinstance(step, list):
        step = {"argv": step}
    argv = step["argv"]
    for name, content in step.get("files", {}).items():
        if isinstance(content, str):
            content = content.encode("utf-8")
        (directory / name).write_bytes(content)
    before = _snapshot(directory)
    with _in_directory(directory):
        code, out, err = _invoke(step)
    written = {k: v for k, v in _snapshot(directory).items()
               if before.get(k) != v}
    report = None
    out_path = step.get("out", argv[argv.index("--out") + 1]
                        if "--out" in argv else None)
    if out_path in written:
        report = json.loads(written.pop(out_path))
    elif code == 0 and out.startswith("{"):
        report, out = json.loads(out), None
    return {
        "argv": argv,
        "exit_code": code,
        "stdout": out,
        "stderr": err,
        "report": report and _normalized(report),
        "files": {k: _file_record(v) for k, v in written.items()},
    }


def make_seed(directory):
    """Write the shared input wavefunction into ``directory``; returns its
    path."""
    record = run_step(SEED_WF, directory)
    assert record["exit_code"] == 0, record
    return directory / "in.json"


def run_case(name, directory, seed):
    shutil.copy(seed, directory / "in.json")
    return [run_step(step, directory) for step in CASES[name]]


_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")
_SHA256 = re.compile(r"[0-9a-f]{64}")


def _close(expected, actual):
    """Equal, with floats and the numbers inside strings to REL_TOL, and
    sha256 digests not compared."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) == {"size", "sha256"}:
            return isinstance(actual, dict) and set(actual) == set(expected)
        return expected.keys() == actual.keys() and all(
            _close(expected[k], actual[k]) for k in expected)
    if isinstance(expected, list) and isinstance(actual, list):
        return len(expected) == len(actual) and all(
            map(_close, expected, actual))
    if isinstance(expected, float) and isinstance(actual, float):
        return math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    if isinstance(expected, str) and isinstance(actual, str):
        if _SHA256.fullmatch(expected):
            return _SHA256.fullmatch(actual) is not None
        e, a = _NUMBER.split(expected), _NUMBER.split(actual)
        return len(e) == len(a) and all(
            x == y if k % 2 == 0 else math.isclose(
                float(x), float(y), rel_tol=REL_TOL, abs_tol=ABS_TOL)
            for k, (x, y) in enumerate(zip(e, a)))
    return type(expected) is type(actual) and expected == actual


def matches(expected, actual, recorded_versions):
    """Whether a case's records match its golden (see the module
    docstring)."""
    actual = json.loads(json.dumps(actual))
    if recorded_versions == versions():
        return expected == actual
    if any("--help" in step["argv"] for step in expected):
        return True
    return _close(expected, actual)


def load():
    with open(OUTPUTS, encoding="utf-8") as fh:
        return json.load(fh)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "seed").mkdir()
        seed = make_seed(tmp / "seed")
        cases = {}
        for name in sorted(CASES):
            (tmp / name).mkdir()
            cases[name] = run_case(name, tmp / name, seed)
    old = load()["cases"] if OUTPUTS.exists() else {}
    text = json.dumps({"versions": versions(), "cases": cases},
                      indent=1, sort_keys=True, ensure_ascii=False)
    OUTPUTS.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {OUTPUTS}")
    cases = json.loads(text)["cases"]
    changed = {k for k in cases.keys() & old.keys() if cases[k] != old[k]}
    for label, names in (
            ("added", cases.keys() - old.keys()),
            ("removed", old.keys() - cases.keys()),
            ("changed", changed),
            (f"changed past {REL_TOL:g}",
             {k for k in changed if not _close(old[k], cases[k])})):
        print(f"{label} ({len(names)}):", *sorted(names))


if __name__ == "__main__":
    main()
