"""The benchmark's in-process workloads still run against the library.

``benchmarks/workloads.py`` calls library functions and fields by name
(``sampling.sample(..., noise=)``, ``Wavefunction.dets``,
``dets.enumerate_space`` through ``benchmarks/generators.py``, ...).  This
runs one set-up, one op and the op's checks of each in-process workload,
so a library change that breaks one of those calls fails here rather than
only in a benchmark run.  It also runs op 0 under the tracer of
``benchmarks/spans.py``, which ``run.py --trace 1`` installs to read the
per-layer metrics: the traced op must give the plain op's output, record
the spans those metrics read, count mat-vecs, and leave every qselci
binding as it found it.  ``cli-session`` runs the CLI, which the golden
cases cover.
"""

import sys

import pytest

import helpers

sys.path.insert(0, str(helpers.ROOT / "benchmarks"))
import spans  # noqa: E402
import workloads  # noqa: E402

# the spans each workload's op makes, of those the per-layer metrics read
TRACED_SPANS = {
    "qsci-hubbard8": {"simulator.apply_circuit", "sampling.sample",
                      "hamiltonian.build_subspace", "hamiltonian.davidson"},
    "sample-20q": {"simulator.apply_circuit", "sampling.sample"},
    "refine-dense8": {"expansion.expand", "expansion.pt2",
                      "hamiltonian.build_subspace", "hamiltonian.davidson"},
}


@pytest.fixture(scope="module", params=list(TRACED_SPANS))
def workload(request, tmp_path_factory):
    name = request.param
    workload = workloads.WORKLOADS[name](str(helpers.ROOT),
                                         str(tmp_path_factory.mktemp(name)))
    workload.setup(11)
    return workload


def test_workload_setup_op_and_check_run(workload):
    errors, _ = workload.check(workload.op(0, 11))
    assert errors == []


def _output_bytes(workload, output):
    """The energies and kept outcomes of an op's output, as bytes."""
    if workload.name == "qsci-hubbard8":
        return [repr(output.energy), output.counts.index.tobytes()]
    if workload.name == "sample-20q":
        kept, rejected, _dets = output
        return [kept.index.tobytes(), kept.shots.tobytes(), rejected]
    _psi, grown, pt2 = output
    return [repr(grown.energy_after), repr(pt2.delta_e)]


def _qselci_bindings():
    """(module, attribute, function) of every function a loaded qselci
    module binds."""
    return [
        (module, attr, value)
        for name, module in list(sys.modules.items())
        if name == "qselci" or name.startswith("qselci.")
        for attr, value in list(vars(module).items())
        if callable(value)
    ]


def test_traced_op_gives_the_plain_output_and_records_its_spans(workload):
    plain = workload.op(0, 11)
    before = _qselci_bindings()
    recorder = spans.Recorder()
    uninstall = spans.install(recorder)
    try:
        recorder.op = 0
        traced = workload.op(0, 11)
    finally:
        uninstall()
    assert all(getattr(module, attr) is value
               for module, attr, value in before)
    errors, _ = workload.check(traced)
    assert errors == []
    assert _output_bytes(workload, traced) == _output_bytes(workload, plain)
    names = {span.name for span in recorder.spans}
    assert TRACED_SPANS[workload.name] <= names
    if "hamiltonian.davidson" in names:
        assert recorder.counters[0, "hamiltonian.davidson_matvecs"] > 0
