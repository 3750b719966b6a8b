"""The benchmark's in-process workloads still run against the library.

``benchmarks/workloads.py`` calls library functions and fields by name
(``sampling.sample(..., noise=)``, ``Wavefunction.dets``,
``dets.enumerate_space`` through ``benchmarks/generators.py``, ...).  This
runs one set-up, one op and the op's checks of each in-process workload,
so a library change that breaks one of those calls fails here rather than
only in a benchmark run.  ``cli-session`` runs the CLI, which the golden
cases cover.
"""

import sys

import pytest

import helpers

sys.path.insert(0, str(helpers.ROOT / "benchmarks"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["qsci-hubbard8", "sample-20q",
                                  "refine-dense8"])
def test_workload_setup_op_and_check_run(name, tmp_path):
    workload = workloads.WORKLOADS[name](str(helpers.ROOT), str(tmp_path))
    workload.setup(11)
    errors, _ = workload.check(workload.op(0, 11))
    assert errors == []
