"""Each narrated demo script runs to completion in a fresh interpreter and
prints its checked-in output (``tests/golden/regen.py``)."""

import pytest

from golden import regen

GOLDEN = regen.load()


def test_all_six_demos_found():
    assert len(regen.DEMOS) == 6


@pytest.fixture(scope="module", params=regen.DEMOS, ids=lambda p: p.stem)
def demo_run(request, tmp_path_factory):
    """(case name, records) of one demo run in a fresh directory."""
    name = regen.demo_case(request.param)
    directory = tmp_path_factory.mktemp(request.param.stem)
    return name, [regen.run_step(step, directory) for step in regen.CASES[name]]


def test_demo_runs_cleanly(demo_run):
    _name, (record,) = demo_run
    assert record["exit_code"] == 0, record["stderr"]
    assert "Traceback" not in record["stdout"] + record["stderr"]


def test_demo_output_matches_golden(demo_run):
    name, actual = demo_run
    expected = GOLDEN["cases"].get(name)
    assert expected is not None, f"{name} is not recorded; run regen.py"
    assert regen.matches(expected, actual, GOLDEN["versions"]), (
        f"{name} differs from tests/golden/outputs.json; if intended, rerun "
        "tests/golden/regen.py and review the diff"
    )
