"""Every CLI case of ``tests/golden/regen.py`` replayed against its checked-in
outputs: stdout, stderr, exit code, report and written files."""

import pytest

from golden import regen

GOLDEN = regen.load()


@pytest.fixture(scope="module")
def seed_wavefunction(tmp_path_factory):
    return regen.make_seed(tmp_path_factory.mktemp("seed"))


def test_every_case_is_recorded():
    assert sorted(GOLDEN["cases"]) == sorted(regen.CASES)


@pytest.mark.parametrize("name", sorted(regen.CASES))
def test_cli_outputs_match_golden(tmp_path, seed_wavefunction, name):
    actual = regen.run_case(name, tmp_path, seed_wavefunction)
    expected = GOLDEN["cases"].get(name)
    assert expected is not None, f"{name} is not recorded; run regen.py"
    assert regen.matches(expected, actual, GOLDEN["versions"]), (
        f"{name} differs from tests/golden/outputs.json; if intended, rerun "
        "tests/golden/regen.py and review the diff"
    )
