"""Every CLI case of ``tests/golden/regen.py`` replayed against its checked-in
outputs: stdout, stderr, exit code, report and written files."""

import shutil
from collections import defaultdict

import pytest

from golden import regen
from qselci import cli

GOLDEN = regen.load()
# the demo cases are replayed by test_demos.py
CLI_CASES = sorted(regen.CASES.keys() - set(map(regen.demo_case, regen.DEMOS)))


@pytest.fixture(scope="module")
def seed_wavefunction(tmp_path_factory):
    return regen.make_seed(tmp_path_factory.mktemp("seed"))


def test_every_case_is_recorded():
    assert sorted(GOLDEN["cases"]) == sorted(regen.CASES)


@pytest.mark.parametrize("name", CLI_CASES)
def test_cli_outputs_match_golden(tmp_path, seed_wavefunction, name):
    actual = regen.run_case(name, tmp_path, seed_wavefunction)
    expected = GOLDEN["cases"].get(name)
    assert expected is not None, f"{name} is not recorded; run regen.py"
    assert regen.matches(expected, actual, GOLDEN["versions"]), (
        f"{name} differs from tests/golden/outputs.json; if intended, rerun "
        "tests/golden/regen.py and review the diff"
    )


class _ReadLog(dict):
    """Options that note each key read through ``[]`` or ``get``."""

    def __init__(self, opts, read):
        super().__init__(opts)
        self.read = read

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def test_every_listed_option_is_read(tmp_path, monkeypatch, seed_wavefunction):
    """Over the golden argv lists, each subcommand's handler reads every
    option the subcommand lists, apart from --out and --config, which
    dispatch reads."""
    listed, read = defaultdict(set), defaultdict(set)

    def logged(sub, handler):
        def run(opts, manifest):
            listed[sub].update(opts)
            return handler(_ReadLog(opts, read[sub]), manifest)
        return run

    monkeypatch.setattr(cli, "HANDLERS", {
        sub: logged(sub, handler) for sub, handler in cli.HANDLERS.items()})
    for name in CLI_CASES:
        (tmp_path / name).mkdir()
        shutil.copy(seed_wavefunction, tmp_path / name / "in.json")
        for step in regen.CASES[name]:
            if not (isinstance(step, dict) and step.get(regen.SUBPROCESS)):
                regen.run_step(step, tmp_path / name)
    unread = {sub: sorted(keys - read[sub] - {"out", "config"})
              for sub, keys in listed.items()}
    assert unread == {sub: [] for sub in cli.OPTIONS}
