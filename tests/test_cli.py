import hashlib
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import BAD_INPUT_FILES, BAD_OPTION_VALUES
from qselci.bounds import gate_budget, uniform_probability
from qselci.cli import (
    OPTIONS,
    SCHEMA_PATH,
    SUBCOMMANDS,
    _jsonify,
    build_parser,
    cli_dispatch,
)
from qselci.dets import enumerate_space
from qselci.fixtures import hubbard_chain_table


@pytest.fixture(scope="module")
def schema():
    with open(SCHEMA_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def saved_wavefunction(tmp_path_factory):
    path = tmp_path_factory.mktemp("wf") / "wf.json"
    code = cli_dispatch(
        ["qsci", "--fixture", "hubbard4", "--shots", "20000",
         "--seed", "7", "--save-wf", str(path), "--out",
         str(path.with_suffix(".report.json"))]
    )
    assert code == 0
    return path


def run_json(capsys, argv):
    code = cli_dispatch(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


# ------------------------------------------------------------------ exit codes

def test_no_arguments_is_usage_error():
    assert cli_dispatch([]) == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli_dispatch(["frobnicate"]) == 2
    capsys.readouterr()


def test_unknown_fixture_is_domain_error(capsys):
    assert cli_dispatch(["fci", "--fixture", "nope"]) == 1
    err = capsys.readouterr().err
    assert "UnknownFixture" in err


def test_missing_input_file_is_domain_error(capsys):
    assert cli_dispatch(["analyze", "--in", "/nonexistent/wf.json"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("out, error", [
    ("missing/report.json", "FileNotFoundError"), (".", "IsADirectoryError"),
], ids=["missing-directory", "directory"])
def test_unwritable_report_is_one_line_domain_error(capsys, monkeypatch,
                                                    tmp_path, out, error):
    monkeypatch.chdir(tmp_path)
    assert cli_dispatch(["bounds", "--preset", "cas10-10", "--out", out]) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {error}: ")
    assert captured.out == ""


@pytest.mark.parametrize("argv, written", [
    (["fci", "--fixture", "hubbard4", "--save-wf", "wf.json"], "wf.json"),
    (["analyze", "--in", "WF", "--mi-edges", "edges.csv"], "edges.csv"),
], ids=["fci-save-wf", "analyze-mi-edges"])
def test_unwritable_report_leaves_no_auxiliary_file(
    capsys, monkeypatch, tmp_path, saved_wavefunction, argv, written
):
    monkeypatch.chdir(tmp_path)
    argv = [str(saved_wavefunction) if a == "WF" else a for a in argv]
    assert cli_dispatch(argv + ["--out", "missing/report.json"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: FileNotFoundError: ")
    assert len(captured.err.splitlines()) == 1
    assert not (tmp_path / written).exists()
    assert cli_dispatch(argv + ["--out", "report.json"]) == 0
    assert (tmp_path / written).exists()


def test_non_finite_numbers_are_json_strings():
    value = _jsonify({"np": np.float64("nan"), "f32": np.float32("-inf"),
                      "py": float("nan")})
    assert value == {"np": "nan", "f32": "-inf", "py": "nan"}
    json.dumps(value, allow_nan=False)


MALFORMED_WAVEFUNCTIONS = {
    "no-coefficients": '{"energy": 1.0}',
    "not-an-object": "[1, 2]",
    "not-json": "{not json",
    "bad-occupation": '{"n_orbitals": 2, "energy": 0.0, '
                      '"coefficients": {"01x1": 1.0}}',
    "non-numeric": '{"n_orbitals": 2, "energy": 0.0, '
                   '"coefficients": {"0101": "one"}}',
    "unnormalized": '{"n_orbitals": 2, "energy": 0.0, '
                    '"coefficients": {"0101": 0.5}}',
    "wrong-length": '{"n_orbitals": 3, "energy": 0.0, '
                    '"coefficients": {"0101": 1.0}}',
}


@pytest.mark.parametrize(
    "text", MALFORMED_WAVEFUNCTIONS.values(), ids=MALFORMED_WAVEFUNCTIONS.keys()
)
def test_malformed_wavefunction_is_one_line_domain_error(capsys, tmp_path, text):
    path = tmp_path / "wf.json"
    path.write_text(text)
    assert cli_dispatch(["analyze", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: MalformedWavefunction: ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, content, prefix", BAD_INPUT_FILES.values(), ids=BAD_INPUT_FILES.keys()
)
def test_bad_input_file_is_one_line_domain_error(
    capsys, tmp_path, argv, content, prefix
):
    path = tmp_path / "input"
    path.write_bytes(content)
    assert cli_dispatch([*argv, str(path)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(prefix)
    assert captured.out == ""


OTHER_SYSTEM_WAVEFUNCTIONS = {
    "two-orbitals": '{"n_orbitals": 2, "energy": -1.0, '
                    '"coefficients": {"0101": 1.0}}',
    "other-sector": '{"n_orbitals": 4, "energy": -1.0, '
                    '"coefficients": {"11100100": 1.0}}',
}


@pytest.mark.parametrize("sub", ["expand", "pt2"])
@pytest.mark.parametrize(
    "text", OTHER_SYSTEM_WAVEFUNCTIONS.values(),
    ids=OTHER_SYSTEM_WAVEFUNCTIONS.keys(),
)
def test_wavefunction_of_another_system_is_rejected(capsys, tmp_path, sub, text):
    path = tmp_path / "wf.json"
    path.write_text(text)
    assert cli_dispatch([sub, "--fixture", "hubbard4", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: MalformedWavefunction: ")
    assert captured.out == ""


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
VALID_WAVEFUNCTIONS = st.integers(1, 3).flatmap(
    lambda n: st.fixed_dictionaries({
        "n_orbitals": st.just(n),
        "energy": st.floats(-10.0, 10.0),
        "coefficients": st.lists(
            st.text(alphabet="01", min_size=2 * n, max_size=2 * n),
            min_size=2, max_size=2, unique=True,
        ).map(lambda keys: dict(zip(keys, (0.6, -0.8)))),
    })
)
WAVEFUNCTION_LIKE = st.fixed_dictionaries(
    {
        "n_orbitals": st.integers(-1, 3) | JSON_VALUES,
        "energy": st.floats() | JSON_VALUES,
        "coefficients": st.dictionaries(
            st.text(alphabet="01x", max_size=6),
            st.sampled_from([1.0, -1.0, 0.6, 0.8]) | JSON_VALUES,
            max_size=3,
        ) | JSON_VALUES,
    }
)


FILE_CONTENTS = (
    st.binary(max_size=60)
    | st.text(max_size=60).map(str.encode)
    | st.one_of(JSON_VALUES, WAVEFUNCTION_LIKE, VALID_WAVEFUNCTIONS).map(
        lambda value: json.dumps(value).encode()
    )
)


@settings(max_examples=150, deadline=None)
@given(content=FILE_CONTENTS)
def test_analyze_fuzzed_input_file_exits_cleanly(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("fuzz") / "wf.json"
    path.write_bytes(content)
    out = path.with_suffix(".report.json")
    assert cli_dispatch(["analyze", "--in", str(path), "--out", str(out)]) in (
        0, 1, 2
    )


def test_wavefunction_past_64_orbitals_is_one_line_domain_error(capsys, tmp_path):
    # occupies orbital 0 only, yet 65 orbitals do not fit uint64 masks
    path = tmp_path / "wide.json"
    one = "1" + "0" * 64
    path.write_text(json.dumps({"n_orbitals": 65, "energy": -1.0,
                                "coefficients": {one + one: 1.0}}))
    assert cli_dispatch(["analyze", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: TooLarge: ")
    assert captured.out == ""


def test_more_than_64_orbitals_is_one_line_domain_error(capsys, tmp_path):
    path = tmp_path / "wide.fcidump"
    path.write_text("&FCI NORB=66,NELEC=2,MS2=0,\n&END\n"
                    "-1.0 1 1 0 0\n-0.5 66 66 0 0\n0.0 0 0 0 0\n")
    assert cli_dispatch(["fci", "--fcidump", str(path)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: TooLarge: ")
    assert captured.out == ""


def test_shots_past_the_cap_are_one_line_domain_error(capsys):
    # numpy would be asked for terabytes of outcomes without the cap
    argv = ["sample", "--fixture", "hubbard4", "--shots", "1000000000000"]
    assert cli_dispatch(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: TooLarge: ")
    assert captured.out == ""


@pytest.mark.parametrize("argv", BAD_OPTION_VALUES, ids=" ".join)
def test_rejected_option_value_is_one_line_usage_error(
    capsys, monkeypatch, tmp_path, saved_wavefunction, argv
):
    # "WF" stands for a saved wavefunction, and the argument after --config
    # for the text of the config file; files land in tmp_path
    monkeypatch.chdir(tmp_path)
    argv = [str(saved_wavefunction) if a == "WF" else a for a in argv]
    if "--config" in argv:
        k = argv.index("--config") + 1
        Path("run.cfg").write_text(argv[k] + "\n")
        argv[k] = "run.cfg"
    assert cli_dispatch(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ValueError: ")
    assert captured.out == ""


@pytest.mark.parametrize("sub, angle", [
    ("qsci", "nan"), ("sample", "inf"), ("demo", "-inf"),
])
def test_non_finite_init_angle_is_named_usage_error(capsys, sub, angle):
    argv = [sub, "--fixture", "hubbard4", f"--init-angle={angle}"]
    assert cli_dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: ValueError: --init-angle must be finite, got {angle}\n"
    )
    assert captured.out == ""


# Negative counts, which list slicing and range() would silently accept.
NEGATIVE_COUNTS = [
    ["sample", "--fixture", "hubbard4", "--shots", "2000", "--top", "-1"],
    ["usci-build", "--fixture", "hubbard4", "--top-m", "-1"],
    ["usci-build", "--fixture", "hubbard4", "--layers", "-1"],
    ["usci-build", "--fixture", "hubbard4", "--layers", "0"],
    ["usci-build", "--fixture", "hubbard4", "--degree-cap", "-1"],
    ["expand", "--fixture", "hubbard4", "--top-k", "-1"],
    ["expand", "--fixture", "hubbard4", "--iters", "-2"],
]


@pytest.mark.parametrize("argv", NEGATIVE_COUNTS, ids=" ".join)
def test_negative_count_is_one_line_usage_error(capsys, saved_wavefunction,
                                                argv):
    if argv[0] == "expand":
        argv = argv + ["--in", str(saved_wavefunction)]
    assert cli_dispatch(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ValueError: ")
    assert captured.out == ""


# --------------------------------------------------------------------- results

def test_fci_energy_matches_dense_reference(capsys):
    report = run_json(capsys, ["fci", "--fixture", "hubbard4"])
    table = hubbard_chain_table()
    sector = enumerate_space(4, 2, 2)
    expected, _ = oracles.ground_state(table, sector)
    assert abs(report["result"]["energy"] - expected) < 1e-9
    assert report["result"]["dimension"] == 36


def test_bounds_reference_budget(capsys):
    report = run_json(
        capsys, ["bounds", "--n", "10", "--m", "10", "--f2q", "0.990"]
    )
    assert report["result"]["n_g_max"] == 279
    assert abs(report["result"]["p_u"] - 0.0605621) < 1e-6


def test_bounds_forwards_per_spin_counts(capsys):
    argv = ["bounds", "--n", "10", "--n-alpha", "5", "--n-beta", "4",
            "--f2q", "0.99"]
    result = run_json(capsys, argv)["result"]
    assert result["p_u"] == uniform_probability(10, n_alpha=5, n_beta=4)
    assert result["n_g_max"] == gate_budget(0.99, 10, n_alpha=5, n_beta=4)


def test_bounds_preset_matches_explicit_flags(capsys):
    for spin in ([], ["--n-alpha", "5", "--n-beta", "4"]):
        via_preset = run_json(
            capsys, ["bounds", "--preset", "cas10-10", *spin])
        # the preset's m is not applied beside per-spin counts
        electrons = spin or ["--m", "10"]
        explicit = run_json(
            capsys, ["bounds", "--n", "10", "--f2q", "0.990", *electrons]
        )
        assert via_preset["result"] == explicit["result"]
        assert via_preset["manifest"]["config"] == {
            **explicit["manifest"]["config"], "preset": "cas10-10"}


# --------------------------------------------------------------------- schema

SCHEMA_RUNS = [
    ["fcidump-info", "--fixture", "hubbard4"],
    ["fci", "--fixture", "hubbard4"],
    ["usci-build", "--fixture", "hubbard4", "--top-m", "4"],
    ["qsci", "--fixture", "hubbard4", "--shots", "2000"],
    ["sample", "--fixture", "hubbard4", "--shots", "1000"],
    ["bounds", "--n", "10", "--m", "10", "--f2q", "0.99"],
    ["demo", "--shots", "2000"],
]


@pytest.mark.parametrize("argv", SCHEMA_RUNS, ids=lambda a: a[0])
def test_reports_validate_against_schema(capsys, schema, argv):
    report = run_json(capsys, argv)
    jsonschema.validate(report, schema)
    assert report["subcommand"] == argv[0]


@pytest.mark.parametrize("sub", ["expand", "pt2", "analyze"])
def test_file_input_reports_validate_against_schema(
    capsys, schema, sub, saved_wavefunction
):
    argv = [sub, "--in", str(saved_wavefunction)]
    if sub != "analyze":
        argv += ["--fixture", "hubbard4"]
    report = run_json(capsys, argv)
    jsonschema.validate(report, schema)


# --------------------------------------------------------------- option tables

# Each subcommand's options in order: flag, dest, type ("switch" for a
# store_true flag) and the value the parser gives with no flags.
OPTION_SURFACE = {
    "fcidump-info": """
        --out out str None
        --config config str None
        --fcidump fcidump str None
        --fixture fixture str None""",
    "fci": """
        --out out str None
        --config config str None
        --fcidump fcidump str None
        --fixture fixture str None
        --cap cap int 10000000
        --save-wf save_wf str None""",
    "usci-build": """
        --out out str None
        --config config str None
        --fcidump fcidump str None
        --fixture fixture str None
        --cutoff cutoff float 0.01
        --top-m top_m int None
        --layers layers int 1
        --degree-cap degree_cap int None
        --orbital-rotation orbital_rotation switch False
        --save-circuit save_circuit str None""",
    "qsci": """
        --out out str None
        --config config str None
        --fcidump fcidump str None
        --fixture fixture str None
        --cutoff cutoff float 0.01
        --top-m top_m int None
        --layers layers int 1
        --degree-cap degree_cap int None
        --orbital-rotation orbital_rotation switch False
        --init-angle init_angle float 0.15
        --depol-p depol_p float 0.0
        --pg pg float None
        --n2q n2q int None
        --eps0 eps0 float 0.0
        --eps1 eps1 float 0.0
        --shots shots int 100000
        --seed seed int 2026
        --optimize optimize switch False
        --max-evals max_evals int 500
        --opt-tol opt_tol float 1e-08
        --patience patience int 10
        --save-wf save_wf str None""",
    "sample": """
        --out out str None
        --config config str None
        --fcidump fcidump str None
        --fixture fixture str None
        --cutoff cutoff float 0.01
        --top-m top_m int None
        --layers layers int 1
        --degree-cap degree_cap int None
        --orbital-rotation orbital_rotation switch False
        --init-angle init_angle float 0.15
        --depol-p depol_p float 0.0
        --pg pg float None
        --n2q n2q int None
        --eps0 eps0 float 0.0
        --eps1 eps1 float 0.0
        --ansatz ansatz str 'usci'
        --shots shots int 10000
        --seed seed int 2026
        --top top int 20
        --csv csv str None""",
    "expand": """
        --out out str None
        --config config str None
        --fcidump fcidump str None
        --fixture fixture str None
        --in infile str None
        --tau tau float 0.0
        --iters iters int 1
        --top-k top_k int None
        --save-wf save_wf str None""",
    "pt2": """
        --out out str None
        --config config str None
        --fcidump fcidump str None
        --fixture fixture str None
        --in infile str None""",
    "bounds": """
        --out out str None
        --config config str None
        --preset preset str None
        --n n int None
        --m m int None
        --n-alpha n_alpha int None
        --n-beta n_beta int None
        --f2q f2q float None
        --q-r q_r float None
        --lambda-h lambda_h float None
        --p p float 0.0
        --r r int None
        --d d int None
        --shots shots int None
        --delta delta float None
        --zeta-r zeta_r float 0.0
        --delta-r delta_r float None
        --k-pool k_pool int None
        --gap-id gap_id float None
        --p-hat-r p_hat_r float None""",
    "analyze": """
        --out out str None
        --config config str None
        --in infile str None
        --mi-edges mi_edges str None
        --mi-threshold mi_threshold float 0.0""",
    "demo": """
        --out out str None
        --config config str None
        --fixture fixture str 'hubbard4'
        --shots shots int 100000
        --seed seed int 2026
        --depol-p depol_p float 0.0
        --eps0 eps0 float 0.0
        --eps1 eps1 float 0.0
        --cutoff cutoff float 0.01
        --top-m top_m int None
        --init-angle init_angle float 0.15
        --tau tau float 0.0
        --iters iters int 1""",
}


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_option_surface_is_pinned(sub):
    parser, _subparsers = build_parser()
    opts = vars(parser.parse_args([sub]))
    assert opts.pop("subcommand") == sub
    rows = [f"{flag} {dest} "
            f"{'switch' if typ is None else typ.__name__} {value!r}"
            for (flag, typ, _default, _help), (dest, value)
            in zip(OPTIONS[sub], opts.items(), strict=True)]
    assert rows == [line.strip() for line in OPTION_SURFACE[sub].splitlines()[1:]]


# ---------------------------------------------------------------- config files

def test_config_file_values_apply(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("shots = 3000\nseed=5\n# a comment\n\ncutoff = 0.02\n")
    report = run_json(
        capsys, ["qsci", "--fixture", "hubbard4", "--config", str(cfg)]
    )
    config = report["manifest"]["config"]
    assert config["shots"] == 3000
    assert config["seed"] == 5
    assert config["cutoff"] == 0.02


def test_config_unknown_key_reports_line(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("shots = 3000\nbogus_key = 7\n")
    code = cli_dispatch(
        ["qsci", "--fixture", "hubbard4", "--config", str(cfg)]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "line 2" in err
    assert "bogus_key" in err


def test_config_bad_value_reports_line_and_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("shots = banana\n")
    code = cli_dispatch(
        ["qsci", "--fixture", "hubbard4", "--config", str(cfg)]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "line 1" in err
    assert "shots" in err


def test_flags_override_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("shots = 3000\nseed = 5\n")
    report = run_json(
        capsys,
        ["qsci", "--fixture", "hubbard4", "--config", str(cfg),
         "--shots", "800"],
    )
    config = report["manifest"]["config"]
    assert config["shots"] == 800
    assert config["seed"] == 5


# -------------------------------------------------------------- reproducibility

def test_reports_identical_modulo_timings(capsys):
    argv = ["qsci", "--fixture", "hubbard4", "--shots", "5000",
            "--seed", "9"]
    a = run_json(capsys, argv)
    b = run_json(capsys, argv)
    a["manifest"].pop("timings")
    b["manifest"].pop("timings")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# ------------------------------------------------------------------ file flows

def test_saved_wavefunction_round_trips(capsys, saved_wavefunction):
    payload = json.loads(Path(saved_wavefunction).read_text())
    qsci_report = json.loads(
        saved_wavefunction.with_suffix(".report.json").read_text()
    )
    expand = run_json(
        capsys,
        ["expand", "--fixture", "hubbard4", "--in", str(saved_wavefunction),
         "--tau", "0.0", "--iters", "3"],
    )
    pt2 = run_json(
        capsys, ["pt2", "--fixture", "hubbard4", "--in", str(saved_wavefunction)]
    )
    start_energy = qsci_report["result"]["energy"]
    assert payload["energy"] == pytest.approx(start_energy)
    assert expand["result"]["final_energy"] <= start_energy + 1e-12
    assert pt2["result"]["energy"] == pytest.approx(start_energy)
    assert (
        pt2["result"]["energy_plus_pt2"]
        == pytest.approx(start_energy + pt2["result"]["delta_e"])
    )


def test_output_files_and_digests(capsys, tmp_path):
    csv_path = tmp_path / "top.csv"
    report_path = tmp_path / "sample.json"
    code = cli_dispatch(
        ["sample", "--fixture", "hubbard4", "--shots", "1000", "--seed", "3",
         "--csv", str(csv_path), "--out", str(report_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "report written to" in out
    report = json.loads(report_path.read_text())
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert report["manifest"]["digests"][csv_path.name] == digest
    header = csv_path.read_text().splitlines()[0]
    assert "bitstring" in header


def test_analyze_edge_list_digest(capsys, tmp_path, saved_wavefunction):
    edges = tmp_path / "edges.csv"
    report = run_json(
        capsys,
        ["analyze", "--in", str(saved_wavefunction), "--mi-edges", str(edges)],
    )
    assert edges.exists()
    digest = hashlib.sha256(edges.read_bytes()).hexdigest()
    assert report["manifest"]["digests"][edges.name] == digest
    assert len(report["result"]["mutual_information"]) == 8


# ------------------------------------------------------------------------ demo

def test_demo_noiseless_quality(capsys):
    report = run_json(capsys, ["demo", "--shots", "20000", "--seed", "11"])
    result = report["result"]
    comparison = result["sampling_comparison"]
    assert comparison["usci"]["valid_fraction"] == 1.0
    assert comparison["usci"]["dominant_in_top10"] is True
    assert comparison["lucj"]["dominant_in_top10"] is True
    assert result["refined_error"] <= result["qsci_error"] + 1e-12
    assert abs(result["refined_energy"] - result["oracle_energy"]) < 1e-6


def test_demo_times_each_ansatz_separately(capsys):
    timings = run_json(capsys, ["demo", "--shots", "2000"])["manifest"]["timings"]
    for ansatz in ("usci", "lucj"):
        for stage in ("simulate", "sample"):
            assert f"sampling_comparison/{ansatz}/{stage}" in timings
    assert "simulate" not in timings and "sample" not in timings


def test_demo_noise_broadens_support(capsys):
    clean = run_json(capsys, ["demo", "--shots", "20000", "--seed", "11"])
    noisy = run_json(
        capsys,
        ["demo", "--shots", "20000", "--seed", "11", "--depol-p", "0.1"],
    )
    assert (
        noisy["result"]["sampling_comparison"]["usci"]["n_unique_bitstrings"]
        > clean["result"]["sampling_comparison"]["usci"]["n_unique_bitstrings"]
    )
    assert noisy["result"]["sampling_comparison"]["usci"]["valid_fraction"] < 1.0
