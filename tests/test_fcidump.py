import io
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qselci.errors import (
    EmptyInput,
    IndexOutOfRange,
    MalformedHeader,
    NonNumericValue,
    TooLarge,
    UndecodableInput,
)
from qselci.fcidump import (
    IntegralTable,
    _parse_header,
    parse_fcidump,
    serialize_fcidump,
    table_summary,
)
from qselci.fixtures import FIXTURES

import helpers

SAMPLE = """&FCI NORB=2,NELEC=2,MS2=0,
 ORBSYM=1,1,
 ISYM=1,
&END
 0.6746000000000000E+00 1 1 1 1
 0.6636000000000000E+00 1 1 2 2
 0.1813000000000000E+00 1 2 1 2
 0.6975000000000000E+00 2 2 2 2
-0.1252400000000000E+01 1 1 0 0
-0.4759000000000000E+00 2 2 0 0
 0.7137000000000000E+00 0 0 0 0
"""


def test_parse_sample():
    t = parse_fcidump(SAMPLE)
    assert t.n_orbitals == 2 and t.n_electrons == 2 and t.ms2 == 0
    assert t.n_alpha == 1 and t.n_beta == 1
    assert t.core_energy == pytest.approx(0.7137, abs=1e-14)
    assert t.h[0, 0] == pytest.approx(-1.2524)
    assert t.h[1, 0] == 0.0
    assert t.get_g(0, 0, 1, 1) == pytest.approx(0.6636)
    assert t.get_g(1, 1, 0, 0) == pytest.approx(0.6636)
    assert t.get_g(0, 1, 0, 1) == pytest.approx(0.1813)


def test_parse_accepts_bytes_and_streams():
    t1 = parse_fcidump(SAMPLE.encode("ascii"))
    t2 = parse_fcidump(io.StringIO(SAMPLE))
    t3 = parse_fcidump(io.BytesIO(SAMPLE.encode("ascii")))
    for t in (t1, t2, t3):
        assert t.n_orbitals == 2 and t.h[0, 0] == pytest.approx(-1.2524)


def test_non_ascii_bytes_raise_domain_error():
    data = SAMPLE.encode("ascii") + b"\xff\n"
    line_no = SAMPLE.count("\n") + 1
    for source in (data, io.BytesIO(data)):
        with pytest.raises(UndecodableInput, match=f"line {line_no}: "):
            parse_fcidump(source)


def test_fortran_d_exponents():
    text = "&FCI NORB=1,NELEC=2,MS2=0,\n&END\n 1.5D+00 1 1 0 0\n 0.0 0 0 0 0\n"
    t = parse_fcidump(text)
    assert t.h[0, 0] == 1.5


def test_ms2_defaults_to_zero_and_orbsym_ignored():
    text = "&FCI NORB=3,NELEC=2, ORBSYM=1,1,1, ISYM=1 &END\n 0.0 0 0 0 0\n"
    t = parse_fcidump(text)
    assert t.ms2 == 0
    assert t.n_alpha == 1 and t.n_beta == 1


def test_single_line_header_with_slash():
    text = "&FCI NORB=2, NELEC=2, MS2=0 /\n 1.0 1 1 0 0\n"
    t = parse_fcidump(text)
    assert t.h[0, 0] == 1.0


@pytest.mark.parametrize("header", [
    "&FCI NORB=2,ISYM=\u00df,NELEC=2 /",  # "\u00df".upper() is "SS"
    "&FCI NORB=2,NELEC=2,ISYM=\u00df\u00df\u00df\u00df\u00df &END",
])
def test_header_is_cut_at_its_terminator_past_non_ascii_text(header):
    fields, _ = _parse_header([header])
    tokens = {tok for key, values in fields.items() for tok in [key, *values]}
    assert not tokens & {"&END", "/"}
    t = parse_fcidump(header + "\n 1.0 1 1 0 0\n")
    assert (t.n_orbitals, t.n_electrons) == (2, 2)
    assert t.h[0, 0] == 1.0


def test_norb_past_the_mask_limit_raises_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="line 1: .*64-orbital limit"):
            parse_fcidump("&FCI NORB=100000,NELEC=2 &END\n 0.0 0 0 0 0\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_empty_input():
    with pytest.raises(EmptyInput):
        parse_fcidump("")
    with pytest.raises(EmptyInput):
        parse_fcidump("   \n  \n")


def test_missing_norb_is_malformed():
    with pytest.raises(MalformedHeader):
        parse_fcidump("&FCI NELEC=2,MS2=0 &END\n 0.0 0 0 0 0\n")
    with pytest.raises(MalformedHeader):
        parse_fcidump("&FCI NORB=2,MS2=0 &END\n 0.0 0 0 0 0\n")
    with pytest.raises(MalformedHeader):
        parse_fcidump("not an integral file\n")
    with pytest.raises(MalformedHeader):
        parse_fcidump("&FCI NORB=2,NELEC=2\n 0.0 0 0 0 0\n")  # never closed


@pytest.mark.parametrize("fields", [
    "NORB=2,NELEC=2,MS2=two",  # "two" reads as the next key, not a value
    "NORB=2,NELEC=2,MS2=",
    "NORB=,NELEC=2",
])
def test_header_key_without_value_is_malformed(fields):
    with pytest.raises(MalformedHeader, match="line 1: .* has no value") as err:
        parse_fcidump(f"&FCI {fields} &END\n 0.0 0 0 0 0\n")
    assert err.value.line_no == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1.0D+999"])
def test_non_finite_value_reports_line(value):
    text = f"&FCI NORB=2,NELEC=2 &END\n 1.0 1 1 0 0\n {value} 2 2 0 0\n"
    with pytest.raises(NonNumericValue) as err:
        parse_fcidump(text)
    assert err.value.line_no == 3


def test_nonnumeric_value_reports_line():
    bad = "&FCI NORB=2,NELEC=2,MS2=0 &END\n 1.0 1 1 0 0\n oops 1 1 1 1\n"
    with pytest.raises(NonNumericValue) as err:
        parse_fcidump(bad)
    assert err.value.line_no == 3
    assert "line 3" in str(err.value)


def test_index_out_of_range_reports_line():
    bad = "&FCI NORB=2,NELEC=2,MS2=0 &END\n 1.0 1 3 0 0\n"
    with pytest.raises(IndexOutOfRange) as err:
        parse_fcidump(bad)
    assert err.value.line_no == 2


def test_inconsistent_zero_indices_rejected():
    bad = "&FCI NORB=2,NELEC=2,MS2=0 &END\n 1.0 1 1 1 0\n"
    with pytest.raises(IndexOutOfRange):
        parse_fcidump(bad)
    bad2 = "&FCI NORB=2,NELEC=2,MS2=0 &END\n 1.0 0 1 0 0\n"
    with pytest.raises(IndexOutOfRange):
        parse_fcidump(bad2)


def test_duplicate_record_last_write_wins_with_warning():
    text = (
        "&FCI NORB=2,NELEC=2,MS2=0 &END\n"
        " 1.0 1 1 1 1\n"
        " 0.5 1 1 0 0\n"
        " 0.0 2 1 2 2\n"
        " 2.0 1 1 1 1\n"
        " 0.7 1 1 0 0\n"
        " 0.3 2 2 1 2\n"
    )
    with pytest.warns(UserWarning) as record:
        t = parse_fcidump(text)
    assert t.get_g(0, 0, 0, 0) == 2.0
    assert t.h[0, 0] == 0.7
    assert t.get_g(0, 1, 1, 1) == 0.3
    # one rule for both kinds, an explicit zero counting as a record
    assert [str(w.message) for w in record] == [
        "line 5: conflicting g(0, 0, 0, 0): 1.0 -> 2.0",
        "line 6: conflicting h(0, 0): 0.5 -> 0.7",
        "line 7: conflicting g(1, 1, 1, 0): 0.0 -> 0.3",
    ]
    assert {w.filename for w in record} == {__file__}


def test_duplicate_record_within_tolerance_is_silent():
    # same value re-stated through a symmetry-equivalent index pattern
    text = (
        "&FCI NORB=2,NELEC=2,MS2=0 &END\n"
        " 1.0 1 2 1 1\n"
        " 1.0 2 1 1 1\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = parse_fcidump(text)
    assert t.get_g(0, 1, 0, 0) == 1.0


def _parse_warnings(text):
    """The table and the warning messages of one parse, no warning
    filtered out (as under ``python -W always``)."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        table = parse_fcidump(text)
    return table, [str(w.message) for w in record]


def test_conflicting_core_energy_warns_and_last_write_wins():
    table, messages = _parse_warnings(
        "&FCI NORB=2,NELEC=2 &END\n 0.5 0 0 0 0\n 0.9 0 0 0 0\n")
    assert table.core_energy == 0.9
    assert messages == ["line 3: conflicting core energy: 0.5 -> 0.9"]


def test_equal_core_energy_repeat_is_silent():
    table, messages = _parse_warnings(
        "&FCI NORB=2,NELEC=2 &END\n 0.5 0 0 0 0\n 0.5 0 0 0 0\n")
    assert table.core_energy == 0.5
    assert messages == []


def test_orbital_energy_records_ignored_with_warning():
    text = "&FCI NORB=2,NELEC=2,MS2=0 &END\n -0.5 1 0 0 0\n 1.0 1 1 0 0\n"
    with pytest.warns(UserWarning):
        t = parse_fcidump(text)
    assert t.h[0, 0] == 1.0


def test_eightfold_symmetry_random_queries():
    rng = np.random.default_rng(17)
    t = IntegralTable(n_orbitals=5, n_electrons=4)
    stored = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rewrites collide on purpose here
        for _ in range(1000):
            p, q, r, s = (int(x) for x in rng.integers(0, 5, size=4))
            v = float(rng.normal())
            t.set_g(p, q, r, s, v)
            for key in _equivalents(p, q, r, s):
                stored[key] = v
    for _ in range(1000):
        p, q, r, s = (int(x) for x in rng.integers(0, 5, size=4))
        expect = stored.get((p, q, r, s), 0.0)
        assert t.get_g(p, q, r, s) == expect


def _equivalents(p, q, r, s):
    return {
        (p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
        (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p),
    }


@pytest.mark.parametrize("name", [*sorted(FIXTURES), "dense-random"])
def test_dense_g_is_get_g_at_every_index(name):
    table = (helpers.random_table(5, 4, seed=8) if name == "dense-random"
             else FIXTURES[name]())
    dense = table.dense_g()
    n = table.n_orbitals
    assert dense.shape == (n, n, n, n)
    for index in itertools.product(range(n), repeat=4):
        assert dense[index] == table.get_g(*index)


def test_permutation_invariance_exhaustive_small():
    t = helpers.random_table(3, 4, seed=2)
    for p, q, r, s in itertools.product(range(3), repeat=4):
        base = t.get_g(p, q, r, s)
        for key in _equivalents(p, q, r, s):
            assert t.get_g(*key) == base


def test_roundtrip_through_serialization():
    for table in (
        helpers.random_table(4, 4, seed=9),
        parse_fcidump(SAMPLE),
    ):
        text = serialize_fcidump(table)
        back = parse_fcidump(text)
        assert back.n_orbitals == table.n_orbitals
        assert back.n_electrons == table.n_electrons
        assert back.ms2 == table.ms2
        assert back.core_energy == pytest.approx(table.core_energy, abs=1e-12)
        assert np.allclose(back.h, table.h, atol=1e-12)
        assert set(back.g) == set(table.g)
        for key, v in table.g.items():
            assert back.g[key] == pytest.approx(v, abs=1e-12)


def test_summary_counts():
    t = parse_fcidump(SAMPLE)
    info = table_summary(t)
    assert info["n_orbitals"] == 2
    assert info["n_two_electron_classes"] == 4
    assert info["n_one_electron"] == 2  # two diagonal h entries


def _any_case(word):
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda upper: "".join(c.upper() if u else c.lower()
                              for c, u in zip(word, upper))
    )


@st.composite
def valid_headers(draw):
    """A header in the accepted grammar and its (NORB, NELEC, MS2)."""
    n_orb = draw(st.integers(1, 8))
    n_alpha, n_beta = draw(st.integers(0, n_orb)), draw(st.integers(0, n_orb))
    ms2 = n_alpha - n_beta
    fields = [("NORB", [n_orb]), ("NELEC", [n_alpha + n_beta])]
    if ms2 or draw(st.booleans()):
        fields.append(("MS2", [ms2]))
    if draw(st.booleans()):
        fields.append(("ORBSYM", draw(st.lists(st.integers(1, 8), min_size=n_orb,
                                               max_size=n_orb))))
    if draw(st.booleans()):
        fields.append(("ISYM", [draw(st.integers(1, 8))]))
    space = st.sampled_from(["", " ", "  "])
    parts = [draw(_any_case("&FCI")) + draw(st.sampled_from([" ", "  ", "\n "]))]
    for key, values in draw(st.permutations(fields)):
        assign = draw(space) + "=" + draw(space)
        comma = draw(st.sampled_from([",", ", ", " , ", " "]))
        parts.append(draw(_any_case(key)) + assign + comma.join(map(str, values)))
        parts.append(draw(st.sampled_from([",", ", ", " ", ",\n ", "\n "])))
    parts.append(draw(st.sampled_from([draw(_any_case("&END")), "/"])))
    return "".join(parts) + "\n", (n_orb, n_alpha + n_beta, ms2)


@settings(max_examples=200, deadline=None)
@given(header=valid_headers(), seed=st.integers(0, 2 ** 16))
def test_valid_headers_parse_and_round_trip(header, seed):
    text, (n_orb, n_elec, ms2) = header
    table = parse_fcidump(text + " 0.5 1 1 0 0\n 0.25 1 1 1 1\n 1.5 0 0 0 0\n")
    assert (table.n_orbitals, table.n_electrons, table.ms2) == (n_orb, n_elec, ms2)
    assert table.h[0, 0] == 0.5 and table.get_g(0, 0, 0, 0) == 0.25
    assert table.core_energy == 1.5
    table = helpers.random_table(n_orb, n_elec, ms2=ms2, seed=seed)
    back = parse_fcidump(serialize_fcidump(table))
    assert (back.n_orbitals, back.n_electrons, back.ms2) == (n_orb, n_elec, ms2)
    assert back.core_energy == table.core_energy
    assert np.array_equal(back.h, table.h)
    assert back.g == table.g
