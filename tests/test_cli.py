import csv
import hashlib
import json
import math
import re
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st
from numpy.polynomial.legendre import leggauss

from hlevels import (
    Constants,
    ParseError,
    QuantumState,
    ScaleSearchFailure,
    SolverConfig,
    cli,
    default_constants,
    derive,
    salpeter_levels,
)
from hlevels.cli import main, parse_state_label
from hlevels.harness import TABLE_STATES
from hlevels.salpeter import (
    _SCALE_BRACKET,
    _SCALE_GUARD,
    _SCALE_RTOL,
    _SCALE_WIDEN,
    _SCALE_WIDENINGS,
)
from hlevels.spectra import SPECTROSCOPIC_LETTERS
from test_acceptance import salpeter_weak_coupling
from test_process import run


def test_parse_state_label_examples():
    assert parse_state_label("1S") == QuantumState(0, 0)
    assert parse_state_label("1P") == QuantumState(0, 1)
    assert parse_state_label("2P") == QuantumState(1, 1)
    assert parse_state_label("3S") == QuantumState(2, 0)
    assert parse_state_label("2:1") == QuantumState(2, 1)
    with pytest.raises(ParseError):  # --states splits on commas before it parses a label
        parse_state_label("2,1")


def test_parse_state_label_errors():
    for bad in ("0S", "S", "1X", "-1P", "x,y"):
        with pytest.raises(ParseError):
            parse_state_label(bad)
    with pytest.raises(ParseError, match=r"^bad radial number in 'xS'$") as err:
        parse_state_label("xS")
    assert err.value.line is None


@given(st.integers(min_value=1, max_value=9), st.sampled_from("SPDFGH"))
def test_label_round_trip(radial, letter):
    label = f"{radial}{letter}"
    assert parse_state_label(label).label == label


def test_spectrum_qc_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "--model", "qc",
                       "--states", "1S,1P", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "state,model,T_eV"
    state, model, value = lines[1].split(",")
    assert (state, model) == ("1S", "qc")
    assert float(value) == pytest.approx(-13.59810653, abs=5e-5)
    assert float(lines[2].split(",")[2]) == pytest.approx(-3.39956046, abs=5e-5)


def test_spectrum_deterministic(capsys):
    argv = ("spectrum", "--model", "kg", "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_spectrum_supercritical_exit_code(capsys):
    code, out, err = run(capsys, "spectrum", "--model", "sommerfeld",
                         "--z", "200", "--states", "1S")
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_salpeter_aliased_grid_exit_code(capsys):
    # basis 192 on the default grid printed 1P = -5.43 eV and 1G = -2339.5 eV with exit 0
    code, out, err = run(capsys, "salpeter", "--basis-size", "192", "--states", "1S,1P,1G")
    assert (code, out) == (1, "")
    assert err.startswith("error:")


def test_salpeter_supercritical_s_wave_exit_code(capsys):
    code, out, err = run(capsys, "salpeter", "--z", "90", "--states", "1S")
    assert (code, out) == (1, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("spectrum", "--states", ""),
    ("widths", "--states", ","),
    ("salpeter", "--states", ""),
])
def test_empty_state_list_is_an_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("spectrum", "--model", "kg", "--z", "-1", "--states", "1S"),
    ("spectrum", "--model", "scalar", "--z", "0"),
    ("salpeter", "--z", "-1"),
    ("compare", "--z", "two"),
])
def test_charge_below_one_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "--z" in err


@pytest.mark.parametrize("model", ["kg", "sommerfeld", "qc"])
def test_reduced_mass_is_rejected_where_it_has_no_effect(capsys, model):
    code, out, err = run(capsys, "spectrum", "--model", model, "--reduced-mass")
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("model", ["schrodinger", "scalar"])
def test_reduced_mass_raises_the_level(capsys, model):
    argv = ("spectrum", "--model", model, "--states", "1S", "--format", "csv")
    bare = float(run(capsys, *argv)[1].splitlines()[1].split(",")[2])
    code, out, _ = run(capsys, *argv, "--reduced-mass")
    assert code == 0
    assert bare < float(out.splitlines()[1].split(",")[2]) < 0.0


def test_unknown_model_is_usage_error(capsys):
    assert run(capsys, "spectrum", "--model", "bogus")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_bad_state_label_exit_code(capsys):
    code, _, err = run(capsys, "spectrum", "--states", "0S")
    assert code == 1
    assert "error:" in err


# 1:2:3 ended in "too many values to unpack"; ':' was quoted as the rewritten ','
@pytest.mark.parametrize("states", ["1:2:3", ":"])
def test_bad_colon_pair_is_quoted_as_typed(capsys, states):
    code, out, err = run(capsys, "spectrum", "--states", f"1S,{states}")
    assert (code, out) == (1, "")
    assert err == f"error: cannot parse state {states!r} as 'k:l'\n"


def test_widths(capsys):
    code, out, _ = run(capsys, "widths", "--states", "1S,2S", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "1S,6.843173"
    assert lines[2] == "2S,3.421587"


def test_verify_exit_zero(capsys):
    code, out, err = run(capsys, "verify", "--format", "csv")
    assert code == 0
    assert "residual" in out
    assert "within" in err


def test_verify_json_does_not_depend_on_the_cached_rule(capsys, monkeypatch):
    # the shared Gauss-Legendre rules give the bytes of a fresh leggauss per call
    assert main(["verify", "--format", "json"]) == 0
    cached = capsys.readouterr().out
    monkeypatch.setattr("hlevels.verifier.gauss_legendre", leggauss)
    assert main(["verify", "--format", "json"]) == 0
    assert capsys.readouterr().out == cached


def test_verify_at_z_2_uses_the_z_2_root(capsys):
    # the Z=1 root in the Z=2 potential gives a max residual of 10
    code, out, err = run(capsys, "verify", "--z", "2", "--format", "csv")
    assert code == 0
    assert "within" in err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_verify_refuses_a_lambda_that_is_not_finite(capsys, value):
    # the phase integral of such a potential is not finite: refused before any state runs
    code, out, err = run(capsys, "verify", "--lambda-mev", value)
    assert code == 1 and out == ""
    assert err == f"error: alpha and lambda must be finite, got 0.0072973525664, {value}\n"


def test_verify_at_lambda_1e145_is_the_point_coulomb_limit(capsys):
    # (lambda r)^2 stays finite on the scan grid up to 1.34e145 MeV: the point-Coulomb bytes
    assert main(["verify", "--lambda-mev", "8.4e6", "--format", "json"]) == 0
    point_coulomb = capsys.readouterr().out
    assert main(["verify", "--lambda-mev", "1e145", "--format", "json"]) == 0
    assert capsys.readouterr().out == point_coulomb


# finite inputs whose arithmetic leaves the range of doubles: one error line, no warning
@pytest.mark.parametrize("argv", [
    ("verify", "--lambda-mev", "1e146"),  # raised OverflowError
    ("verify", "--lambda-mev", "1e200"),
    ("salpeter", "--states", "1S", "--basis-size", "8", "--me-mev", "8e307",
     "--mp-mev", "9e307"),  # 1S is about -2e309 eV
    ("compare", "--basis-size", "8", "--alpha", "0.5", "--me-mev", "1e303",
     "--mp-mev", "2e303"),  # 1S is finite in ss, its epsilon is not
    ("compare", "--basis-size", "8", "--me-mev", "1e307", "--mp-mev", "1.5e307"),  # kg is -inf
    ("spectrum", "--states", "1S", "--me-mev", "1e200", "--mp-mev", "2e200"),  # OverflowError
    ("spectrum", "--states", "1S", "--me-mev", "1e308", "--mp-mev", "1.5e308"),  # printed nan
    ("spectrum", "--states", "1S", "--me-mev", "1e308", "--mp-mev", "1.5e308",
     "--model", "scalar", "--reduced-mass"),  # printed nan
    ("spectrum", "--states", "1S", "--me-mev", "1e308", "--mp-mev", "1.5e308",
     "--model", "schrodinger", "--reduced-mass"),  # printed nan
    ("spectrum", "--states", "1S", "--me-mev", "1e308", "--mp-mev", "1.5e308",
     "--model", "kg"),  # printed -inf
    ("spectrum", "--states", "1S", "--me-mev", "1e150", "--mp-mev", "1e151"),  # printed inf
    ("widths", "--states", "1S", "--me-mev", "1e308", "--mp-mev", "1.5e308"),  # printed nan
    ("widths", "--states", "1S", "--me-mev", "1e-300", "--mp-mev", "1e-160"),  # printed nan
    ("constants", "--me-mev", "1e308", "--mp-mev", "1.5e308"),  # printed inf and nan
])
def test_overflow_is_an_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    # an overflow names the range of doubles; a refused mass names itself
    assert err.endswith(": the inputs exceed the range of double precision\n") or err.startswith(
        "error: derived mass"), err


# masses the Salpeter grid that ended at p = 1e6 MeV could not take, each with a k that puts
# the masses times 2^-k well inside it
_MASS_SCALINGS = [
    ("1e-260", "1.5e-60", -864),  # a NaN basis: salpeter refused
    ("1e-300", "938.2720813", -990),
    ("1e-305", "938.2720813", -1010),  # the grid's octave count overflowed: refused as at 1e-300
    # CODATA times 2^20: the search ran past the top of the grid, 2S printed 6166 eV too deep
    ("535821.2309057536", "983849585.9212288", 20),
    ("1e200", "1e201", 664),  # m_e*m_p overflowed in mu: Constants refused the masses
    # CODATA times 2^1014: v*ev_per_mev*mu overflowed, salpeter printed an error line
    ("8.97089157544774e+304", "1.6471926554550651e+308", 1014),
]


# the three smallest mass pairs also at basis 8
@pytest.mark.parametrize("m_e, m_p, k, basis", [
    *((*masses, ()) for masses in _MASS_SCALINGS),
    *((*masses, ("--basis-size", "8")) for masses in _MASS_SCALINGS[:3]),
], ids=["1e-260-1.5e-60", "1e-300", "1e-305", "codata-x2^20", "1e200-1e201", "codata-x2^1014",
        "1e-260-1.5e-60-basis-8", "1e-300-basis-8", "1e-305-basis-8"])
def test_salpeter_levels_scale_with_the_masses(capsys, m_e, m_p, k, basis):
    # the Hamiltonian is homogeneous in the masses, so each level is 2^k times the level at
    # the masses times 2^-k, to the search noise
    def levels(*masses):
        code, out, err = run(capsys, "salpeter", "--states", "1S,2S", "--format", "json",
                             "--me-mev", masses[0], "--mp-mev", masses[1], *basis)
        assert (code, err) == (0, "")
        return _printed_levels(out, "json")

    got = levels(m_e, m_p)
    reference = levels(*(repr(math.ldexp(float(m), -k)) for m in (m_e, m_p)))
    assert list(got) == list(reference) == ["1S", "2S"]
    for state, value in reference.items():
        assert abs(got[state] - math.ldexp(value, k)) <= 1e-11 * abs(math.ldexp(value, k)), state


def test_compare_fills_the_ss_cells_at_masses_the_grid_refused(capsys):
    # the NaN basis at these masses emptied every SS cell; the Bohr-unit core solves them
    for masses, md5 in [(("--me-mev", "1e-260", "--mp-mev", "1.5e-60"),
                         "3021708ca06fe973d6c9122f20139335"),
                        (("--me-mev", "1e-300"), "dab522e3f8a7db3e750a8d5f8df6d9fc"),
                        (("--me-mev", "1e-305"), "dab522e3f8a7db3e750a8d5f8df6d9fc")]:
        code, out, err = run(capsys, "compare", "--basis-size", "8", *masses)
        assert (code, err) == (0, "")
        assert hashlib.md5(out.encode()).hexdigest() == md5
        flags = [line.split()[-1] for line in out.splitlines()[12:]]
        assert len(flags) == 10 and not any("ss=UNAVAILABLE" in f for f in flags)


def test_compare_empties_the_qc_cells_where_the_qc_level_cancels(capsys):
    # m_p = 2.2e6 MeV puts m_plus^2/(4 m_e m_p) past 2^20: no qc level, but M_im has no
    # cancellation and keeps its cells
    code, out, err = run(capsys, "compare", "--basis-size", "8", "--format", "json",
                         "--mp-mev", "2.2e6")
    assert (code, err) == (0, "")
    table = json.loads(out)["table"]
    assert [row["qc"] for row in table["energies"]] == [None] * len(TABLE_STATES)
    for row in table["accuracies"]:
        assert row["eps_qc"] is None and row["flags"]["qc"] == "UNAVAILABLE"
        assert row["m_im"] > 0.0 and row["flags"]["m_im"] != "UNAVAILABLE"


def test_compare_fills_the_ss_cells_at_the_largest_masses(capsys):
    # at CODATA times 2^1014 v*ev_per_mev*mu overflowed and compare exited 1 with an error line
    def ss_cells(*masses):
        code, out, err = run(capsys, "compare", "--basis-size", "8", "--format", "json", *masses)
        assert (code, err) == (0, "")
        return {row["state"]: row["ss"] for row in json.loads(out)["table"]["energies"]}

    got = ss_cells("--me-mev", "8.97089157544774e+304", "--mp-mev", "1.6471926554550651e+308")
    for state, value in ss_cells().items():
        assert abs(got[state] - math.ldexp(value, 1014)) <= 1e-11 * abs(math.ldexp(value, 1014))


_MASS_MEV = st.floats(min_value=1e-300, max_value=1e308, allow_subnormal=False)
_MASS_COMMANDS = (
    *[("spectrum", "--model", model)
      for model in ("schrodinger", "sommerfeld", "kg", "scalar", "qc")],
    ("spectrum", "--model", "schrodinger", "--reduced-mass"),
    ("spectrum", "--model", "scalar", "--reduced-mass"),
    ("widths",),
    ("constants",),
)


# run() drains capsys on every call, so no output carries over between examples
@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_MASS_MEV, _MASS_MEV)
@example(0.5109989461, 1e308)
def test_every_printed_number_is_finite_over_the_masses(capsys, m_1, m_2):
    assume(m_1 != m_2)
    m_e, m_p = sorted((m_1, m_2))
    for command in _MASS_COMMANDS:
        code, out, err = run(capsys, *command, "--me-mev", repr(m_e), "--mp-mev", repr(m_p),
                             "--format", "csv")
        if code == 1:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
            continue
        assert code == 0, err
        values = [float(line.rsplit(",", 1)[1]) for line in out.splitlines()[1:]]
        assert values and all(map(math.isfinite, values)), (command, out)


_MODEL_FLAGS = ("schrodinger", "sommerfeld", "kg", "scalar", "qc")
_NUMBER_SEPARATORS = re.compile(r'[\s,:=|"\[\]{}]+')


@st.composite
def _state_lists(draw):
    # labels such as 1S and pairs k:l (l past the letters too); a k,l pair splits in two
    def label(k, l, form):
        return (f"{k + 1}{SPECTROSCOPIC_LETTERS[l % 5]}", f"{k}:{l}", f"{k},{l}")[form]

    pairs = st.tuples(st.integers(0, 3), st.integers(0, 4) | st.integers(0, 9),
                      st.sampled_from([0, 0, 0, 1, 1, 2]))
    return ",".join(label(*p) for p in draw(st.lists(pairs, min_size=1, max_size=4)))


# pairs that two independent draws rarely give: m_e*m_p near the smallest normal double,
# where mu changes form, and m_e + m_p near the largest double, where m_plus overflows
_EDGE_MASS_PAIRS = (
    st.tuples(st.floats(1e-300, 1e-8), st.floats(0.25, 4.0)).map(
        lambda t: (t[0], t[1] * sys.float_info.min / t[0]))
    | st.tuples(st.floats(0.5 * sys.float_info.max, sys.float_info.max), st.floats(0.5, 1.5)).map(
        lambda t: (t[0], t[1] * (sys.float_info.max - t[0])))
)


@st.composite
def _cli_argv(draw):
    """An argv over every command and the documented ranges of its options."""
    command = draw(st.sampled_from(
        ["spectrum", "widths", "verify", "salpeter", "salpeter", "compare", "constants"]))
    argv = [command, "--format", draw(st.sampled_from(["text", "csv", "json"]))]
    if command == "spectrum":
        argv += ["--model", draw(st.sampled_from(_MODEL_FLAGS))]
        argv += ["--reduced-mass"] if draw(st.booleans()) else []
    if command in ("spectrum", "widths", "salpeter"):
        argv += ["--states", draw(_state_lists())]
    # small bases keep the solves fast; 512 is refused by the overlap check
    basis = {"salpeter": st.integers(4, 32) | st.integers(4, 32) | st.sampled_from([3, 512]),
             "compare": st.integers(3, 12)}
    if command in basis:
        argv += ["--basis-size", str(draw(basis[command]))]
    if command == "verify" and draw(st.booleans()):
        lam = draw(st.floats(0.84, 1e150) | st.sampled_from([math.nan, math.inf, -math.inf]))
        argv += ["--lambda-mev", repr(lam)]
    if command != "constants" and draw(st.booleans()):
        argv += ["--z", str(draw(st.integers(1, 100) | st.integers(0, 300)))]
    # each input keeps its default in about half the draws
    mass = st.none() | st.none() | st.floats(1e-3, 1e4) | st.floats(1e-300, 1e308)
    alpha = draw(st.none() | st.none() | st.floats(1e-4, 0.05) | st.floats(1e-6, 1.0)
                 | st.sampled_from([math.nan, math.inf]))
    if draw(st.integers(0, 4)) == 0:
        m_e, m_p = draw(_EDGE_MASS_PAIRS)
    else:
        m_e = draw(mass)
        m_p = draw(mass | st.just(m_e))  # equal masses included
    if m_e is not None and m_p is not None:
        m_e, m_p = sorted((m_e, m_p))
    for flag, value in (("--alpha", alpha), ("--me-mev", m_e), ("--mp-mev", m_p)):
        argv += [] if value is None else [flag, repr(value)]
    return argv


def _printed_levels(out: str, fmt: str) -> dict:
    if fmt == "json":
        return {r["state"]: r["T_eV"] for r in json.loads(out)}
    return {state: float(value) for state, value in
            (line.replace(",", " ").split() for line in out.splitlines()[1:])}


# run() drains capsys on every call, so no output carries over between examples
@settings(deadline=None, max_examples=80,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_cli_argv())
@example(["salpeter", "--format", "csv", "--states", "1S,1G", "--basis-size", "16", "--z", "80"])
@example(["compare", "--format", "json", "--basis-size", "8"])
@example(["spectrum", "--model", "qc", "--states", "1S", "--format", "json",
          "--me-mev", "5.109989461e-101", "--mp-mev", "9.382720813e-98"])  # printed 459.5x deep
@example(["widths", "--me-mev", "9.467141690717716e+77",
          "--mp-mev", "1.7383117530683519e+81"])  # CODATA x 2^260: printed 1S Gamma as inf
@example(["salpeter", "--format", "text", "--states", "1S", "--basis-size", "4",
          "--mp-mev", "8.98846567431158e+307"])  # printed a numpy overflow warning
@example(["constants", "--format", "text", "--me-mev", "8.988465674311578e+307",
          "--mp-mev", "8.98846567431158e+307"])  # printed m_plus as 1.797693135e+308, read as inf
def test_cli_input_contract(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    if code == 1 and not err.startswith("verification failed: "):  # verify's residual gate
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    for token in _NUMBER_SEPARATORS.split(out):
        try:
            value = float(token)
        except ValueError:
            continue
        assert math.isfinite(value), (argv, token)
    assert run(capsys, *argv) == (code, out, err), argv
    if argv[0] == "salpeter" and code == 0:
        # the searched level is the least of a search whose bracket holds the Bohr scale, on
        # the core the fixed-scale solve uses; the search stops once its values agree to
        # _SCALE_RTOL (measured: searched - fixed <= 4.5e-14 relative over 221 random solves)
        args = cli.build_parser().parse_args(argv)
        fixed = salpeter_levels(cli._split_states(args.states), cli._solver_from(args)._replace(
            scale_search=False), Constants(alpha=args.alpha, m_e=args.me_mev, m_p=args.mp_mev),
            z=args.z)
        printed = _printed_levels(out, args.format)
        rounding = 0.0 if args.format == "json" else 5e-9  # text and csv print 8 decimals
        assert list(printed) == [state.label for state in fixed]
        for state, value in fixed.items():
            assert printed[state.label] <= value + _SCALE_RTOL * abs(value) + rounding, argv


def test_salpeter_prints_the_weak_coupling_levels(capsys):
    # criterion 3 on the printed bytes: the O(alpha^4) two-body expansion within 5e-5 eV
    code, out, err = run(capsys, "salpeter", "--format", "json", "--basis-size", "64")
    assert (code, err) == (0, "")
    printed = _printed_levels(out, "json")
    assert sorted(printed) == sorted(state.label for state in TABLE_STATES)
    for state in TABLE_STATES:
        assert abs(printed[state.label] - salpeter_weak_coupling(state)) <= 5e-5, state.label


def test_constants_refuses_z(capsys):
    code, out, err = run(capsys, "constants", "--z", "2")
    assert (code, out) == (2, "")
    assert "--z" in err


# (argv, column, power): the nonrelativistic level scales as Z^2 and the
# quasiclassical width 2|M_im| ~ m_minus Z alpha/N as Z
@pytest.mark.parametrize("argv, column, power", [
    *[(("spectrum", "--model", model), "T_eV", 2)
      for model in ("schrodinger", "sommerfeld", "kg", "scalar", "qc")],
    (("widths",), "gamma_MeV", 1),
])
def test_z_reaches_every_model(capsys, argv, column, power):
    def values(z):
        code, out, _ = run(capsys, *argv, "--z", z, "--format", "json")
        assert code == 0
        return {r["state"]: r[column] for r in json.loads(out)}

    one, two = values("1"), values("2")
    assert list(one) == list(two)
    for state in one:
        assert abs(two[state] / (2**power * one[state]) - 1.0) < 1e-3, state


@pytest.mark.parametrize("argv", [
    ("spectrum", "--model", "qc", "--z", "275", "--states", "1S"),  # printed -512866 eV
    ("widths", "--z", "100000", "--states", "1S"),  # printed Gamma = 685063 MeV
])
def test_quasiclassical_level_past_v_1_exit_code(capsys, argv):
    # v = Z*alpha/(2N) >= 1 leaves the quasiclassical quadratic without a bound root
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "no quasiclassical level" in err


def test_quasiclassical_level_just_below_v_1_prints(capsys):
    code, out, _ = run(capsys, "spectrum", "--model", "qc", "--z", "274", "--states", "1S",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["T_eV"] == pytest.approx(-511003.76608531, rel=1e-10)


def _reference_csv(tmp_path) -> str:
    """The built-in reference written as a --reference file."""
    from hlevels import builtin_reference

    ref = tmp_path / "ref.csv"
    lines = ["state,k,l,T_eV"]
    for st_, v in builtin_reference().entries.items():
        lines.append(f"{st_.label},{st_.k},{st_.l},{v}")
    ref.write_text("\n".join(lines) + "\n")
    return str(ref)


def test_compare_past_v_1_empties_the_quasiclassical_cells(capsys, tmp_path):
    code, out, _ = run(capsys, "compare", "--z", "275", "--reference", _reference_csv(tmp_path),
                       "--basis-size", "16", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    # v >= 1 only at N = 1, so only 1S loses its quasiclassical cells
    energies = {r["state"]: r for r in doc["table"]["energies"]}
    accuracies = {r["state"]: r for r in doc["table"]["accuracies"]}
    assert [s for s, r in energies.items() if r["qc"] is None] == ["1S"]
    assert [s for s, r in accuracies.items() if r["m_im"] is None] == ["1S"]
    assert accuracies["1S"]["flags"] == {k: "UNAVAILABLE" for k in ("kg", "ss", "qc", "m_im")}
    assert accuracies["2S"]["flags"]["m_im"] == "MISMATCH"


# masses whose quasiclassical b^2 = (m_a m_minus v)^2 leaves the normal doubles
_QC_OUT_OF_RANGE = [
    ("5.109989461e-101", "9.382720813e-98"),  # CODATA x 1e-100: 1S printed 459.5x too deep
    ("2.508541587073535e-91", "4.606065342981127e-88"),  # CODATA x 2^-300
    ("1e+20", "1.5e+100"),  # compare printed qc inf and exited 1
]


@pytest.mark.parametrize("m_e, m_p", _QC_OUT_OF_RANGE)
@pytest.mark.parametrize("argv", [("spectrum", "--model", "qc"), ("widths",), ("verify",)])
def test_quasiclassical_masses_out_of_range_are_an_error_line(capsys, argv, m_e, m_p):
    code, out, err = run(capsys, *argv, "--me-mev", m_e, "--mp-mev", m_p)
    assert (code, out) == (1, "")
    assert err == (f"error: quasiclassical 1S at Z = 1, m_e = {m_e} MeV and m_p = {m_p} MeV: "
                   "the inputs exceed the range of double precision\n")


@pytest.mark.parametrize("m_e, m_p, basis", [
    *((m_e, m_p, ("--basis-size", "8")) for m_e, m_p in _QC_OUT_OF_RANGE),
    (*_QC_OUT_OF_RANGE[1], ()),
], ids=[*(f"{m_e}-{m_p}" for m_e, m_p in _QC_OUT_OF_RANGE), "codata-x2^-300-default-basis"])
def test_compare_empties_the_quasiclassical_cells_at_masses_out_of_range(capsys, m_e, m_p, basis):
    code, out, err = run(capsys, "compare", *basis, "--format", "json",
                         "--me-mev", m_e, "--mp-mev", m_p)
    assert (code, err) == (0, "")
    table = json.loads(out)["table"]
    assert all(r["qc"] is None and r["kg"] is not None for r in table["energies"])
    for row in table["accuracies"]:
        assert row["m_im"] is None
        assert row["flags"]["qc"] == row["flags"]["m_im"] == "UNAVAILABLE"


@pytest.mark.parametrize("l", [8, 17, 40])
def test_a_state_past_the_letters_is_refused_before_the_solve(capsys, l):
    # from l = 17 the basis overflows on the top octaves of the grid: no solve, no warning
    code, out, err = run(capsys, "salpeter", "--states", f"1S,0:{l}", "--basis-size", "8")
    assert (code, out, err) == (1, "", f"error: no spectroscopic letter for l={l}\n")


def test_cli_reports_the_grid_a_basis_needs(capsys):
    code, out, err = run(capsys, "salpeter", "--basis-size", "3000", "--states", "1S")
    assert (code, out) == (1, "")
    assert err == "error: basis_size 3000 needs quad_nodes >= 6000, have 4096\n"


def test_cli_refuses_the_largest_basis_the_grid_takes(capsys):
    # 2048 is the largest basis the default 4096 quad_nodes admit; the grid aliases it
    code, out, err = run(capsys, "salpeter", "--states", "1S", "--basis-size", "2048")
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: overlap deviates from the identity by \d\.\d{3}e-\d\d "
                        r"\(limit 0\.001\); the momentum grid is too coarse for basis function 158 "
                        r"of l = 0\n", err)


def test_cli_names_the_first_aliased_basis_function(capsys):
    # basis 158 is the largest the grid holds at l = 0: one more is refused at row 158
    code, out, err = run(capsys, "salpeter", "--states", "1S", "--basis-size", "159")
    assert (code, out) == (1, "")
    assert err == ("error: overlap deviates from the identity by 1.083e-03 (limit 0.001); the "
                   "momentum grid is too coarse for basis function 158 of l = 0\n")


def test_salpeter_refuses_a_level_past_the_widest_bracket(capsys, monkeypatch):
    # a first bracket 3700-fold up, in units of 1e6 1/MeV instead of the Bohr length, puts
    # 1S past its 1024-fold widening; the search that did not widen printed 1S = -4.578 eV
    c = default_constants()
    factor = 1e6 * derive(c).mu * c.alpha
    lo, hi = _SCALE_BRACKET
    monkeypatch.setattr("hlevels.salpeter._SCALE_BRACKET", (lo * factor, hi * factor))
    with pytest.raises(ScaleSearchFailure) as refused:
        salpeter_levels([QuantumState(0, 0)], SolverConfig(), c)
    message = str(refused.value)
    length = re.fullmatch(r"1S: the scale search still ends on its lower edge, ([0-9.e+-]+) Bohr "
                          r"lengths, after widening it 1024-fold", message)
    assert length, message
    # the search ends within the guard of the widened lower end; where in it is round-off
    widened = math.log(lo * factor) - _SCALE_WIDENINGS * math.log(_SCALE_WIDEN)
    assert 0.0 <= math.log(float(length[1])) - widened < _SCALE_GUARD
    assert run(capsys, "salpeter", "--states", "1S") == (1, "", f"error: {message}\n")


def test_searched_basis_144_solves(capsys):
    # the searched core shares the Bohr-scale grid; on its own sparser grid it was refused
    # with max|S - I| = 1.160e-3 while the fixed-scale solve passed at 3.3e-5
    code, out, err = run(capsys, "salpeter", "--states", "1S,1G", "--basis-size", "144",
                         "--format", "csv")
    assert (code, err) == (0, "")
    levels = dict(line.split(",") for line in out.splitlines()[1:])
    assert list(levels) == ["1S", "1G"]
    assert float(levels["1S"]) == pytest.approx(-13.5992, abs=1e-3)
    assert float(levels["1G"]) == pytest.approx(-0.5439, abs=1e-3)


@pytest.mark.parametrize("command", ["compare", "salpeter"])
def test_scale_is_a_usage_error(capsys, command):
    # the search sets its bracket from Z; --scale only moved the first bracket
    code, out, err = run(capsys, command, "--scale", "1e6")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --scale" in err


def test_constants_json_with_override(capsys):
    code, out, _ = run(capsys, "constants", "--format", "json", "--alpha", "7.0e-3")
    assert code == 0
    rows = {r["name"]: r["value"] for r in json.loads(out)}
    assert rows["alpha"] == 7.0e-3
    assert rows["derived.m_plus"] == pytest.approx(938.7830802461)


def test_salpeter_subcommand(capsys):
    code, out, _ = run(capsys, "salpeter", "--states", "1S",
                       "--basis-size", "16", "--format", "csv")
    assert code == 0
    value = float(out.splitlines()[1].split(",")[1])
    assert value == pytest.approx(-13.5992, abs=1e-3)


def test_compare_with_custom_reference(capsys, tmp_path):
    code, out, _ = run(capsys, "compare", "--reference", _reference_csv(tmp_path),
                       "--basis-size", "16", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"table", "models", "constants", "mismatches"}
    first = doc["table"]["energies"][0]
    assert first["state"] == "1S"
    assert first["qc"] == pytest.approx(-13.59810653, abs=5e-5)


@pytest.mark.parametrize("rows", [["1S,0,0,nan"], ["1S,0,0,-inf"],
                                  ["1S,0,0,-13.59843445", "2S,1,0,nan"]],
                         ids=["nan", "-inf", "nan-on-line-3"])
def test_compare_refuses_a_reference_energy_that_is_not_finite(capsys, tmp_path, rows):
    # the nan once reached the table and was blamed on the range of double precision
    ref = tmp_path / "ref.csv"
    ref.write_text("\n".join(["state,k,l,T_eV", *rows]) + "\n")
    code, out, err = run(capsys, "compare", "--reference", str(ref), "--basis-size", "8")
    assert (code, out) == (1, "")
    text = rows[-1].rsplit(",", 1)[1]
    assert err == (f"error: line {len(rows) + 1}: binding energy must be negative and finite, "
                   f"got {float(text)}\n")


def test_compare_past_z_1_needs_a_reference(capsys, tmp_path):
    # the built-in reference is hydrogen's; against it every Z=2 cell read MISMATCH
    code, out, err = run(capsys, "compare", "--z", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "--reference" in err
    code, _, _ = run(capsys, "compare", "--z", "2", "--reference", _reference_csv(tmp_path),
                     "--basis-size", "16")
    assert code == 0


def _cell(value, spec: str) -> str:
    return "" if value is None else format(value, spec)


def _csv_cell(value) -> str:
    # the CSV prints each number as the JSON does, in its shortest round-trip form
    return "" if value is None else repr(value)


@pytest.mark.parametrize("z", ["1", "100"])  # at Z=100 the S-wave kg cells are empty
def test_compare_formats_agree_cell_by_cell(capsys, tmp_path, z):
    ref = () if z == "1" else ("--reference", _reference_csv(tmp_path))
    out = {fmt: run(capsys, "compare", "--basis-size", "16", "--z", z, *ref, "--format", fmt)[1]
           for fmt in ("text", "csv", "json")}
    doc = json.loads(out["json"])
    energies, accuracies = doc["table"]["energies"], doc["table"]["accuracies"]
    n = len(energies)
    text = out["text"].splitlines()
    records = list(csv.reader(out["csv"].splitlines()))
    assert len(text) == len(records) == 2 * n + 2
    models, flag_keys = ("kg", "ss", "qc", "nist"), ("kg", "ss", "qc", "m_im")
    for row, line, record in zip(energies, text[1:], records[1:]):
        assert line == f"{row['state']:>5} " + " ".join(
            f"{_cell(row[m], '.8f'):>14}" for m in models)
        assert record == [row["state"]] + [_csv_cell(row[m]) for m in models]
    for row, line, record in zip(accuracies, text[n + 2:], records[n + 2:]):
        eps = [row[f"eps_{m}"] for m in ("kg", "ss", "qc")]
        flags = [row["flags"][k] for k in flag_keys]
        assert line == (f"{row['state']:>5} " + " ".join(f"{_cell(v, '.3e'):>10}" for v in eps)
                        + f" {row['m_im']:10.6f}  "
                        + ",".join(f"{k}={f}" for k, f in zip(flag_keys, flags)))
        assert record == ([row["state"]] + [_csv_cell(v) for v in eps]
                          + [_csv_cell(row["m_im"])] + flags)
    unavailable = {r["state"] for r in accuracies if r["flags"]["kg"] == "UNAVAILABLE"}
    assert unavailable == ({"1S", "2S", "3S"} if z == "100" else set())
    # past the S-wave critical coupling only the S cells of the Salpeter column are empty
    assert {r["state"] for r in accuracies if r["flags"]["ss"] == "UNAVAILABLE"} == unavailable


# one argv for each `error:` line the README's "Input domain" table quotes; a CSV file names
# the reference file of the three lines that refuse one
_REFERENCE_CSV = {
    "error: line 3: binding energy must be negative and finite, got nan":
        "state,k,l,T_eV\n1S,0,0,-13.6\n2S,1,0,nan\n",
    "error: line 2: expected 4 fields, got 3": "state,k,l,T_eV\n1S,0,0\n",
    "error: state 1S appears more than once (line 3)":
        "state,k,l,T_eV\n1S,0,0,-13.6\n1S,0,0,-13.6\n",
}
_DOMAIN_REFUSALS = [
    ("error: alpha out of range: 1.0", ["spectrum", "--alpha", "1"]),
    ("error: need 0 < m_e < m_p", ["spectrum", "--me-mev", "2000"]),
    ("error: m_p must be finite and positive, got inf", ["spectrum", "--mp-mev", "inf"]),
    ("error: derived mass m_plus of m_e = 1e+308, m_p = 1.5e+308 is not finite: inf",
     ["constants", "--me-mev", "1e308", "--mp-mev", "1.5e308"]),
    ("error: quasiclassical 1S at Z = 1, m_e = 2.508541587073535e-91 MeV and "
     "m_p = 4.606065342981127e-88 MeV: the inputs exceed the range of double precision",
     ["spectrum", "--model", "qc", "--me-mev", "2.508541587073535e-91",
      "--mp-mev", "4.606065342981127e-88"]),
    ("error: T_eV of 1S is -inf: the inputs exceed the range of double precision",
     ["salpeter", "--states", "1S", "--me-mev", "8e307", "--mp-mev", "9e307"]),
    ("error: T_eV of 1S is -inf: the inputs exceed the range of double precision",
     ["spectrum", "--model", "kg", "--me-mev", "8e307", "--mp-mev", "9e307"]),
    ("error: argument --z: Z must be an integer >= 1, got '0'", ["spectrum", "--z", "0"]),
    ("error: Z*alpha = 0.503517 >= angular bound 0.5; state destroyed (Z=69)",
     ["spectrum", "--model", "kg", "--z", "69"]),
    ("error: Z*alpha/(2N) = 1.003386 >= 1 at N = 1; no quasiclassical level (Z=275)",
     ["spectrum", "--model", "qc", "--z", "275"]),
    ("error: Z*alpha = 0.642167 > critical coupling 0.636620 for l=0; no Salpeter level (Z=88)",
     ["salpeter", "--states", "1S", "--z", "88"]),
    ("error: alpha and lambda must be positive", ["verify", "--lambda-mev", "0"]),
    ("error: alpha and lambda must be finite, got 0.0072973525664, inf",
     ["verify", "--lambda-mev", "inf"]),
    ("error: overflow encountered in square: the inputs exceed the range of double precision",
     ["verify", "--lambda-mev", "1e146"]),
    ("error: basis_size must be >= 4", ["salpeter", "--states", "1S", "--basis-size", "3"]),
    ("error: overlap deviates from the identity by 1.025e-03 (limit 0.001); the momentum grid "
     "is too coarse for basis function 155 of l = 3",
     ["salpeter", "--states", "1F", "--basis-size", "156"]),
    ("error: basis_size 3000 needs quad_nodes >= 6000, have 4096",
     ["salpeter", "--states", "1S", "--basis-size", "3000"]),
    ("error: unknown spectroscopic letter 'Q'", ["spectrum", "--states", "1Q"]),
    ("error: no spectroscopic letter for l=8", ["spectrum", "--states", "0:8"]),
    ("error: no state labels in ','", ["spectrum", "--states", ","]),
    *((line, ["compare", "--reference"]) for line in _REFERENCE_CSV),
    ("error: quasiclassical 1S at m_e = 0.5109989461 MeV and m_p = 2200000.0 MeV: its two "
     "terms cancel past m_plus^2/(4 m_e m_p) = 2^20", ["spectrum", "--mp-mev", "2.2e6"]),
]


def test_readme_input_domain_lines_each_have_a_case():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme[readme.index("## Input domain"):readme.index("## Salpeter solver")]
    assert set(re.findall(r"`(error: [^`]*)`", table)) == {line for line, _ in _DOMAIN_REFUSALS}


@pytest.mark.parametrize("line, argv", _DOMAIN_REFUSALS)
def test_cli_prints_the_readme_input_domain_line(capsys, tmp_path, line, argv):
    if line in _REFERENCE_CSV:
        path = tmp_path / "reference.csv"
        path.write_text(_REFERENCE_CSV[line], encoding="utf-8")
        argv = [*argv, str(path)]
    code, out, err = run(capsys, *argv)
    # argparse prefixes its usage errors with the program and the command
    usage = line.startswith("error: argument ")
    assert err.splitlines()[-1] == (f"hlevels {argv[0]}: {line}" if usage else line)
    assert (code, out) == (2 if usage else 1, "")
