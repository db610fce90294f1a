import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scqsim import cli, control, coupling, experiments, gates
from scqsim import surface_code as sc
from scqsim import dynamics as dyn
from scqsim.qcore import CZ_GATE, to_angular


def run_cli(args):
    return cli.main([str(a) for a in args])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def printed(x):
    """A float as the CLI prints it: 12 significant digits."""
    return float(f"{x:.12g}")


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_parse_key_value_with_sections():
    cfg = cli.parse_config(
        """
        # comment
        kind = rabi
        points = 11
        flag = true
        [fit]
        weights = 1, 2, 3
        """
    )
    assert cfg["kind"] == "rabi"
    assert cfg["points"] == 11
    assert cfg["flag"] is True
    assert cfg["fit"]["weights"] == [1, 2, 3]


def test_parse_json_config():
    cfg = cli.parse_config('{"e_j_ghz": 20.0, "e_c_ghz": 0.4}')
    assert cfg["e_j_ghz"] == 20.0


def test_parse_bad_line_rejected():
    with pytest.raises(cli.ConfigError, match="key = value"):
        cli.parse_config("what is this line")


def test_validate_keys_rejects_unknown():
    with pytest.raises(cli.ConfigError, match="unknown config key.*e_jj"):
        cli.validate_keys({"e_jj": 1.0}, {"e_j_ghz": ...})


def test_validate_keys_missing_required():
    with pytest.raises(cli.ConfigError, match="missing required"):
        cli.validate_keys({}, {"e_j_ghz": ...})


def test_validate_keys_coerces_to_schema_types():
    schema = {"x_ghz": float, "n": 4, "lengths": [1, 2], "kind": "a"}
    c = cli.validate_keys({"x_ghz": 2, "n": 3.0, "lengths": 5}, schema)
    assert c == {"x_ghz": 2.0, "n": 3, "lengths": [5], "kind": "a"}
    assert type(c["x_ghz"]) is float and type(c["n"]) is int
    assert cli.validate_keys({"x_ghz": float("inf")}, schema)["x_ghz"] == np.inf
    for bad in ({"x_ghz": True}, {"x_ghz": float("nan")}, {"x_ghz": "1"},
                {"x_ghz": 1.0, "n": 2.5}, {"x_ghz": 1.0, "n": False},
                {"x_ghz": 1.0, "kind": 3}, {"x_ghz": 1.0, "lengths": [1, 1.5]}):
        with pytest.raises(cli.ConfigError, match="must be"):
            cli.validate_keys(bad, schema)


def _plain_word(s):
    # key = value text has no quoting, so a word spelled as a bool or a
    # number (true, inf, nan, ...) is read as one; JSON keeps it a string
    try:
        float(s)
    except ValueError:
        return s.lower() not in ("true", "false")
    return False


_KEYS = st.from_regex(r"[a-c]{1,2}", fullmatch=True)
_VALUES = st.one_of(
    st.integers(-10**12, 10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,7}", fullmatch=True).filter(_plain_word),
)
_SPECS = st.sampled_from([int, float, str, ..., 3, 2.5, "word", [1.0], [2]])


def _as_text(v):
    # str of a float is its shortest round-trip repr
    return str(v).lower() if isinstance(v, bool) else str(v)


def _validated(cfg, schema):
    try:
        return repr(sorted(cli.validate_keys(cfg, schema).items()))
    except cli.ConfigError as exc:
        return f"ConfigError: {exc}"


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_KEYS, _VALUES, max_size=5),
       st.dictionaries(_KEYS, _SPECS, max_size=5))
def test_config_text_and_json_validate_alike(flat, schema):
    text = "".join(f"{k} = {_as_text(v)}\n" for k, v in flat.items())
    from_text = cli.parse_config(text)
    from_json = cli.parse_config(json.dumps(flat))
    assert _validated(from_text, schema) == _validated(from_json, schema)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def test_spectrum_subcommand(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("circuit = island\ne_j_ghz = 20.0\ne_c_ghz = 0.4\n")
    out = tmp_path / "out"
    assert run_cli(["spectrum", "--config", cfg, "--out", out]) == 0
    report = read_json(out / "spectrum.json")
    assert abs(report["omega_q_ghz"] - 7.6) / 7.6 < 0.02
    lines = (out / "levels.csv").read_text().splitlines()
    assert lines[0] == "level,energy_ghz"
    assert float(lines[1].split(",")[1]) == 0.0
    manifest = read_json(out / "manifest.json")
    assert manifest["subcommand"] == "spectrum"
    assert set(manifest["versions"]) == {"python", "numpy", "scipy", "scqsim"}


def test_spectrum_unknown_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("e_j_ghz = 20.0\ne_c_ghz = 0.4\ntypo_key = 1\n")
    assert run_cli(["spectrum", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "typo_key" in capsys.readouterr().err


def test_qec_flags_without_config(tmp_path):
    out = tmp_path / "qec"
    code = run_cli(["qec", "--d", 3, "--p", 0.0, "--shots", 100, "--out", out])
    assert code == 0
    report = read_json(out / "qec.json")
    assert report["logical_error_rate"] == 0.0
    assert report["shots"] == 100


def test_qec_manifest_carries_decoder_stats(tmp_path):
    out = tmp_path / "qec"
    assert run_cli(["qec", "--d", 5, "--p", 0.08, "--shots", 2000, "--out", out,
                    "--seed", 11]) == 0
    stats = read_json(out / "manifest.json")["stats"]
    res = sc.logical_error_rate(5, 0.08, 1, 2000, 11)
    assert stats == {"max_defects": res.max_defects,
                     "distinct_syndromes": res.distinct_syndromes}
    assert set(stats["max_defects"]) == {"z", "x"}
    assert min(stats["distinct_syndromes"].values()) > 1


@pytest.mark.parametrize("circuit", ["island", "loop"])
@pytest.mark.parametrize("nlevels", [0, 1])
def test_spectrum_fewer_than_two_levels_exit_2(tmp_path, capsys, circuit, nlevels):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"circuit = {circuit}\ne_j_ghz = 5.0\ne_c_ghz = 1.0\n"
                   f"e_l_ghz = 1.0\nnpoints = 256\nnlevels = {nlevels}\n")
    assert run_cli(["spectrum", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "config error" in capsys.readouterr().err


def test_couple_subcommand(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "omega_q_ghz = 5.0\nomega_r_ghz = 6.0\ng_ghz = 0.1\nkappa_ghz = 0.02\n")
    out = tmp_path / "o"
    assert run_cli(["couple", "--config", cfg, "--out", out]) == 0
    rep = read_json(out / "couple.json")
    assert rep["chi_ghz"] == pytest.approx(0.01)
    assert rep["vacuum_rabi_splitting_ghz"] == pytest.approx(0.2, rel=1e-6)
    assert rep["kappa_is_snr_optimal"] is True


def test_couple_rejects_gamma_ghz(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "omega_q_ghz = 5.0\nomega_r_ghz = 6.0\ng_ghz = 0.1\ngamma_ghz = 0.01\n")
    assert run_cli(["couple", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "unknown config key(s): gamma_ghz;" in capsys.readouterr().err


def test_evolve_rejects_dt_ns(tmp_path, capsys):
    """A static run takes exact maps, so there is no step to set."""
    cfg = tmp_path / "e.cfg"
    cfg.write_text("t_end_ns = 10.0\ndt_ns = 0.01\n")
    assert run_cli(["evolve", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "unknown config key(s): dt_ns;" in capsys.readouterr().err


def test_evolve_subcommand(tmp_path):
    cfg = tmp_path / "e.cfg"
    cfg.write_text("t1_ns = 100.0\nt2_ns = 150.0\nt_end_ns = 50.0\nsamples = 11\n")
    out = tmp_path / "o"
    assert run_cli(["evolve", "--config", cfg, "--out", out]) == 0
    lines = (out / "evolve.csv").read_text().splitlines()
    assert lines[0] == "t_ns,p1,purity"
    assert len(lines) == 12


def test_evolve_t2_above_twice_t1_exit_2(tmp_path, capsys):
    cfg = tmp_path / "e.cfg"
    cfg.write_text("t1_ns = 80\nt2_ns = 200\nt_end_ns = 10.0\nsamples = 3\n")
    assert run_cli(["evolve", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "T2 cannot exceed 2 T1" in capsys.readouterr().err


def test_evolve_default_t2_is_twice_t1(tmp_path):
    """The default T2 = inf adds no pure dephasing: same bytes as T2 = 2 T1.
    ``experiment`` reads an explicit ``t2_ns = inf`` the same way."""
    runs = [("evolve", "t1_ns = 80.0\ndrive_ghz = 0.02\nt_end_ns = 5.0\n"
                       "samples = 6\n", "", "t2_ns = 160.0\n", ["evolve.csv"])]
    runs += [("experiment", f"kind = {kind}\nt1_ns = 800.0\ntau_max_ns = 300.0\n"
                            "points = 31\n", "t2_ns = inf\n",
              "t2_ns = 1600.0\n", [f"{kind}.csv", f"{kind}_fit.json"])
             for kind in ("rabi", "t1", "ramsey")]
    for sub, base, t2_inf, t2_twice, files in runs:
        outs = []
        for name, t2 in (("inf", t2_inf), ("twice", t2_twice)):
            cfg = tmp_path / f"{files[0]}-{name}.cfg"
            cfg.write_text(base + t2)
            out = tmp_path / f"{files[0]}-{name}"
            assert run_cli([sub, "--config", cfg, "--out", out]) == 0
            outs.append([(out / f).read_bytes() for f in files])
        assert outs[0] == outs[1], files


def test_evolve_rows_are_the_rotating_frame_model(tmp_path):
    """evolve.csv is the driven qubit in the rotating frame, built by hand:
    H = 2 pi (detuning |1><1| + drive sigma_x / 2), start in |0><0|, T1 decay
    and pure dephasing at 1/T2 - 1/(2 T1)."""
    cfg = tmp_path / "e.cfg"
    cfg.write_text("t1_ns = 100.0\nt2_ns = 150.0\ndrive_ghz = 0.005\n"
                   "detuning_ghz = 0.001\nt_end_ns = 20.0\nsamples = 21\n")
    assert run_cli(["evolve", "--config", cfg, "--out", tmp_path / "o"]) == 0
    excited = np.diag([0.0, 1.0]).astype(complex)
    h = (to_angular(0.001) * excited
         + 0.5 * to_angular(0.005) * np.array([[0, 1], [1, 0]], dtype=complex))
    res = dyn.lindblad_evolve(h, np.diag([1.0, 0.0]).astype(complex),
                              dyn.qubit_collapse_ops(100.0, 150.0),
                              times=np.linspace(0.0, 20.0, 21), dt=0.01,
                              e_ops={"p1": excited})
    cli.write_csv(tmp_path / "want.csv", ["t_ns", "p1", "purity"],
                  [res.times, res.expectations["p1"],
                   [state.purity() for state in res.states]])
    assert ((tmp_path / "o" / "evolve.csv").read_bytes()
            == (tmp_path / "want.csv").read_bytes())


@pytest.mark.parametrize("text", [
    "t1_ns = 100.0\nt2_ns = 150.0\ndrive_ghz = 0.005\nt_end_ns = 200.0\n",
    "drive_ghz = 0.005\ndetuning_ghz = 0.001\nt_end_ns = 200.0\nsamples = 2001\n",
])
def test_evolve_purity_column_equals_per_state_purity(tmp_path, monkeypatch, text):
    """The purity column, one stacked product, is each state's purity()."""
    written, runs = {}, []
    run = experiments.qubit_run

    def recorded_run(*args, **kwargs):
        runs.append(run(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(experiments, "qubit_run", recorded_run)
    monkeypatch.setattr(cli, "write_csv",
                        lambda path, header, columns: written.update(zip(header, columns)))
    cfg = tmp_path / "e.cfg"
    cfg.write_text(text)
    assert run_cli(["evolve", "--config", cfg, "--out", tmp_path / "o"]) == 0
    want = [state.purity() for state in runs[0].states]
    assert np.array_equal(written["purity"], want)


_J = 0.01
_CR = gates.CRParams(coupling.TwoQubitParams(6.0, 5.5, _J, alpha_1=-0.3), 0.05)
# each kind at the tau that calibrates it (as in perfbench/jobs.py)
_GATE_TAU = {"iswap": (np.pi / 2) / (2 * np.pi * _J),
             "bswap": np.pi / (2 * np.pi * _J),
             "cz": np.pi / (np.sqrt(2) * 2 * np.pi * _J),
             "cr": (np.pi / 2) / (2 * np.pi * _CR.omega_cr)}
_GATE_LIBRARY = {
    "iswap": lambda tau: (gates.coherent_exchange(to_angular(_J), tau),
                          gates.ISWAP_GATE),
    "bswap": lambda tau: (gates.bswap(to_angular(_J), tau), gates.BSWAP_GATE),
    "cz": lambda tau: (gates.Operator(gates.cz_coherent_exchange(
        to_angular(_J), tau).entries[:4, :4]), CZ_GATE),
    "cr": lambda tau: (gates.cr_gate(_CR, tau).propagator,
                       gates.cr_propagator(np.pi / 2)),
}


@pytest.mark.parametrize("kind", ["iswap", "bswap", "cz", "cr"])
def test_gate_subcommand(tmp_path, kind):
    """gate.json is the library propagator at the calibrated tau, as printed."""
    tau = _GATE_TAU[kind]
    cfg = tmp_path / "g.cfg"
    cr_keys = "omega_q1_ghz = 6.0\nepsilon_ghz = 0.05\n" if kind == "cr" else ""
    cfg.write_text(f"kind = {kind}\nj_ghz = {_J}\ntau_ns = {tau}\n{cr_keys}")
    out = tmp_path / "o"
    assert run_cli(["gate", "--config", cfg, "--out", out]) == 0
    rep = read_json(out / "gate.json")
    u, target = _GATE_LIBRARY[kind](tau)
    assert rep["kind"] == kind
    assert rep["infidelity"] == printed(gates.gate_infidelity(u, target)) < 1e-9
    for part, values in (("re", np.real(u.entries)), ("im", np.imag(u.entries))):
        assert rep[f"propagator_{part}"] == [[printed(v) for v in row]
                                             for row in values]


def test_echo_subcommand(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["echo", "--out", out]) == 0
    rep = read_json(out / "echo.json")
    assert rep["identity_residual"] < 1e-10
    assert rep["pi_pulses"] == 2


@pytest.mark.parametrize("subcommand, text", [
    ("evolve", "t_end_ns = 10.0\nsamples = 0\n"),
    ("experiment", "kind = t1\npoints = 0\n"),
])
def test_empty_sample_grid_exit_2(tmp_path, capsys, subcommand, text):
    cfg = tmp_path / "e.cfg"
    cfg.write_text(text)
    assert run_cli([subcommand, "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "sample grid is empty" in capsys.readouterr().err


def test_experiment_subcommand(tmp_path):
    cfg = tmp_path / "x.cfg"
    cfg.write_text(
        "kind = t1\nt1_ns = 500\nt2_ns = 800\ntau_max_ns = 2500\npoints = 41\n")
    out = tmp_path / "o"
    assert run_cli(["experiment", "--config", cfg, "--out", out]) == 0
    fit = read_json(out / "t1_fit.json")
    assert abs(fit["params"]["t1"] - 500.0) / 500.0 < 0.01


@pytest.mark.parametrize("kind", ["rabi", "t1", "ramsey"])
def test_experiment_manifest_carries_fit_stats(tmp_path, kind):
    """``experiment`` writes its fit's convergence and evaluations into the
    manifest, as the library's fit of the same run reports them (a Rabi or
    Ramsey fit also its branch and each fit's evaluations)."""
    cfg = tmp_path / "x.cfg"
    cfg.write_text(f"kind = {kind}\nshots = 500\n")
    out = tmp_path / "o"
    assert run_cli(["experiment", "--config", cfg, "--out", out, "--seed", 4]) == 0
    stats = read_json(out / "manifest.json")["stats"]
    taus, readout = np.linspace(0.0, 1000.0, 101), experiments.ReadoutModel(0.0, 0.0, 500)
    if kind == "rabi":
        data = experiments.run_rabi(to_angular(0.01), taus, 10000.0, 15000.0, readout, 4)
    elif kind == "t1":
        data = experiments.run_t1(taus, 10000.0, 15000.0, readout, 4)
    else:
        data = experiments.run_ramsey(taus, 10000.0, 15000.0, 0.001, readout, 4)
    fit = getattr(experiments, f"fit_{kind}")(data.x, data.signal)
    assert stats == {"fit_converged": fit.converged, "fit_nfev": fit.nfev,
                     **{f"fit_{k}": v for k, v in fit.stats.items()}}
    assert ("fit_branch" in stats) == (kind != "t1")
    assert stats["fit_converged"] is read_json(out / f"{kind}_fit.json")["converged"]
    assert stats["fit_nfev"] > 0


def test_grape_subcommand(tmp_path):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("n_slices = 4\ndt_ns = 1.6\nrestarts = 4\n"
                   "target_infidelity = 1e-5\n")
    out = tmp_path / "o"
    assert run_cli(["grape", "--config", cfg, "--out", out]) == 0
    rep = read_json(out / "grape.json")
    assert rep["converged"] is True
    assert rep["fidelity"] >= 0.9999
    header = (out / "pulse.csv").read_text().splitlines()[0]
    assert header == "t_ns,omega_x_GHz,omega_y_GHz"
    assert b"\r" not in (out / "pulse.csv").read_bytes()     # LF, as write_csv


def test_grape_bound_clips_pulse(tmp_path):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("n_slices = 12\ndt_ns = 1.6\nbound_ghz = 0.04\nrestarts = 2\n")
    out = tmp_path / "o"
    assert run_cli(["grape", "--config", cfg, "--out", out]) == 0
    rows = (out / "pulse.csv").read_text().splitlines()[1:]
    amps = np.array([[float(v) for v in r.split(",")[1:]] for r in rows])
    assert amps.shape == (24, 2)
    assert np.max(np.abs(amps)) <= 0.04 * (1 + 1e-12)


def test_grape_manifest_carries_optimizer_stats(tmp_path):
    """``grape`` writes the returned run's gradient evaluations, step
    halvings and stop reason into the manifest, as the library reports them
    for the same problem and seed."""
    cfg = tmp_path / "g.cfg"
    cfg.write_text("")
    out = tmp_path / "o"
    assert run_cli(["grape", "--config", cfg, "--out", out, "--seed", 7]) == 0
    stats = read_json(out / "manifest.json")["stats"]
    prob = control.transmon_pi_problem(to_angular(-0.2))
    u0 = np.zeros((2, 4))
    u0[0] = control.pi_pulse("gaussian", prob.total_time, nsamples=5).omega_x[:-1]
    res = control.grape_multistart(prob, restarts=8, seed=7, u0=u0)
    assert stats == res.stats
    assert stats["stop"] == "target"
    assert read_json(out / "grape.json")["iterations"] == len(res.trace)


def test_rb_subcommand(tmp_path):
    cfg = tmp_path / "rb.cfg"
    cfg.write_text(
        "lengths = 1, 2, 4, 8, 16, 32, 64, 128, 256\n"
        "sequences_per_length = 45\nshots = 250\ndepolarizing = 0.01\n")
    out = tmp_path / "o"
    assert run_cli(["rb", "--config", cfg, "--out", out, "--seed", "3"]) == 0
    rep = read_json(out / "rb.json")
    assert abs(rep["r"] - 0.01) / 0.01 < 0.05
    assert {"A", "p", "B", "r", "CI"} <= set(rep)


def test_rb_interleaved_subcommand(tmp_path):
    """rb.json carries the interleaved estimate of the library call."""
    cfg = tmp_path / "rb.cfg"
    cfg.write_text("lengths = 1, 2, 4, 8, 16, 32, 64\nsequences_per_length = 12\n"
                   "shots = 200\ndepolarizing = 0.01\ninterleaved = 3\n")
    out = tmp_path / "o"
    assert run_cli(["rb", "--config", cfg, "--out", out, "--seed", "5"]) == 0
    rep = read_json(out / "rb.json")
    res = experiments.rb_interleaved(experiments.RBConfig(
        lengths=(1, 2, 4, 8, 16, 32, 64), sequences_per_length=12, shots=200,
        error={"depolarizing": 0.01}, interleaved=3, seed=5))
    assert rep["p_C"] == printed(res.p_c)
    assert rep["r_C"] == printed(res.r_c)
    assert rep["bounds"] == [printed(b) for b in res.bounds]
    assert rep["bounds"][0] < rep["r_C"] < rep["bounds"][1]
    assert 0.0 < rep["p_C"] <= 1.0


def test_numeric_failure_exit_3(tmp_path, capsys):
    cfg = tmp_path / "e.cfg"
    # a decay rate too large for floats: the generator is not finite, and
    # the run has to give up rather than emit garbage
    cfg.write_text("t1_ns = 1e-308\ndrive_ghz = 0.5\nt_end_ns = 10.0\n"
                   "samples = 3\n")
    assert run_cli(["evolve", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unstable_run_exit_3_without_numpy_warnings(tmp_path, capsys):
    """A generator that overflows to inf is a numeric failure (exit 3, not
    the config error of the ValueError that LinAlgError is), reported with
    no numpy warning on the way."""
    cfg = tmp_path / "e.cfg"
    cfg.write_text("t1_ns = 1e-308\ndrive_ghz = 0.5\n"
                   "t_end_ns = 1000\nsamples = 2\n")
    assert run_cli(["evolve", "--config", cfg, "--out", tmp_path / "o"]) == 3
    err = capsys.readouterr().err
    assert "numeric failure: non-finite step generator" in err
    assert "Warning" not in err


@pytest.mark.parametrize("subcommand, text", [
    ("spectrum", "e_c_ghz = 0.4\ne_j_ghz = inf\n"),
    ("couple", "omega_q_ghz = 5.0\nomega_r_ghz = 6.0\ng_ghz = inf\n"),
    ("evolve", "t1_ns = inf\nt_end_ns = 10.0\ndrive_ghz = -inf\n"),
    ("gate", "kind = iswap\nj_ghz = 0.01\ntau_ns = inf\n"),
    ("grape", "alpha_ghz = -inf\n"),
    ("echo", "tau_ns = inf\n"),
    ("qec", "p = inf\n"),
    ("experiment", "kind = rabi\nt2_ns = inf\nrabi_ghz = inf\n"),
    ("rb", "depolarizing = inf\n"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_infinite_float_exit_2(tmp_path, capsys, subcommand, text):
    """Only T1 and T2 may be infinite; any other float key names itself."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert run_cli([subcommand, "--config", cfg, "--out", tmp_path / "o"]) == 2
    key = text.strip().splitlines()[-1].split(" = ")[0]
    assert f"{key} must be finite, got " in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "t_end_ns = 10.0\ndt_ns = 0\n",
    "t_end_ns = 10.0\ndt_ns = -0.01\n",
    "t_end_ns = 10.0\ndt_ns = inf\n",
    "t_end_ns = -10.0\n",
    "t_end_ns = inf\n",
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_evolve_bad_time_inputs_exit_2(tmp_path, capsys, text):
    cfg = tmp_path / "e.cfg"
    cfg.write_text("t1_ns = 100.0\nsamples = 3\n" + text)
    assert run_cli(["evolve", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, text", [
    ("gate", "kind = iswap\nj_ghz = 0.01\ntau_ns = -25\n"),
    ("echo", "npoints = 0\n"),
    ("echo", "npoints = -2\n"),
    ("echo", "tau_ns = -1\n"),
    ("echo", "kind = hahn\nn = 0\n"),
    ("spectrum", "e_j_ghz = 20.0\ne_c_ghz = 0.4\nnpoints = 0\n"),
    ("spectrum", "circuit = loop\ne_j_ghz = 4.0\ne_c_ghz = 1.0\ne_l_ghz = 1.0\n"
                 "ncut = 0\n"),
    ("rb", "shots = -3\n"),
    ("rb", "sequences_per_length = 0\n"),
    ("rb", "interleaved = -2\n"),
    ("grape", "restarts = 0\n"),
    ("evolve", "t_end_ns = -10.0\n"),
    ("evolve", "t_end_ns = 10.0\nsamples = -1\n"),
    ("experiment", "kind = t1\npoints = -3\n"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_below_minimum_exit_2(tmp_path, capsys, subcommand, text):
    """A count or time below its least valid value names its key."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert run_cli([subcommand, "--config", cfg, "--out", tmp_path / "o"]) == 2
    key = text.strip().splitlines()[-1].split(" = ")[0]
    assert f"config error: {key} must be >= " in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "interleaved = 24\n", "eps01 = 1.5\n", "eps10 = -0.5\n", "prep_error = 2.0\n",
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rb_out_of_range_exit_2(tmp_path, capsys, text):
    """An interleaved index past the 24 Cliffords or a probability outside
    [0, 1] names its key instead of failing or clipping."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("lengths = 1, 2, 4\nsequences_per_length = 3\n" + text)
    assert run_cli(["rb", "--config", cfg, "--out", tmp_path / "o"]) == 2
    key = text.split(" = ")[0]
    assert f"config error: {key} must " in capsys.readouterr().err


def test_rb_manifest_carries_fit_stats(tmp_path):
    cfg = tmp_path / "rb.cfg"
    cfg.write_text("lengths = 1, 2, 4, 8, 16, 32, 64\nsequences_per_length = 12\n"
                   "shots = 200\ndepolarizing = 0.01\ninterleaved = 3\n")
    out = tmp_path / "o"
    assert run_cli(["rb", "--config", cfg, "--out", out, "--seed", "5"]) == 0
    stats = read_json(out / "manifest.json")["stats"]
    res = experiments.rb_interleaved(experiments.RBConfig(
        lengths=(1, 2, 4, 8, 16, 32, 64), sequences_per_length=12, shots=200,
        error={"depolarizing": 0.01}, interleaved=3, seed=5))
    assert stats == {"standard": res.standard.stats,
                     "interleaved": res.interleaved.stats}
    assert stats["standard"]["cliffords"] == 12 * 127
    assert stats["standard"]["fit_nfev"] > 0


# rb.csv and rb.json of the benchmark's RB shapes at seed 7, recorded with
# numpy 2.4.6: rb.csv from the per-gate loop that the tree product replaced,
# rb.json from the grid-seeded Gauss-Newton decay fit (digests: rb.csv, rb.json)
_RB_PINNED = {
    "lengths = 1, 2, 4, 8, 16, 32, 64, 128, 256\nsequences_per_length = 45\n":
        ("870204a0baafaf99464572ec436391a01df92f4121454b5c2cd8aa65d6df904c",
         "c655af2680382d18097b56dde54a8954ac144b44249974390c2ba7ac381a5dfc"),
    "lengths = 1, 2, 4, 8, 16, 32, 64, 128, 256\nsequences_per_length = 45\n"
    "prep_error = 0.02\n":
        ("3988027d8e6331c93d355ba9cc2a0971251c10a915ed71a8cf632bca2cdc977d",
         "315072a26c2d8e1d424e2317b52af6ee3b7597ae87a65f2326ac88d098fb97d8"),
    "lengths = 1, 2, 4, 8, 16, 32, 64, 128\nsequences_per_length = 40\n"
    "interleaved = 3\n":
        ("8993ec3b1fd0cbb663d96d12e8fcd89eaeec5c7095e4ebe741d557eb166479f7",
         "5bad8e3b81cd221793495e867e257565575b3ab1cb4c7a1c1d315b02735bfe7c"),
}


@pytest.mark.parametrize("text", list(_RB_PINNED))
def test_rb_outputs_keep_their_bytes(tmp_path, text):
    cfg = tmp_path / "rb.cfg"
    cfg.write_text(text + "shots = 250\ndepolarizing = 0.01\n")
    out = tmp_path / "o"
    assert run_cli(["rb", "--config", cfg, "--out", out, "--seed", "7"]) == 0
    got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("rb.csv", "rb.json"))
    assert got == _RB_PINNED[text]


def _per_value_csv(path, header, rows):
    """write_csv as it formatted each value on its own (oracle)."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cli.fmt(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _row_csv(path, header, rows):
    """write_csv as it took a list of row tuples (oracle): an all-float row of
    header length in one format call, any other row value by value."""
    floats = ",".join(["{:.12g}"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            if len(row) == len(header) and all(isinstance(v, float) for v in row):
                fh.write(floats.format(*row))
            else:
                fh.write(",".join(cli.fmt(v) if isinstance(v, float) else str(v)
                                  for v in row) + "\n")


_CSV_TABLES = {
    "specials": [[0.1, np.nan, np.inf, -np.inf, -0.0],
                 np.array([1 / 3, -2.5e-300, 1e22, 123456789012345.0, -0.0]),
                 [np.float64(0.5), np.float64(-np.inf), np.float64(np.nan),
                  np.float64(7.0), np.float64(2.0 ** -1074)]],
    "mixed": [np.arange(4), [7, -3, 0, 2**40], ["a", "b c", "", "-0.0"],
              np.array([0.25, 1e-7, 5e15, 123.456])],
    "one column": [np.linspace(-1.0, 1.0, 9)],
    "empty": [np.array([]), [], np.array([], dtype=int)],
}


def test_write_csv_matches_per_value_writer(tmp_path):
    """The whole-table writer gives the bytes of the row writer it replaced
    and of the value-by-value writer, on the rows the columns make."""
    for name, columns in _CSV_TABLES.items():
        header = [f"c{i}" for i in range(len(columns))]
        rows = list(zip(*columns))
        cli.write_csv(tmp_path / "got.csv", header, columns)
        _row_csv(tmp_path / "rows.csv", header, rows)
        _per_value_csv(tmp_path / "want.csv", header, rows)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "rows.csv").read_bytes(), name
        assert got == (tmp_path / "want.csv").read_bytes(), name


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="3 columns of equal length"):
        cli.write_csv(tmp_path / "x.csv", ["a", "b", "c"], [[1.0], [2.0]])
    with pytest.raises(ValueError, match="2 columns of equal length"):
        cli.write_csv(tmp_path / "x.csv", ["a", "b"], [[1.0, 2.0], [3.0]])


def test_evolve_manifest_carries_repair_counts(tmp_path):
    cfg = tmp_path / "e.cfg"
    cfg.write_text("t1_ns = 100.0\nt2_ns = 150.0\nt_end_ns = 50.0\nsamples = 11\n")
    out = tmp_path / "o"
    assert run_cli(["evolve", "--config", cfg, "--out", out]) == 0
    stats = read_json(out / "manifest.json")["stats"]
    assert stats["renormalized"] == stats["clipped"] == 0
    assert stats["clipped_mass"] == 0.0
    assert stats["checked_blocks"] == 1 and stats["powered_maps"] == 1
    assert 0.0 <= stats["max_trace_drift"] < 1e-14


@pytest.mark.parametrize("flags", [
    ["--p", 2], ["--p", -0.1], ["--cycles", 0], ["--cycles", -1], ["--shots", 0],
])
def test_qec_out_of_range_exit_2(tmp_path, capsys, flags):
    out = tmp_path / "qec"
    # the last of two equal flags wins, so "--shots 0" overrides 100
    assert run_cli(["qec", "--d", 3, "--shots", 100, *flags, "--out", out]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, text", [
    ("spectrum", "e_j_ghz = 20.0\ne_c_ghz = x\n"),
    ("couple", "omega_q_ghz = 5.0\nomega_r_ghz = 6.0\ng_ghz = true\n"),
    ("evolve", "t1_ns = abc\nt_end_ns = 10.0\n"),
    ("evolve", "t_end_ns = 10.0\nsamples = 2.5\n"),
    ("gate", "kind = 3\n"),
    ("grape", "n_slices = 2.5\n"),
    ("echo", "tau_ns = nan\n"),
    ("qec", "shots = 1, 2\n"),
    ("experiment", "kind = t1\npoints = 2.5\n"),
    ("rb", "lengths = 1, x\n"),
])
def test_wrong_typed_value_exit_2(tmp_path, capsys, subcommand, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert run_cli([subcommand, "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "must be" in capsys.readouterr().err


def test_parser_built_once_reads_as_fresh(capsys):
    assert cli._parser() is cli._parser()
    assert cli._parser().format_help() == cli.build_parser().format_help()
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["qec", "--d", "three"])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["qec", "--d", "three"])
    assert errors[0] == errors[1] == capsys.readouterr().err


def test_missing_config_file_exit_2(tmp_path, capsys):
    assert run_cli(["spectrum", "--config", tmp_path / "nope.cfg",
                    "--out", tmp_path]) == 2


def test_deterministic_outputs(tmp_path):
    cfg = tmp_path / "rb.cfg"
    cfg.write_text("lengths = 1, 4, 16\nsequences_per_length = 8\nshots = 100\n"
                   "depolarizing = 0.02\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(["rb", "--config", cfg, "--out", out, "--seed", "7"]) == 0
        outs.append(out)
    assert (outs[0] / "rb.csv").read_bytes() == (outs[1] / "rb.csv").read_bytes()
    assert (outs[0] / "rb.json").read_bytes() == (outs[1] / "rb.json").read_bytes()
    m0 = read_json(outs[0] / "manifest.json")
    m1 = read_json(outs[1] / "manifest.json")
    m0.pop("timestamp")
    m1.pop("timestamp")
    assert m0 == m1


def test_twelve_significant_digits(tmp_path):
    out = tmp_path / "o"
    cfg = tmp_path / "s.cfg"
    cfg.write_text("e_j_ghz = 20.0\ne_c_ghz = 0.4\nnlevels = 3\n")
    assert run_cli(["spectrum", "--config", cfg, "--out", out]) == 0
    val = (out / "levels.csv").read_text().splitlines()[2].split(",")[1]
    assert len(val.replace(".", "").replace("-", "").lstrip("0")) >= 11


def test_module_entry_point(tmp_path, src_env):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("e_j_ghz = 20.0\ne_c_ghz = 0.4\n")
    proc = subprocess.run(
        [sys.executable, "-m", "scqsim", "spectrum", "--config", str(cfg),
         "--out", str(tmp_path / "o")],
        capture_output=True, env=src_env,
    )
    assert proc.returncode == 0


def test_experiment_and_rb_never_load_scipy_optimize(tmp_path, src_env):
    """The fits run on numpy alone: CLI experiment (all three kinds) and rb
    finish without importing scipy.optimize."""
    args = []
    runs = [("experiment", f"kind = {k}\n") for k in ("rabi", "t1", "ramsey")]
    runs.append(("rb", "lengths = 1, 2, 4, 8, 16\nsequences_per_length = 5\n"))
    for i, (sub, text) in enumerate(runs):
        (tmp_path / f"{i}.cfg").write_text(text)
        args.append(f"{sub} --config {tmp_path / f'{i}.cfg'} --out {tmp_path / str(i)}")
    code = ("import sys; from scqsim import cli\n"
            "codes = [cli.main(a.split()) for a in sys.argv[1:]]\n"
            "print(codes, 'scipy.optimize' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=src_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0] False"


def test_import_leaves_scipy_linalg_and_optimize_unloaded(src_env):
    code = ("import sys, scqsim.cli; print(sorted(m for m in "
            "('scipy.linalg', 'scipy.optimize') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=src_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
