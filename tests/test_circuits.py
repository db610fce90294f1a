import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scqsim import circuits as cir


# ---------------------------------------------------------------------------
# SQUID
# ---------------------------------------------------------------------------

def test_squid_constructive():
    assert cir.squid_effective_ej(cir.SquidParams(10, 10, 0.0)) == pytest.approx(20.0)


def test_squid_destructive():
    assert cir.squid_effective_ej(cir.SquidParams(10, 10, np.pi)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_squid_asymmetric():
    # direct evaluation: sqrt(144 + 64 + 0)
    val = cir.squid_effective_ej(cir.SquidParams(12, 8, np.pi / 2))
    assert val == pytest.approx(np.sqrt(208.0), rel=1e-14)
    assert val == pytest.approx(14.422205101855956)


def test_squid_inductance_symmetric_form():
    p = cir.SquidParams(10, 10, 1.1)
    assert cir.squid_inductance(p) == pytest.approx(
        1.0 / (2 * 10 * abs(np.cos(1.1 / 2)))
    )


def test_squid_inductance_diverges_at_pi():
    with pytest.raises(ZeroDivisionError, match="infinite"):
        cir.squid_inductance(cir.SquidParams(10, 10, np.pi))


# ---------------------------------------------------------------------------
# Island circuits
# ---------------------------------------------------------------------------

def test_island_free_limit():
    # E_J = 0: eigenvalues are exactly 4 E_C (N - N_ext)^2
    p = cir.CircuitParams(0.0, 0.3, n_ext=0.2)
    h = cir.island_hamiltonian(p, ncut=8)
    got = np.sort(np.linalg.eigvalsh(h.entries))
    want = np.sort([4 * 0.3 * (n - 0.2) ** 2 for n in range(-8, 9)])
    assert np.allclose(got, want, atol=1e-12)


def test_island_degeneracy_splitting_is_ej():
    # charge regime: the N_ext = 0.5 anticrossing size is about E_J
    p = cir.CircuitParams(0.05, 1.0, n_ext=0.5)
    res = cir.spectrum(cir.island_hamiltonian(p), 3)
    assert res.omega_q == pytest.approx(0.05, rel=0.05)


def test_transmon_frequency_and_anharmonicity():
    p = cir.CircuitParams(20.0, 0.4)
    res = cir.spectrum(cir.island_hamiltonian(p), 4)
    assert abs(res.omega_q - 7.6) / 7.6 < 0.02
    assert abs(res.anharmonicity + 0.4) / 0.4 < 0.15
    assert res.anharmonicity < 0


def test_island_requires_island_params():
    with pytest.raises(ValueError):
        cir.island_hamiltonian(cir.CircuitParams(5, 1, e_l=1.0))
    with pytest.raises(ValueError, match="ncut"):
        cir.island_hamiltonian(cir.CircuitParams(5, 1), ncut=3)


def test_island_convergence_in_ncut():
    p = cir.CircuitParams(20.0, 0.4, n_ext=0.3)
    a = cir.spectrum(cir.island_hamiltonian(p, 30), 5).levels
    b = cir.spectrum(cir.island_hamiltonian(p, 40), 5).levels
    assert np.max(np.abs(a - b)) < 1e-8


def test_island_charge_symmetry_and_periodicity():
    p = lambda n: cir.CircuitParams(3.0, 1.0, n_ext=n)
    for n_ext in (0.1, 0.3, 0.45):
        a = cir.spectrum(cir.island_hamiltonian(p(n_ext)), 4).levels
        b = cir.spectrum(cir.island_hamiltonian(p(1.0 - n_ext)), 4).levels
        c = cir.spectrum(cir.island_hamiltonian(p(n_ext + 1.0)), 4).levels
        assert np.max(np.abs(a - b)) < 1e-10
        assert np.max(np.abs(a - c)) < 1e-10


def test_transmon_limit_window():
    for ratio in (50.0, 100.0):
        e_c = 0.25
        e_j = ratio * e_c
        res = cir.spectrum(cir.island_hamiltonian(cir.CircuitParams(e_j, e_c)), 4)
        plasma = np.sqrt(8 * e_j * e_c)
        assert plasma - 1.5 * e_c <= res.omega_q <= plasma - 0.5 * e_c
        assert res.anharmonicity < 0


def test_charge_qubit_vs_larger_cutoff_oracle():
    p = cir.CircuitParams(0.5, 1.0, n_ext=0.5)
    small = cir.spectrum(cir.island_hamiltonian(p, ncut=30), 6).levels
    oracle = cir.spectrum(cir.island_hamiltonian(p, ncut=60), 6).levels
    assert np.max(np.abs(small - oracle)) < 1e-10


# ---------------------------------------------------------------------------
# Loop circuits
# ---------------------------------------------------------------------------

def test_loop_harmonic_limit():
    p = cir.CircuitParams(0.0, 1.0, 1.0)
    res = cir.loop_spectrum(p, 5)
    spacing = np.diff(res.levels)
    assert np.all(np.abs(spacing - np.sqrt(8.0)) / np.sqrt(8.0) < 0.01)
    assert abs(res.anharmonicity) < 0.01 * res.omega_q


def test_loop_harmonic_independent_of_flux():
    base = cir.loop_spectrum(cir.CircuitParams(0.0, 1.0, 1.0, 0.0, 0.0), 4).levels
    biased = cir.loop_spectrum(cir.CircuitParams(0.0, 1.0, 1.0, 0.0, 2.1), 4).levels
    assert np.max(np.abs(base - biased)) < 1e-8


def test_fluxonium_double_well_doublet():
    # E_J/E_L = 5, E_J/E_C = 5 at half flux: tunnel-split ground doublet
    p = cir.CircuitParams(5.0, 1.0, 1.0, 0.0, np.pi)
    res = cir.loop_spectrum(p, 4)
    plasma = np.sqrt(8 * 5.0 * 1.0)
    assert res.omega_q < 0.2 * plasma
    assert res.levels[2] > 5 * res.omega_q


def test_loop_grid_doubling_convergence():
    # extent 4*pi comfortably contains the double-well wavefunctions here,
    # so halving h (doubling npoints) probes pure finite-difference error
    p = cir.CircuitParams(5.0, 1.0, 1.0, 0.0, np.pi)
    a = cir.loop_spectrum(p, 4, extent=4 * np.pi, npoints=32768).levels
    b = cir.loop_spectrum(p, 4, extent=4 * np.pi, npoints=65536).levels
    assert np.max(np.abs(a - b)) < 1e-6


def test_loop_resolution_error():
    with pytest.raises(ValueError, match="npoints"):
        cir.loop_spectrum(cir.CircuitParams(5, 1, 1), nlevels=3, npoints=127)
    with pytest.raises(ValueError, match="npoints"):
        cir.loop_spectrum(cir.CircuitParams(5, 1, 1), npoints=64)
    with pytest.raises(ValueError, match="npoints"):
        cir.dipole_elements(cir.CircuitParams(5, 1, 1), nlevels=3, npoints=64)
    with pytest.raises(ValueError, match="E_L > 0"):
        cir.loop_spectrum(cir.CircuitParams(5, 1, 0), nlevels=3)
    with pytest.raises(ValueError):
        cir.loop_spectrum(cir.CircuitParams(5, 1, 0))


def _loop_hamiltonian(p, extent=cir.DEFAULT_EXTENT, npoints=cir.DEFAULT_NPOINTS):
    """The dense phase-grid H of a loop circuit (the oracle of loop_spectrum):
    kinetic term 4 E_C N^2 by second-order central differences, potential
    E_L phi^2/2 - E_J cos(phi - phi_ext), Dirichlet walls at +-extent."""
    diag, off, _ = cir._loop_tridiagonal(p, extent, npoints)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def test_loop_dense_matches_tridiagonal():
    p = cir.CircuitParams(2.0, 0.5, 1.0, 0.0, 1.0)
    dense = cir.spectrum(_loop_hamiltonian(p, npoints=512), 4).levels
    tri = cir.loop_spectrum(p, 4, npoints=512).levels
    assert np.max(np.abs(dense - tri)) < 1e-10


# ---------------------------------------------------------------------------
# Spectrum plumbing
# ---------------------------------------------------------------------------

def test_spectrum_harmonic_has_zero_anharmonicity():
    h = np.diag([0.0, 1.0, 2.0, 3.0])
    res = cir.spectrum(h, 4)
    assert res.anharmonicity == pytest.approx(0.0, abs=1e-12)
    assert res.omega_q == pytest.approx(1.0)


def test_spectrum_errors():
    with pytest.raises(ValueError, match="nlevels"):
        cir.spectrum(np.eye(3), 5)
    with pytest.raises(ValueError, match="Hermitian"):
        cir.spectrum(np.array([[0, 1], [0, 0]], dtype=complex), 2)


@pytest.mark.parametrize("nlevels", [0, 1])
def test_spectrum_needs_two_levels(nlevels):
    """omega_q is the 0-1 gap: fewer levels raise ValueError, not IndexError."""
    with pytest.raises(ValueError, match="nlevels must be >= 2"):
        cir.spectrum(np.diag([0.0, 1.0, 2.0]), nlevels)
    with pytest.raises(ValueError, match="nlevels must be >= 2"):
        cir.circuit_spectrum(cir.CircuitParams(20.0, 0.4), nlevels)
    # at 0 scipy's eigensolver rejects the empty index range first
    with pytest.raises(ValueError):
        cir.loop_spectrum(cir.CircuitParams(5.0, 1.0, 1.0), nlevels, npoints=256)


def test_loop_spectrum_checks_levels_before_solver():
    """The message names nlevels, not the eigensolver's index range."""
    p = cir.CircuitParams(5.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="nlevels must be >= 2 to give omega_q, got 0"):
        cir.loop_spectrum(p, 0, npoints=256)
    with pytest.raises(ValueError, match="nlevels must be >= 1, got 0"):
        cir.dipole_elements(p, nlevels=0, npoints=256)


@pytest.mark.parametrize("params", [cir.CircuitParams(20.0, 0.4),
                                    cir.CircuitParams(20.0, 0.4, 0.0, 0.2),
                                    cir.CircuitParams(5.0, 1.0, 1.0)])
def test_dipole_elements_one_level_is_the_corner(params):
    """A 1-level block is the (0, 0) corner of a larger one."""
    one = cir.dipole_elements(params, nlevels=1, npoints=256)
    three = cir.dipole_elements(params, nlevels=3, npoints=256)
    for key in ("charge", "flux", "ej"):
        assert one[key].shape == (1, 1)
        assert np.allclose(one[key], three[key][:1, :1], atol=1e-12)


def test_charge_matrix_element_diagonal():
    """<0|N|0> exists: zero by parity at N_ext = 0, equal to the dipole
    block's diagonal (over 8 E_C) at N_ext = 0.2."""
    p = cir.CircuitParams(20.0, 0.4)
    assert abs(cir.charge_matrix_element(p, 0, 0)) < 1e-12
    q = cir.CircuitParams(2.0, 0.4, 0.0, 0.2)
    charge = cir.dipole_elements(q, nlevels=2)["charge"] / (8 * q.e_c)
    for i in (0, 1):
        assert cir.charge_matrix_element(q, i, i) == pytest.approx(charge[i, i],
                                                                  abs=1e-12)


def test_spectrum_result_invariants():
    with pytest.raises(ValueError, match="ground-referenced"):
        cir.SpectrumResult(np.array([1.0, 2.0]), 1.0, 0.0)
    with pytest.raises(ValueError, match="sorted"):
        cir.SpectrumResult(np.array([0.0, 2.0, 1.0]), 2.0, 0.0)


# ---------------------------------------------------------------------------
# Charge dispersion
# ---------------------------------------------------------------------------

def test_charge_dispersion_decreases_with_ratio():
    disp = [
        abs(cir.charge_dispersion(cir.CircuitParams(r * 1.0, 1.0)))
        for r in (1, 5, 10, 20, 50)
    ]
    assert all(a > b for a, b in zip(disp, disp[1:]))


def test_charge_dispersion_flat_at_50():
    p = cir.CircuitParams(50.0, 1.0)
    res = cir.spectrum(cir.island_hamiltonian(p), 3)
    assert abs(cir.charge_dispersion(p)) / res.omega_q < 1e-4


def test_charge_dispersion_vs_cutoff_oracle():
    p = cir.CircuitParams(20.0, 1.0)
    assert cir.charge_dispersion(p, ncut=30) == pytest.approx(
        cir.charge_dispersion(p, ncut=60), abs=1e-8
    )


# ---------------------------------------------------------------------------
# Dipole elements and rates
# ---------------------------------------------------------------------------

def test_charge_dipole_parity_zero():
    dip = cir.dipole_elements(cir.CircuitParams(20.0, 0.4), nlevels=3)
    assert abs(dip["charge"][0, 0]) < 1e-10


def test_flux_sweet_spot_diagonal_difference():
    p = cir.CircuitParams(5.0, 1.0, 1.0, 0.0, np.pi)
    dip = cir.dipole_elements(p, nlevels=3, npoints=2048)
    diff = abs(dip["flux"][1, 1] - dip["flux"][0, 0])
    scale = abs(dip["flux"][0, 1]) + 1e-12
    assert diff < 1e-6 * max(scale, 1.0)


def _dense_loop_dipoles(p, nlevels, npoints, extent=cir.DEFAULT_EXTENT):
    """Oracle for loop ``dipole_elements``: the npoints x npoints charge
    (central difference), sin and cos matrices, multiplied densely."""
    v = cir.circuit_spectrum(p, max(nlevels, 2), extent=extent,
                             npoints=npoints).eigenvectors[:, :nlevels]
    phi = np.linspace(-extent, extent, npoints + 2)[1:-1]
    n_op = np.zeros((npoints, npoints), dtype=complex)
    idx = np.arange(npoints - 1)
    n_op[idx, idx + 1] = -1j / (2 * (phi[1] - phi[0]))
    n_op[idx + 1, idx] = +1j / (2 * (phi[1] - phi[0]))
    return {"charge": v.conj().T @ (8 * p.e_c * n_op) @ v,
            "flux": v.conj().T @ np.diag(-p.e_j * np.sin(phi - p.phi_ext)) @ v,
            "ej": v.conj().T @ np.diag(-p.e_j * np.cos(phi - p.phi_ext)) @ v}


@pytest.mark.parametrize("params", [cir.CircuitParams(5.0, 1.0, 1.0),
                                    cir.CircuitParams(5.0, 1.0, 1.0, 0.0, np.pi),
                                    cir.CircuitParams(2.0, 0.5, 1.0, 0.0, 1.0)])
@pytest.mark.parametrize("nlevels", [1, 3, 5])
def test_loop_dipoles_match_dense_operators(params, nlevels):
    got = cir.dipole_elements(params, nlevels=nlevels, npoints=512)
    want = _dense_loop_dipoles(params, nlevels, 512)
    for key in ("charge", "flux", "ej"):
        assert got[key].shape == (nlevels, nlevels) and got[key].dtype == complex
        assert np.max(np.abs(got[key] - want[key])) < 1e-12


def test_loop_dipoles_build_no_grid_matrix():
    """At the default 2,048 points a dense npoints x npoints complex matrix
    alone is 64 MB; the loop dipoles peak under 16 MB."""
    p = cir.CircuitParams(5.0, 1.0, 1.0, 0.0, np.pi)
    tracemalloc.start()
    try:
        cir.dipole_elements(p, nlevels=5, npoints=2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def test_charge_matrix_element_zero_point():
    e_j, e_c = 20.0, 0.4
    el = abs(cir.charge_matrix_element(cir.CircuitParams(e_j, e_c)))
    n0 = (e_j / (32 * e_c)) ** 0.25
    assert abs(el - n0) / n0 < 0.05


def test_thermalization_zero_noise():
    dip = cir.dipole_elements(cir.CircuitParams(20.0, 0.4), nlevels=2)
    noise = [cir.NoiseSpec("charge", 0.0, -1.0)]
    assert cir.thermalization_rate(dip, noise, 7.6) == 0.0


def test_thermalization_ohmic_scaling():
    dip = cir.dipole_elements(cir.CircuitParams(20.0, 0.4), nlevels=2)
    noise = [cir.NoiseSpec("charge", 1e-3, -1.0)]
    g1 = cir.thermalization_rate(dip, noise, 5.0)
    g2 = cir.thermalization_rate(dip, noise, 10.0)
    assert g2 == pytest.approx(2 * g1, rel=1e-12)


def test_thermalization_hand_evaluated():
    # scalar cross-check of the golden-rule formula for one channel
    dip = {"flux": np.array([[0.0, 0.25], [0.25, 0.0]])}
    noise = [cir.NoiseSpec("flux", 2.0, 1.0)]
    omega_q = 4.0
    expected = (2 * np.pi * 0.25) ** 2 * 2.0**2 * (1e-9 / 4.0) ** 1.0
    assert cir.thermalization_rate(dip, noise, omega_q) == pytest.approx(expected)


def test_dephasing_transmon_flat():
    p = cir.CircuitParams(50.0, 1.0)
    noise = cir.NoiseSpec("charge", 1.0, 1.0)
    rate = cir.dephasing_rate(p, noise)
    # flat band: |d omega/d N_ext| tiny compared to the band scale
    assert rate < 1e-3


def test_flux_sweet_spot_found_at_pi():
    p = cir.CircuitParams(5.0, 1.0, 1.0)
    spot = cir.sweet_spot(p, "flux", (np.pi - 0.8, np.pi + 0.7), tol=1e-7,
                          npoints=1024)
    assert abs(spot - np.pi) < 1e-6


def test_sweet_spot_not_found():
    p = cir.CircuitParams(5.0, 1.0, 1.0)
    with pytest.raises(cir.SweetSpotNotFound):
        cir.sweet_spot(p, "flux", (0.3, 1.2), npoints=512)


def test_unknown_bias_channel_named():
    p = cir.CircuitParams(5.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="unknown bias channel 'bogus'"):
        cir.frequency_derivative(p, "bogus")
    with pytest.raises(ValueError, match="unknown bias channel 'bogus'"):
        cir.sweet_spot(p, "bogus", (2.3, 3.8))


def test_quadratic_oracle_derivative_and_root():
    # analytic parabola: omega(x) = a (x - x0)^2
    a, x0 = 0.37, 1.234
    f = lambda x: a * (x - x0) ** 2
    d = cir.central_difference(f, 2.0, 1e-5)
    assert abs(d - 2 * a * (2.0 - x0)) < 1e-8
    root = cir.find_derivative_zero(f, (0.0, 3.0), delta=1e-5, tol=1e-10)
    assert abs(root - x0) < 1e-8


@given(st.floats(0.0, 0.1), st.floats(0.0, 0.1))
@settings(max_examples=50, deadline=None)
def test_relaxation_rates_invariant(gamma_par, gamma_phi):
    rates = cir.relaxation_rates(gamma_par, gamma_phi)
    assert rates.t2 <= 2 * rates.t1 + 1e-12


def test_relaxation_rates_subnormal_decay():
    """T2 = 2 T1 exactly without dephasing, even at a subnormal rate."""
    for gamma_par in (3.219975241989888e-308, 5e-324, 1e-3):
        rates = cir.relaxation_rates(gamma_par, 0.0)
        assert rates.t2 == 2 * rates.t1


def test_relaxation_rates_relation():
    r = cir.relaxation_rates(0.01, 0.02)
    assert 1.0 / r.t1 == pytest.approx(0.01)
    assert 1.0 / r.t2 == pytest.approx(0.01 / 2 + 0.02)


def test_circuit_params_validation():
    with pytest.raises(ValueError):
        cir.CircuitParams(-1.0, 1.0)
    with pytest.raises(ValueError):
        cir.CircuitParams(1.0, 0.0)
    with pytest.raises(ValueError):
        cir.CircuitParams(1.0, 1.0, -0.5)
