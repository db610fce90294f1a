"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance is pinned here, not deferred; runtime budgets are asserted
with ``time.monotonic`` around the criterion body.
"""

import time

import numpy as np

from scqsim import circuits as cir
from scqsim import control as ctl
from scqsim import coupling as cp
from scqsim import dynamics as dyn
from scqsim import experiments as ex
from scqsim import gates
from scqsim import qcore as q
from scqsim import surface_code as sc
from scqsim.cli import write_csv, write_json


class Budget:
    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.1f}s exceeds the {self.limit}s budget"
            )
        return False


def report(n, name, detail):
    print(f"ACCEPTANCE {n:2d} ({name}): PASS - {detail}")


def test_01_transmon_limit():
    with Budget(1.0) as b:
        p = cir.CircuitParams(20.0, 0.4)
        res = cir.spectrum(cir.island_hamiltonian(p), 4)
        w_err = abs(res.omega_q - 7.6) / 7.6
        a_err = abs(res.anharmonicity + 0.4) / 0.4
        assert w_err < 0.02
        assert a_err < 0.15
    report(1, "transmon limit",
           f"omega_q={res.omega_q:.4f} GHz ({100 * w_err:.2f}% of 7.6), "
           f"alpha={res.anharmonicity:.4f} GHz ({100 * a_err:.1f}% of -E_C), "
           f"{b.elapsed:.2f}s")


def test_02_charge_dispersion():
    with Budget(5.0) as b:
        ratios = (1, 5, 10, 20, 50)
        disp = [abs(cir.charge_dispersion(cir.CircuitParams(r * 1.0, 1.0)))
                for r in ratios]
        assert all(x > y for x, y in zip(disp, disp[1:]))
        p50 = cir.CircuitParams(50.0, 1.0)
        rel = disp[-1] / cir.spectrum(cir.island_hamiltonian(p50), 3).omega_q
        assert rel < 1e-4
    report(2, "charge dispersion",
           f"strictly decreasing over E_J/E_C={ratios}, "
           f"|disp|/omega_q={rel:.2e} at 50, {b.elapsed:.2f}s")


def test_03_vacuum_rabi_and_dispersive():
    with Budget(1.0) as b:
        g = 0.05
        res = cp.vacuum_rabi_splitting(cp.JCParams(5.0, 5.0, g, n_max=6))
        split_err = abs(res - 2 * g) / (2 * g)
        assert split_err < 1e-10
        delta, ratio = 1.0, 0.02
        p = cp.JCParams(5.0, 6.0, ratio * delta, n_max=8)
        chi = (ratio * delta) ** 2 / delta
        resid = abs(-cp.dressed_qubit_shift(p) - chi)
        assert resid < 5 * ratio**2 * chi
    report(3, "vacuum Rabi / dispersive",
           f"splitting rel err {split_err:.1e}, dispersive residual "
           f"{resid:.2e} < {5 * ratio**2 * chi:.2e}, {b.elapsed:.2f}s")


def test_04_lindblad_analytics():
    with Budget(5.0) as b:
        gamma = 0.02
        times = np.linspace(0.0, 5 / gamma, 51)
        rho0 = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
        res = dyn.lindblad_evolve(np.zeros((2, 2), complex), rho0,
                                  [dyn.qubit_decay(gamma)], times=times, dt=0.25)
        p11 = np.array([s.entries[1, 1].real for s in res.states])
        coh = np.array([abs(s.entries[0, 1]) for s in res.states])
        dev_pop = np.max(np.abs(p11 - 0.5 * np.exp(-gamma * times)))
        dev_coh = np.max(np.abs(coh - 0.5 * np.exp(-gamma * times / 2)))
        assert dev_pop < 1e-6
        assert dev_coh < 1e-6
        t1_fit = -1.0 / np.polyfit(times, np.log(p11), 1)[0]
        t2_fit = -1.0 / np.polyfit(times, np.log(coh), 1)[0]
        assert t2_fit <= 2 * t1_fit + 1e-9
    report(4, "Lindblad analytics",
           f"pop dev {dev_pop:.1e}, coh dev {dev_coh:.1e}, "
           f"T2={t2_fit:.1f} <= 2 T1={2 * t1_fit:.1f}, {b.elapsed:.2f}s")


def test_05_gate_identities():
    with Budget(1.0) as b:
        j = 2 * np.pi * 0.01
        dev_iswap = np.max(np.abs(
            gates.coherent_exchange(j, (np.pi / 2) / j).entries
            - gates.ISWAP_GATE.entries))
        assert dev_iswap < 1e-12

        tau = np.pi / (np.sqrt(2) * j)
        u_cz = gates.cz_coherent_exchange(j, tau).entries
        dev_cz = abs(u_cz[3, 3] + 1.0)
        assert dev_cz < 1e-10

        lhs = q.tensor(q.identity(2), q.H_GATE) @ q.CZ_GATE @ q.tensor(
            q.identity(2), q.H_GATE)
        dev_cnot1 = np.max(np.abs(lhs.entries - q.CNOT_GATE.entries))
        assert dev_cnot1 < 1e-10

        pre = q.tensor(q.rotation_operator("z", -np.pi / 2),
                       q.rotation_operator("x", -np.pi / 2))
        dev_cnot2 = q.global_phase_distance(
            pre @ gates.cr_propagator(np.pi / 2), q.CNOT_GATE)
        assert dev_cnot2 < 1e-10

        eps, jc_ = 0.05, 0.01
        omega_cr = eps * jc_ / (-0.5)
        big = gates.cr_effective_3level(
            gates.CRParams(cp.TwoQubitParams(5.0, 5.5, jc_, alpha_1=1e12), eps))
        small = gates.cr_effective_3level(
            gates.CRParams(cp.TwoQubitParams(5.0, 5.5, jc_, alpha_1=0.0), eps))
        dev_cr = max(abs(big["ix"]), abs(big["zx"] - omega_cr),
                     abs(small["zx"]), abs(small["ix"] - omega_cr))
        assert dev_cr < 1e-9
    report(5, "gate identities",
           f"iSWAP {dev_iswap:.1e}, CZ {dev_cz:.1e}, CNOT-from-CZ "
           f"{dev_cnot1:.1e}, CNOT-from-CR {dev_cnot2:.1e}, CR limits "
           f"{dev_cr:.1e}, {b.elapsed:.2f}s")


def test_06_classical_oscillators():
    with Budget(10.0) as b:
        # (a) resonant pair: FFT peak splitting = 2*delta_f within the grid
        p = cp.ClassicalOscParams.resonant_pair()
        f_lo, f_hi = cp.normal_mode_frequencies(p)
        traj = cp.classical_oscillators(p, t_span=120.0)
        freqs, x1_mag, _ = traj.fourier()
        grid = freqs[1] - freqs[0]
        sel = (freqs > 0.5) & (freqs < 1.6)
        fsel, xsel = freqs[sel], x1_mag[sel]
        peaks = [i for i in range(1, len(xsel) - 1)
                 if xsel[i] > xsel[i - 1] and xsel[i] > xsel[i + 1]]
        top2 = sorted(sorted(peaks, key=lambda i: -xsel[i])[:2])
        split = fsel[top2[1]] - fsel[top2[0]]
        split_err = abs(split - (f_hi - f_lo))
        assert split_err < grid

        # (b) parametric pump at f1 + f2: exponential envelopes
        base = cp.ClassicalOscParams()
        pb = cp.ClassicalOscParams(kappa_m=0.75, f_m=base.f1 + base.f2)
        tb = cp.classical_oscillators(pb, t_span=60.0)
        mask = tb.times > 10
        r2_exp = []
        for env in (tb.envelope(1), tb.envelope(2)):
            y = np.log(env[mask])
            a = np.vstack([tb.times[mask], np.ones(mask.sum())]).T
            coef, resid, *_ = np.linalg.lstsq(a, y, rcond=None)
            r2 = 1 - resid[0] / np.sum((y - y.mean()) ** 2)
            assert coef[0] > 0
            r2_exp.append(r2)
        assert min(r2_exp) > 0.99

        # (c) resonant drive: linear growth of the target envelope
        pc = cp.ClassicalOscParams(a_d=30.0, f_d=base.f2, x0=(0, 0, 0, 0))
        tc = cp.classical_oscillators(pc, t_span=40.0)
        env = tc.envelope(2)
        a = np.vstack([tc.times, np.ones(len(tc.times))]).T
        coef, resid, *_ = np.linalg.lstsq(a, env, rcond=None)
        r2_lin = 1 - resid[0] / np.sum((env - env.mean()) ** 2)
        assert coef[0] > 0
        assert r2_lin > 0.99
    report(6, "classical oscillators",
           f"splitting err {split_err:.4f} < grid {grid:.4f}, exp R2 "
           f">= {min(r2_exp):.4f}, lin R2 {r2_lin:.4f}, {b.elapsed:.1f}s")


def test_07_grape():
    with Budget(120.0) as b:
        alpha = 2 * np.pi * (-0.2)
        # unconstrained, 4 slices of 1.6 ns
        prob = ctl.transmon_pi_problem(alpha, n_slices=4, dt=1.6,
                                       target_infidelity=1e-5)
        u0 = np.zeros((2, 4))
        u0[0] = ctl.pi_pulse("gaussian", prob.total_time, nsamples=5).omega_x[:-1]
        res = ctl.grape_multistart(prob, restarts=8, seed=0, u0=u0)
        fid_a = ctl.phi2_scan_fidelity(prob, res.amplitudes)
        assert fid_a >= 0.9999

        # amplitude-bounded, T = 19.2 ns
        bound = 2 * np.pi * 0.04
        prob_b = ctl.transmon_pi_problem(alpha, n_slices=12, dt=1.6,
                                         bounds=(-bound, bound),
                                         target_infidelity=1e-5)
        u0b = np.zeros((2, 12))
        u0b[0] = np.clip(
            ctl.pi_pulse("gaussian", prob_b.total_time, nsamples=13).omega_x[:-1],
            -bound, bound)
        res_b = ctl.grape_multistart(prob_b, restarts=8, seed=0, u0=u0b)
        fid_b = ctl.phi2_scan_fidelity(prob_b, res_b.amplitudes)
        assert fid_b >= 0.9999
        assert np.max(np.abs(res_b.amplitudes)) <= bound + 1e-12

        # analytic gradient against central finite differences
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(2):
            u = 0.4 * rng.standard_normal((2, 4))
            grad, _, _, _ = ctl._grape_gradient(prob, u)
            num = np.zeros_like(grad)
            for k in range(2):
                for jj in range(4):
                    up, dn = u.copy(), u.copy()
                    up[k, jj] += 1e-6
                    dn[k, jj] -= 1e-6
                    _, fp, _, _ = ctl._grape_gradient(prob, up)
                    _, fm, _, _ = ctl._grape_gradient(prob, dn)
                    num[k, jj] = (fp - fm) / 2e-6
            worst = max(worst, np.max(np.abs(grad - num)) / np.max(np.abs(num)))
        assert worst < 1e-4
    report(7, "GRAPE",
           f"6.4ns fidelity {fid_a:.6f}, bounded 19.2ns fidelity {fid_b:.6f}, "
           f"gradient-vs-FD {worst:.1e}, {b.elapsed:.1f}s")


def test_08_drag():
    with Budget(10.0) as b:
        alpha = 2 * np.pi * (-0.2)
        base = ctl.pi_pulse("gaussian", 6.4, nsamples=641)
        _, leak_plain = ctl.leakage_simulate(base, alpha, np.sqrt(2))
        drag = ctl.drag_envelope(base, alpha)
        _, leak_drag = ctl.leakage_simulate(drag, alpha, np.sqrt(2))
        ratio = leak_plain / leak_drag
        assert ratio >= 10.0
        f, s_plain = ctl.spectrum_of(base, 1 << 14)
        _, s_drag = ctl.spectrum_of(drag, 1 << 14)
        k = np.argmin(np.abs(f - (-0.2)))
        db = 20 * np.log10(s_drag[k] / s_plain[k])
        assert db <= -20.0
    report(8, "DRAG",
           f"leakage {leak_plain:.2e} -> {leak_drag:.2e} ({ratio:.0f}x), "
           f"notch {db:.1f} dB at the anharmonicity, {b.elapsed:.1f}s")


def test_09_refocusing():
    with Budget(5.0) as b:
        # Hahn cancels every sz (x) A coupling
        worst_hahn = 0.0
        for env_axis in ("i", "x", "y", "z"):
            env = (np.eye(2, dtype=complex) if env_axis == "i"
                   else q.pauli(env_axis).entries)
            h = ctl.qubit_env_coupling(0.13, "z", env)
            u = ctl.sequence_propagator(ctl.refocus_sequence("hahn", 20.0), h)
            worst_hahn = max(worst_hahn,
                             q.global_phase_distance(u.entries, np.eye(4)))
        assert worst_hahn < 1e-10

        # XY4 cancels all three qubit axes
        worst_xy4 = 0.0
        for ax in ("x", "y", "z"):
            h = ctl.qubit_env_coupling(0.13, ax, q.pauli("z").entries)
            u = ctl.sequence_propagator(ctl.refocus_sequence("xy4", 20.0), h)
            worst_xy4 = max(worst_xy4,
                            q.global_phase_distance(u.entries, np.eye(4)))
        assert worst_xy4 < 1e-10

        # four-qubit pattern keeps only the qubit-1/qubit-2 ZZ term
        rng = np.random.default_rng(1)
        jm = np.zeros((4, 4))
        for i in range(4):
            for k in range(i + 1, 4):
                jm[i, k] = rng.uniform(0.01, 0.06)
        tau = 9.0
        u = ctl.zz_engineering_propagator(jm, tau)

        def z_diag(qubit):
            d = np.ones(1)
            for i in range(4):
                d = np.kron(d, np.array([1.0, -1.0]) if i == qubit
                            else np.ones(2))
            return d

        want = np.diag(np.exp(-1j * jm[0, 1] * z_diag(0) * z_diag(1) * tau))
        dev_zz = q.global_phase_distance(u.entries, want)
        assert dev_zz < 1e-10

        # CPMG passband center monotone in pulse number
        omega = np.linspace(0.0, 4 * np.pi, 4001)
        peaks = []
        for n in (1, 2, 4, 8):
            f = ctl.filter_function(ctl.refocus_sequence("cpmg", 20.0, n=n),
                                    omega)
            peaks.append(omega[np.argmax(f)])
        assert all(y > x for x, y in zip(peaks, peaks[1:]))
    report(9, "refocusing",
           f"Hahn {worst_hahn:.1e}, XY4 {worst_xy4:.1e}, ZZ pattern "
           f"{dev_zz:.1e}, CPMG peaks {['%.2f' % p for p in peaks]}, "
           f"{b.elapsed:.1f}s")


def test_10_surface_code():
    with Budget(180.0) as b:
        zero, one = sc.d2_codewords()
        dev_stab = 0.0
        for s in sc.D2_STABILIZERS:
            m = s.to_matrix()
            dev_stab = max(
                dev_stab,
                np.max(np.abs(m @ zero.amplitudes - zero.amplitudes)),
                np.max(np.abs(m @ one.amplitudes - one.amplitudes)),
            )
        assert dev_stab == 0.0

        plus = sc.logical_h_d2(zero)
        want = (zero.amplitudes + one.amplitudes) / np.sqrt(2)
        dev_h = np.max(np.abs(plus.amplitudes - want))
        assert dev_h < 1e-12

        lat = sc.SurfaceLattice(3)
        xl, zl = sc.logical_ops(lat)
        xl_sup = np.zeros(lat.n_data, np.int8)
        xl_sup[list(xl.support())] = 1
        zl_sup = np.zeros(lat.n_data, np.int8)
        zl_sup[list(zl.support())] = 1
        faults = 0
        for i in range(lat.n_data):
            for kind in ("x", "z"):
                exr = np.zeros(lat.n_data, dtype=np.int8)
                ezr = np.zeros(lat.n_data, dtype=np.int8)
                (exr if kind == "x" else ezr)[i] = 1
                frame = sc.mwpm_decode(
                    sc.syndrome_from_errors(lat, exr, ezr), lat)
                rx, rz = exr ^ frame.x, ezr ^ frame.z
                if int(rx @ zl_sup) % 2 or int(rz @ xl_sup) % 2:
                    faults += 1
                resid = sc.syndrome_from_errors(lat, rx, rz)
                if resid.x_bits.any() or resid.z_bits.any():
                    faults += 1
        assert faults == 0

        lo = sc.logical_error_rate(3, 1e-3, cycles=1, shots=100000, seed=7)
        hi = sc.logical_error_rate(3, 3e-2, cycles=1, shots=100000, seed=7)
        assert hi.rate >= 10 * max(lo.rate, 1e-5)
    report(10, "surface code",
           f"codewords exact, H_L dev {dev_h:.1e}, d=3 single-error faults "
           f"{faults}, rates {lo.rate:.1e} vs {hi.rate:.1e} "
           f"({hi.rate / max(lo.rate, 1e-12):.0f}x), {b.elapsed:.1f}s")


def test_11_randomized_benchmarking():
    with Budget(120.0) as b:
        lengths = (1, 2, 4, 8, 16, 32, 64, 128, 256)
        cfg = ex.RBConfig(lengths=lengths, sequences_per_length=45, shots=250,
                          error={"depolarizing": 0.01}, seed=3)
        res = ex.rb_standard(cfg)
        r_err = abs(res.r - 0.01) / 0.01
        assert r_err < 0.05

        cl = ex.clifford_1q()
        ident = next(i for i, c in enumerate(cl) if c.word == "")
        cfg_i = ex.RBConfig(lengths=(1, 2, 4, 8, 16, 32, 64, 128),
                            sequences_per_length=40, shots=250,
                            error={"depolarizing": 0.01}, interleaved=ident,
                            seed=4)
        res_i = ex.rb_interleaved(cfg_i)
        assert abs(res_i.r_c) <= 2 * res_i.r_c_sigma

        cfg_spam = ex.RBConfig(lengths=lengths, sequences_per_length=45,
                               shots=250, error={"depolarizing": 0.01},
                               prep_error=0.02, seed=3)
        res_spam = ex.rb_standard(cfg_spam)
        spam_shift = abs(res_spam.r - res.r) / res.r
        assert spam_shift < 0.10
    report(11, "randomized benchmarking",
           f"r={res.r:.5f} ({100 * r_err:.1f}% of 0.01), interleaved identity "
           f"r_C={res_i.r_c:.5f} within 2 sigma ({2 * res_i.r_c_sigma:.5f}), "
           f"SPAM shift {100 * spam_shift:.1f}%, {b.elapsed:.1f}s")


def test_12_determinism(tmp_path):
    """Representative stochastic pipelines rerun with the same seed must
    produce byte-identical output files."""
    with Budget(120.0) as b:
        pairs = []
        for run in ("a", "b"):
            out = tmp_path / run
            out.mkdir()
            mc = sc.logical_error_rate(3, 3e-3, cycles=1, shots=20000, seed=11)
            write_json(out / "qec.json", {
                "rate": mc.rate, "failures": mc.failures, "shots": mc.shots,
            })
            cfg = ex.RBConfig(lengths=(1, 4, 16, 64), sequences_per_length=12,
                              shots=150, error={"depolarizing": 0.015}, seed=5)
            rb = ex.rb_standard(cfg)
            write_csv(out / "rb.csv", ["m", "survival", "sem"],
                      [rb.lengths.astype(int), rb.survival, rb.sem])
            write_json(out / "rb.json", {"p": rb.p, "r": rb.r})
            prob = ctl.transmon_pi_problem(2 * np.pi * (-0.2), n_slices=4,
                                           dt=1.6, target_infidelity=1e-4)
            res = ctl.grape_multistart(prob, restarts=2, seed=9)
            ctl.pulse_to_csv(ctl.grape_pulse(prob, res), out / "pulse.csv")
            data = ex.run_rabi(2 * np.pi * 0.01, np.linspace(0, 200, 21),
                               readout=ex.ReadoutModel(shots=300), seed=21)
            write_csv(out / "rabi.csv", ["tau_ns", "signal", "sem"],
                      [data.x, data.signal, data.sem])
            pairs.append(out)
        for name in ("qec.json", "rb.csv", "rb.json", "pulse.csv", "rabi.csv"):
            b0 = (pairs[0] / name).read_bytes()
            b1 = (pairs[1] / name).read_bytes()
            assert b0 == b1, f"{name} differs between identically seeded runs"
    report(12, "determinism",
           f"qec/rb/grape/rabi outputs byte-identical across reruns, "
           f"{b.elapsed:.1f}s")
