"""Two-qubit gate constructions: iSWAP, bSWAP, CZ, and cross-resonance.

Each gate comes from one coupling trick:

* iSWAP: resonant exchange, J tau = pi/2 (or coupling modulation at the
  difference frequency, running at J_m/2);
* bSWAP: modulation at the sum frequency;
* CZ: the conditional phase picked up near the |11>-|02> anticrossing,
  either accumulated adiabatically (integral of zeta = pi) or via one full
  coherent exchange (sqrt(2) J tau = pi);
* CR: driving the control qubit at the target's frequency, yielding a
  Z x X rotation that is two single-qubit rotations away from CNOT.
"""

import numpy as np

from scqsim import gates
from scqsim import qcore as q
from scqsim.coupling import TwoQubitParams


def main():
    j = 2 * np.pi * 0.01
    u = gates.coherent_exchange(j, (np.pi / 2) / j)
    print("iSWAP at J tau = pi/2: max deviation from the target matrix =",
          f"{np.max(np.abs(u.entries - gates.ISWAP_GATE.entries)):.1e}")

    u = gates.bswap(j, np.pi / j)
    print("bSWAP at J_m tau = pi:  max deviation =",
          f"{np.max(np.abs(u.entries - gates.BSWAP_GATE.entries)):.1e}")

    rep = gates.cz_adiabatic(lambda t: 0.05, tau=np.pi / 0.05)
    print(f"adiabatic CZ, constant zeta: infidelity = {rep.infidelity:.1e}")

    tau = np.pi / (np.sqrt(2) * j)
    u6 = gates.cz_coherent_exchange(j, tau)
    print(f"coherent-exchange CZ: <11|U|11> = {u6.entries[3, 3].real:+.6f}, "
          f"residual |02> amplitude = {abs(u6.entries[4, 3]):.1e}")

    print("\nTwo-transmon ZZ rate approaching the |11>-|02> anticrossing:")
    for w2 in (5.8, 5.6, 5.45, 5.35):
        h = gates.two_transmon_hamiltonian(5.0, w2, -0.3, -0.3, 0.02)
        print(f"  omega_q2 = {w2}: zeta = "
              f"{gates.zz_rate_two_transmon(h) * 1e3:7.3f} MHz")

    print("\nCross resonance:")
    qq = TwoQubitParams(6.0, 5.5, 0.01, alpha_1=-0.3)
    p = gates.CRParams(qq, epsilon_q=0.05)
    print(f"  Omega_CR = eps J / Delta = {p.omega_cr * 1e3:.3f} MHz")
    eff = gates.cr_effective_3level(p)
    print(f"  3-level coefficients: IX = {eff['ix'] * 1e3:.3f} MHz, "
          f"ZX = {eff['zx'] * 1e3:.3f} MHz")
    pre = q.tensor(q.rotation_operator("z", -np.pi / 2),
                   q.rotation_operator("x", -np.pi / 2))
    dist = q.global_phase_distance(pre @ gates.cr_propagator(np.pi / 2),
                                   q.CNOT_GATE)
    print(f"  (Rz(-pi/2) x Rx(-pi/2)) CR(pi/2) vs CNOT: {dist:.1e}")


if __name__ == "__main__":
    main()
