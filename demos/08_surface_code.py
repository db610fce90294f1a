"""Surface-code walkthrough: codewords, syndromes, decoding, Monte Carlo.

Starts from the five-data-qubit distance-2 patch written out as state
vectors, checks the stabilizer conditions and the logical H (transversal H
plus lattice rotation), then moves to the scalable tableau representation:
syndrome-extraction circuits, single-error decoding on d = 3 (every single
X or Z error corrected exactly), and the logical-error-rate ordering with
physical error rate and distance.
"""

import numpy as np

from scqsim import surface_code as sc


def d2_story():
    zero, one = sc.d2_codewords()
    print("Distance-2 worked example (5 data qubits):")
    print(f"  <0_L|1_L> = {abs(zero.overlap(one)):.1e}")
    for s in sc.D2_STABILIZERS:
        dev = np.max(np.abs(s.to_matrix() @ zero.amplitudes - zero.amplitudes))
        print(f"  {s.letters} stabilizes |0_L>: deviation {dev:.1e}")
    plus = sc.logical_h_d2(zero)
    want = (zero.amplitudes + one.amplitudes) / np.sqrt(2)
    print(f"  H_L|0_L> = (|0_L>+|1_L>)/sqrt2 to "
          f"{np.max(np.abs(plus.amplitudes - want)):.1e}")

    rng = np.random.default_rng(1)
    state = sc.apply_pauli(zero, sc.PauliString.from_support(5, "X", [2]))
    outcomes = []
    for s in sc.D2_STABILIZERS:
        out, state = sc.measure_stabilizer(state, s, rng)
        outcomes.append(out)
    print(f"  after an X error on D2 the syndromes read {outcomes} "
          "(both Z checks flipped)")


def circuit_story():
    rng = np.random.default_rng(3)
    lat = sc.SurfaceLattice(3)
    print(f"\nd = 3 lattice: {lat.n_total} qubits "
          f"({lat.n_data} data, {len(lat.x_checks)}+{len(lat.z_checks)} checks)")
    tab = sc.lattice_tableau(lat)
    sc.encode_logical_zero(lat, tab, rng)
    syn = sc.syndrome_cycle(lat, tab, {"p_x": 0.0, "p_z": 0.0}, rng)
    print(f"  noiseless cycle after encoding: "
          f"{int(syn.x_bits.sum()) + int(syn.z_bits.sum())} defects")
    tab.x_gate(lat.cell_index((2, 2)))
    syn = sc.syndrome_cycle(lat, tab, {"p_x": 0.0, "p_z": 0.0}, rng)
    frame = sc.mwpm_decode(syn, lat)
    print(f"  one injected X error -> {int(syn.z_bits.sum())} defects, "
          f"decoder proposes {int(frame.x.sum())} correction(s) on the "
          "right qubit:", bool(frame.x[lat.data_index((2, 2))]))


def monte_carlo_story():
    print("\nLogical error rates (code-capacity noise, 100k shots):")
    for d in (2, 3):
        for p in (1e-3, 1e-2, 3e-2):
            res = sc.logical_error_rate(d, p, cycles=1, shots=100000, seed=7)
            print(f"  d={d}, p={p:7.0e}: {res.rate:9.2e}  "
                  f"[{res.ci_low:.2e}, {res.ci_high:.2e}]")
    print("  (rates fall with distance below threshold and rise with p)")


if __name__ == "__main__":
    d2_story()
    circuit_story()
    monte_carlo_story()
