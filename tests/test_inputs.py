"""Inputs that change nothing are not accepted, and no dataclass field goes
unread."""

import ast
from pathlib import Path

import numpy as np
import pytest

from scqsim import circuits as cir
from scqsim import control as ctl
from scqsim import coupling as cp
from scqsim import experiments as ex
from scqsim import gates
from scqsim import surface_code as sc

SRC = Path(cir.__file__).parent

# Fields that the package itself never reads: results that callers read,
# and flags that only steer construction.
UNREAD_BY_DESIGN = {
    ("Syndrome", "cycle"), ("LogicalRateResult", "max_defects"),
    ("LogicalRateResult", "distinct_syndromes"), ("ExperimentData", "label"),
    ("Clifford1Q", "word"), ("GrapeResult", "stagnated"), ("GrapeResult", "phi2"),
    ("Operator", "hermitian"), ("Operator", "unitary"),
    ("StateVector", "_skip_norm_check"),
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _fields_and_reads():
    """Every (class, field) of a dataclass in the package, and every
    attribute name read, each with the class whose ``__post_init__`` reads
    it (None elsewhere)."""
    fields, reads = [], set()

    def visit(node, post_init_of):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields.extend((node.name, stmt.target.id) for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign)
                          and isinstance(stmt.target, ast.Name))
            for stmt in node.body:
                inside = (isinstance(stmt, ast.FunctionDef)
                          and stmt.name == "__post_init__")
                visit(stmt, node.name if inside else post_init_of)
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add((node.attr, post_init_of))
        for child in ast.iter_child_nodes(node):
            visit(child, post_init_of)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), None)
    return fields, reads


def test_every_dataclass_field_is_read():
    fields, reads = _fields_and_reads()
    assert len(fields) > 50
    unread = [f"{cls}.{name}" for cls, name in fields
              if (cls, name) not in UNREAD_BY_DESIGN
              and not any(attr == name and owner != cls for attr, owner in reads)]
    assert unread == []


def test_exempt_fields_exist():
    fields, _ = _fields_and_reads()
    assert UNREAD_BY_DESIGN <= set(fields)


_CIRCUIT = cir.CircuitParams(5.0, 1.0, 1.0)
_H_QE = ctl.qubit_env_coupling(0.13, "z", np.diag([1.0, -1.0]))


@pytest.mark.parametrize("call", [
    lambda: cp.JCParams(5.0, 6.0, 0.1, gamma=0.0),
    lambda: cp.CapacitiveCouplingSpec(0.1, 50.0, 50.0, c_r=1.0),
    lambda: cp.CapacitiveCouplingSpec(0.1, 50.0, 50.0, beta=0.0),
    lambda: cp.CapacitiveCouplingSpec(0.1, 50.0, 50.0, v_r0=0.0),
    lambda: cp.TwoQubitParams(5.0, 5.5, 0.01, alpha_2=-0.3),
    lambda: cp.TwoQubitParams(5.0, 5.5, 0.01, levels=2),
    lambda: gates.DriveParams(0.05, 4.99, phase=0.0),
    lambda: gates.DriveParams(0.05, 4.99, duration=1.0),
    lambda: ctl.GrapeProblem(np.zeros((2, 2)), (), 1, 1.0, np.eye(2), step=0.5),
    lambda: gates.cz_adiabatic(lambda t: 0.05, np.pi / 0.05, nsteps=4001),
    lambda: gates.cz_adiabatic(lambda t: 0.05, np.pi / 0.05, check=True),
    lambda: gates.cz_adiabatic(np.full(11, 0.05), np.pi / 0.05),
    lambda: gates.cz_adiabatic_simulate(5.0, lambda t: 5.8, -0.3, -0.3, 0.02, 1.0,
                                        leakage_threshold=1e-3),
    lambda: ctl.make_envelope("square", 1.0, amplitude=1.0, slices=[1.0]),
    lambda: ctl.sequence_propagator(ctl.refocus_sequence("hahn", 8.0), _H_QE,
                                    env_dim=2),
    lambda: cir.frequency_derivative(_CIRCUIT, "flux", delta=1e-4),
    lambda: cir.dephasing_rate(_CIRCUIT, cir.NoiseSpec("flux", 1e-4), delta=1e-4),
    lambda: cir.sweet_spot(_CIRCUIT, "flux", (2.3, 3.8), delta=1e-4),
    lambda: ex.two_tone_scan(5.0, 250.0, 200.0, 1e-3, np.array([5.0]), settle=8.0),
    lambda: ex.two_tone_scan(5.0, 250.0, 200.0, 1e-3, np.array([5.0]), dt=0.5),
    lambda: ctl.pi_pulse("gaussian", 6.4, sigma=1.6),
    lambda: ctl.make_envelope("gaussian", 6.4, area=np.pi, sigma=1.6),
    lambda: cir.find_derivative_zero(np.cos, (2.0, 4.0), 1e-5, max_iter=200),
    lambda: cp.fock_headroom(np.diag([1.0] + [0.0] * 7), 3, threshold=1e-6),
    lambda: sc.PauliString.from_support(5, "X", [2], phase=0),
    lambda: ex.run_t1(np.array([0.0, 10.0]), 100.0, dt=0.5),
    lambda: ex.run_ramsey(np.array([0.0, 10.0]), 100.0, 100.0, 0.01, dt=0.5),
    lambda: ex.run_rabi(0.1, np.array([0.0, 10.0]), dt=0.5),
    lambda: ex.qubit_run(np.array([0.0, 10.0]), dt=0.5),
], ids=[
    "JCParams.gamma", "CapacitiveCouplingSpec.c_r", "CapacitiveCouplingSpec.beta",
    "CapacitiveCouplingSpec.v_r0", "TwoQubitParams.alpha_2", "TwoQubitParams.levels",
    "DriveParams.phase", "DriveParams.duration", "GrapeProblem.step",
    "cz_adiabatic.nsteps", "cz_adiabatic.check", "cz_adiabatic.array_zeta",
    "cz_adiabatic_simulate.leakage_threshold", "make_envelope.slices",
    "sequence_propagator.env_dim", "frequency_derivative.delta",
    "dephasing_rate.delta", "sweet_spot.delta", "two_tone_scan.settle",
    "two_tone_scan.dt", "pi_pulse.sigma", "make_envelope.sigma",
    "find_derivative_zero.max_iter",
    "fock_headroom.threshold", "PauliString.from_support.phase", "run_t1.dt",
    "run_ramsey.dt", "run_rabi.dt", "qubit_run.dt",
])
def test_removed_input_raises_type_error(call):
    with pytest.raises(TypeError):
        call()
