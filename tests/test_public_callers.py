"""One of each in the public surface: every public top-level function and
class of the package, every public method or property of a public class,
and every public module constant has a use outside the tests, or is listed
with the reason it has none; every option (a parameter with a default) of
a public function or method with such a caller is passed by some call
there, or is listed; and no module binds a second public name to one of
the package's functions, classes or constants.

The match is by name, as in ``test_inputs.py``: a name counts as used when
it is read as a ``Name`` or an ``Attribute``, or imported, anywhere in
``src/`` (its own definition is a store, not a read), ``demos/`` or
``perfbench/``, whatever object that use refers to; a call counts as a call
of every function or method of its name.  A public name that shares its
name with something else in use looks used; that is this ledger's blind
spot.  Names that start with ``_``, dunders included, are out of scope, so
operators such as ``Operator.__matmul__`` or ``PauliString.__mul__`` are
not checked.
"""

import ast
from functools import cache
from pathlib import Path

from scqsim import qcore

SRC = Path(qcore.__file__).parent
ROOT = SRC.parent.parent
CALLER_DIRS = (SRC.parent, ROOT / "demos", ROOT / "perfbench")

_FORMULA = "a formula of the tutorial, checked in the tests against its closed form"
_TOOL = "a tool of the tutorial for library users; the tests exercise it"

CALLED_BY_TESTS_ONLY = {
    **dict.fromkeys((
        "squid_inductance", "charge_matrix_element", "jc_excitation_number",
        "fock_headroom", "dressed_qubit_shift", "chi_total", "qubit_qubit_j",
        "two_qubit_hamiltonian", "transmon_kerr_map", "resonator_decay",
        "fit_ramsey_gaussian", "driven_qubit_frame", "xy_rotation",
        "projective_readout", "PulseEnvelope.area_x", "OscTrajectory.energy",
        "BlochVector.from_angles", "T_GATE", "D2_LOGICAL_Z",
        "D2_LOGICAL_X"), _FORMULA),
    **dict.fromkeys((
        "identity", "bloch_to_density", "density_to_bloch", "partial_trace",
        "unitary_evolve", "pulse_from_csv", "syndromes_to_csv",
        "PulseEnvelope.drive_functions", "StateVector.to_density",
        "PauliString.commutes_with", "StabilizerTableau.apply",
        "StabilizerTableau.measure_pauli", "SurfaceLattice.stabilizer"), _TOOL),
}

_GRID = "the circuit grid, passed through to circuit_spectrum"
_PINNED = "a step that the tests pin"
_INPUT = "an input of the tutorial for library users; the tests set it"

UNPASSED_OPTIONS = {
    **dict.fromkeys((
        "charge_dispersion.ncut", "dephasing_rate.ncut", "dephasing_rate.extent",
        "dephasing_rate.npoints", "dipole_elements.ncut", "dipole_elements.extent",
        "dipole_elements.npoints", "sweet_spot.ncut", "sweet_spot.extent"), _GRID),
    **dict.fromkeys(("classical_oscillators.dt",), _PINNED),
    **dict.fromkeys((
        "refocus_sequence.include_prep", "run_t1.pi_pulse_error",
        "lindblad_evolve.t_span", "grape_optimize.seed", "sweet_spot.tol",
        "syndrome_from_errors.cycle", "zz_engineering_propagator.signs"), _INPUT),
}


@cache
def _trees(directory: Path) -> list:
    """(path, parsed module) of every Python file under ``directory``."""
    return [(path, ast.parse(path.read_text(), str(path)))
            for path in sorted(directory.rglob("*.py"))]


def _public(name: str) -> bool:
    return not name.startswith("_")


def _public_defs() -> dict:
    """Each public top-level ``def`` and ``class`` name of the package, with
    its module's file name."""
    return {node.name: path.name for path, tree in _trees(SRC) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name)}


def _public_members() -> dict:
    """Each public method or property of a public class, as ``Class.name``,
    with its ``def`` node."""
    return {f"{cls.name}.{node.name}": node for _, tree in _trees(SRC)
            for cls in tree.body if isinstance(cls, ast.ClassDef) and _public(cls.name)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and _public(node.name)}


def _public_constants() -> dict:
    """Each public name bound at module level, with its module's file name."""
    constants = {}
    for path, tree in _trees(SRC):
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            constants.update((t.id, path.name) for t in targets
                             if isinstance(t, ast.Name) and _public(t.id))
    return constants


def _used_names() -> set:
    """Every name read, attribute read or name imported in the callers."""
    used = set()
    for directory in CALLER_DIRS:
        for _, tree in _trees(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rpartition(".")[2])
    return used


def _calls() -> dict:
    """The callers' calls, grouped by the called name."""
    calls = {}
    for directory in CALLER_DIRS:
        for _, tree in _trees(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = (func.id if isinstance(func, ast.Name)
                            else func.attr if isinstance(func, ast.Attribute) else None)
                    calls.setdefault(name, []).append(node)
    return calls


def _options() -> dict:
    """Each option of a public function or method, as ``function.option`` or
    ``Class.method.option``, with its position in a call (None when it is
    keyword-only; a method's first parameter, ``self`` or ``cls``, takes no
    position)."""
    functions = {node.name: node for _, tree in _trees(SRC) for node in tree.body
                 if isinstance(node, ast.FunctionDef) and _public(node.name)}
    functions.update(_public_members())
    options = {}
    for qualname, node in functions.items():
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if "." in qualname else 0
        first = len(positional) - len(args.defaults)
        options.update((f"{qualname}.{a.arg}", i - skip)
                       for i, a in enumerate(positional) if i >= first)
        options.update((f"{qualname}.{a.arg}", None)
                       for a, default in zip(args.kwonlyargs, args.kw_defaults)
                       if default is not None)
    return options


def _passes(call: ast.Call, option: str, position) -> bool:
    if any(k.arg in (option, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(
        isinstance(a, ast.Starred) for a in call.args[:position + 1])


def _unpassed_options() -> list:
    """Each option of a function or method with a caller outside the tests
    that no call there passes, by position or by keyword."""
    calls = _calls()
    unpassed = []
    for key, position in _options().items():
        qualname, _, option = key.rpartition(".")
        if qualname in CALLED_BY_TESTS_ONLY:
            continue
        function = qualname.rpartition(".")[2]
        if not any(_passes(call, option, position) for call in calls.get(function, [])):
            unpassed.append(key)
    return unpassed


def test_every_public_name_has_a_caller():
    defs = _public_defs()
    assert len(defs) > 150
    used = _used_names()
    uncalled = sorted(f"{module}:{name}" for name, module in defs.items()
                      if name not in used and name not in CALLED_BY_TESTS_ONLY)
    assert uncalled == []


def test_every_public_member_and_constant_has_a_use():
    members, constants = _public_members(), _public_constants()
    assert len(members) > 50 and len(constants) > 30
    used = _used_names()
    unused = sorted(key for key in [*members, *constants]
                    if key.rpartition(".")[2] not in used
                    and key not in CALLED_BY_TESTS_ONLY)
    assert unused == []


def test_every_option_is_passed_by_a_caller():
    unpassed = sorted(key for key in _unpassed_options() if key not in UNPASSED_OPTIONS)
    assert unpassed == []


def test_exemptions_are_current():
    """Each exemption names a public function, class, member or constant of
    the package that still has no use outside the tests, or an option that
    no call there passes."""
    names = {*_public_defs(), *_public_members(), *_public_constants()}
    used = _used_names()
    assert sorted(set(CALLED_BY_TESTS_ONLY) - names) == []
    assert sorted(key for key in CALLED_BY_TESTS_ONLY
                  if key.rpartition(".")[2] in used) == []
    assert sorted(set(UNPASSED_OPTIONS) - set(_unpassed_options())) == []


def test_no_second_public_name():
    """No module-level assignment binds a public name to a function, class
    or public constant defined in the package (``alias = function``,
    ``X_GATE = SIGMA_X``): one name each."""
    defined = {node.name for _, tree in _trees(SRC) for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= set(_public_constants())
    aliases = []
    for path, tree in _trees(SRC):
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            bound = (value.id if isinstance(value, ast.Name)
                     else value.attr if isinstance(value, ast.Attribute) else None)
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            aliases += [f"{path.name}:{t.id} = {bound}" for t in targets
                        if isinstance(t, ast.Name) and _public(t.id)
                        and bound in defined]
    assert aliases == []
