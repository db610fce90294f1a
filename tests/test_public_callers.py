"""One of each in the public surface: every public top-level function and
class of the package has a caller outside the tests, or is listed with the
reason it has none, and no module binds a second public name to one of them.

The match is by name, as in ``test_inputs.py``: a name counts as called when
it appears as a ``Name``, an ``Attribute`` or an imported name anywhere in
``src/``, ``demos/`` or ``perfbench/``, whatever object that use refers to.
A public function that shares its name with something else in use looks
called; that is this ledger's blind spot.
"""

import ast
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
        "projective_readout"), _FORMULA),
    **dict.fromkeys((
        "identity", "bloch_to_density", "density_to_bloch", "partial_trace",
        "unitary_evolve", "pulse_from_csv", "syndromes_to_csv"), _TOOL),
    "loop_hamiltonian": "the dense test oracle for loop_spectrum",
}


def _trees(directory: Path):
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def _public_defs() -> dict:
    """Each public top-level ``def`` and ``class`` name of the package, with
    its module's file name."""
    return {node.name: path.name for path, tree in _trees(SRC) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _used_names() -> set:
    """Every name read, attribute taken or name imported in the callers."""
    used = set()
    for directory in CALLER_DIRS:
        for _, tree in _trees(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rpartition(".")[2])
    return used


def test_every_public_name_has_a_caller():
    defs = _public_defs()
    assert len(defs) > 150
    used = _used_names()
    uncalled = sorted(f"{module}:{name}" for name, module in defs.items()
                      if name not in used and name not in CALLED_BY_TESTS_ONLY)
    assert uncalled == []


def test_exemptions_are_current():
    """Each exemption names a public function or class of the package that
    still has no caller outside the tests."""
    defs, used = _public_defs(), _used_names()
    assert sorted(set(CALLED_BY_TESTS_ONLY) - set(defs)) == []
    assert sorted(set(CALLED_BY_TESTS_ONLY) & used) == []


def test_no_second_public_name():
    """No module-level assignment binds a public name to a function or class
    defined in the package (``alias = function``): one name each."""
    defined = {node.name for _, tree in _trees(SRC) for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
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
                        if isinstance(t, ast.Name) and not t.id.startswith("_")
                        and bound in defined]
    assert aliases == []
