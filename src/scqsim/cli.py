"""Batch front door: config-driven runs of every subsystem.

Usage::

    scqsim <subcommand> --config run.cfg --out results/ --seed 7

Subcommands: spectrum, couple, evolve, gate, grape, echo, qec, experiment,
rb.  Configs are key = value text with optional [section] headers, or JSON
(detected automatically).  Unknown keys are hard errors: a misspelled key
never silently falls back to a default.

Units contract (one table, everywhere): frequencies and rates in configs
are GHz (ordinary frequency, not angular), times in ns, angles in radians.
Keys carrying a unit end in a suffix (``_ghz``, ``_ns``, ``_rad``) unless
the unit is dimensionless or fixed by convention (``seed``, counts).

Outputs: CSV (comma separator, ``.`` decimal, mandatory header) and JSON
files with numerics printed to 12 significant digits, plus a
``manifest.json`` with the config hash, seed, and versions (and a
``stats`` block: for ``evolve`` the repair counts of its Lindblad run, for
``qec`` the most defects in one shot and the distinct syndromes matched,
per check kind, for ``experiment`` its fit's convergence and evaluations,
for ``rb`` each curve's fit convergence, fit evaluations, flat-curve flag
and random Cliffords applied, for ``grape`` the returned run's gradient
evaluations, step halvings and stop reason).  Identical
config + seed reproduces byte-identical outputs except for the manifest
timestamp.

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import sys
from functools import cache
from pathlib import Path

import numpy as np
import scipy

from . import __version__, circuits, control, coupling, experiments, gates
from . import surface_code as sc
from .qcore import CZ_GATE, SIGMA_Z, global_phase_distance, to_angular


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _coerce(text: str):
    t = text.strip()
    low = t.lower()
    if low in ("true", "false"):
        return low == "true"
    if "," in t:
        return [_coerce(x) for x in t.split(",") if x.strip()]
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    return t


def parse_config(text: str) -> dict:
    """JSON when it parses as JSON; otherwise [section]/key = value lines."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
    out: dict = {}
    section = out
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            section = out.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        section[key.strip()] = _coerce(val)
    return out


def _flatten(cfg: dict, prefix: str = "") -> dict:
    flat = {}
    for k, v in cfg.items():
        name = f"{prefix}{k}"
        if isinstance(v, dict):
            flat.update(_flatten(v, f"{name}."))
        else:
            flat[name] = v
    return flat


def _typed(key: str, value, spec):
    """``value`` as the type of ``spec`` (a type, or a default of that type)."""
    kind = spec if isinstance(spec, type) else type(spec)
    if spec is ... or kind is str and isinstance(value, str):
        return value
    if kind is list:
        items = value if isinstance(value, list) else [value]
        return [_typed(key, v, spec[0]) for v in items]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float and number and not np.isnan(value):
        return float(value)
    if kind is int and number and float(value).is_integer():
        return int(value)
    raise ConfigError(f"{key} must be of type {kind.__name__}, got {value!r}")


def validate_keys(cfg: dict, allowed: dict) -> dict:
    """Check every key against the schema; fill defaults; reject strangers.

    A schema value is a required key's type (``...``: any type) or an
    optional key's default, whose type the key takes.  Ints pass as floats
    (NaN does not), integral numbers as ints and one item as a list; bools
    never pass as numbers.
    """
    flat = _flatten(cfg)
    unknown = [k for k in flat if k not in allowed]
    if unknown:
        raise ConfigError(
            "unknown config key(s): " + ", ".join(sorted(unknown))
            + "; allowed: " + ", ".join(sorted(allowed))
        )
    required = [k for k, v in allowed.items() if v is ... or isinstance(v, type)]
    missing = [k for k in required if k not in flat]
    if missing:
        raise ConfigError("missing required key(s): " + ", ".join(sorted(missing)))
    merged = {k: v for k, v in allowed.items() if k not in required}
    merged.update({k: _typed(k, v, allowed[k]) for k, v in flat.items()})
    return merged


# float keys that may be infinite: an infinite T1 or T2 means no decay or no
# pure dephasing (``evolve``, ``experiment``)
INFINITE_OK = ("t1_ns", "t2_ns")


def subcommand_keys(cfg: dict, allowed: dict, minimum: dict | None = None) -> dict:
    """:func:`validate_keys`, then reject +-inf outside ``INFINITE_OK`` and
    any key below its ``minimum`` value, before any subcommand computes with
    it."""
    c = validate_keys(cfg, allowed)
    for k, v in c.items():
        if isinstance(v, float) and np.isinf(v) and k not in INFINITE_OK:
            raise ConfigError(f"{k} must be finite, got {v!r}")
    for k, low in (minimum or {}).items():
        if c[k] < low:
            raise ConfigError(f"{k} must be >= {low}, got {c[k]!r}")
    return c


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def fmt(x) -> str:
    return f"{x:.12g}"


def write_csv(path: Path, header: list, columns) -> None:
    """The header line, then the equal-length ``columns`` (arrays or lists,
    one type each) as rows: a float column at 12 significant digits, any
    other as ``str``, the whole table in one %-format (``%.12g`` and ``%s``
    give the bytes of ``{:.12g}`` and ``{}``)."""
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(len(c) != n for c in columns):
        raise ValueError(f"write_csv needs {len(header)} columns of equal length")
    row = ",".join("%.12g" if c.dtype.kind == "f" else "%s" for c in columns) + "\n"
    values = [None] * (n * len(columns))
    for i, c in enumerate(columns):
        values[i::len(columns)] = c.tolist()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((row * n) % tuple(values))


def _round_floats(obj):
    if isinstance(obj, float):
        return float(fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(fmt(float(obj)))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist())
    return obj


def write_json(path: Path, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_round_floats(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(out: Path, subcommand: str, config_bytes: bytes, seed: int,
                   stats: dict | None = None):
    """manifest.json: the config hash, seed and versions, the subcommand's
    ``stats`` when it returns any, and a timestamp."""
    manifest = {
        "subcommand": subcommand,
        "inputs_sha256": hashlib.sha256(config_bytes).hexdigest(),
        "seed": seed,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "scqsim": __version__,
        },
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if stats:
        manifest["stats"] = stats
    write_json(out / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def run_spectrum(cfg: dict, out: Path, seed: int) -> None:
    allowed = {
        "circuit": "island", "e_j_ghz": float, "e_c_ghz": float, "e_l_ghz": 0.0,
        "n_ext": 0.0, "phi_ext_rad": 0.0, "nlevels": 5,
        "ncut": circuits.DEFAULT_NCUT, "npoints": circuits.DEFAULT_NPOINTS,
        "extent_rad": circuits.DEFAULT_EXTENT,
    }
    # the loop grid's and the island's own least sizes, checked for either kind
    c = subcommand_keys(cfg, allowed, minimum={"npoints": 128, "ncut": 5})
    params = circuits.CircuitParams(
        c["e_j_ghz"], c["e_c_ghz"],
        0.0 if c["circuit"] == "island" else c["e_l_ghz"],
        c["n_ext"], c["phi_ext_rad"],
    )
    res = circuits.circuit_spectrum(params, c["nlevels"], c["ncut"],
                                    c["extent_rad"], c["npoints"])
    write_csv(out / "levels.csv", ["level", "energy_ghz"],
              [np.arange(len(res.levels)), res.levels])
    write_json(out / "spectrum.json", {
        "omega_q_ghz": res.omega_q,
        "anharmonicity_ghz": res.anharmonicity,
        "e_j_over_e_c": params.e_j / params.e_c,
    })


def run_couple(cfg: dict, out: Path, seed: int) -> None:
    allowed = {"omega_q_ghz": float, "omega_r_ghz": float, "g_ghz": float,
               "kappa_ghz": 0.0, "n_max": 10}
    c = subcommand_keys(cfg, allowed)
    p = coupling.JCParams(c["omega_q_ghz"], c["omega_r_ghz"], c["g_ghz"],
                          c["kappa_ghz"], c["n_max"])
    report = {}
    resonant = coupling.JCParams(c["omega_q_ghz"], c["omega_q_ghz"], c["g_ghz"],
                                 c["kappa_ghz"], c["n_max"])
    report["vacuum_rabi_splitting_ghz"] = coupling.vacuum_rabi_splitting(resonant)
    if p.is_dispersive:
        disp = coupling.dispersive_shift(p)
        report.update({
            "chi_ghz": disp.chi,
            "n_crit": disp.n_crit,
            "snr_optimal_kappa_ghz": disp.snr_optimal_kappa,
            "kappa_is_snr_optimal": disp.kappa_is_snr_optimal,
        })
    write_json(out / "couple.json", report)


def run_evolve(cfg: dict, out: Path, seed: int) -> dict:
    allowed = {"t1_ns": float("inf"), "t2_ns": float("inf"),
               "drive_ghz": 0.0, "detuning_ghz": 0.0,
               "t_end_ns": float, "samples": 201}
    c = subcommand_keys(cfg, allowed, minimum={"t_end_ns": 0.0, "samples": 0})
    times = np.linspace(0.0, c["t_end_ns"], c["samples"])
    res = experiments.qubit_run(times, c["t1_ns"], c["t2_ns"],
                                to_angular(c["detuning_ghz"]),
                                to_angular(c["drive_ghz"]))
    rhos = np.array([s.entries for s in res.states])
    write_csv(out / "evolve.csv", ["t_ns", "p1", "purity"],
              [res.times, res.expectations["p1"],
               np.trace(rhos @ rhos, axis1=1, axis2=2).real])
    return res.stats


def run_gate(cfg: dict, out: Path, seed: int) -> None:
    allowed = {"kind": str, "j_ghz": 0.0, "tau_ns": 0.0, "epsilon_ghz": 0.0,
               "omega_q1_ghz": 5.0, "omega_q2_ghz": 5.5, "alpha_1_ghz": -0.3}
    c = subcommand_keys(cfg, allowed, minimum={"tau_ns": 0.0})
    kind = c["kind"]
    j_ang = to_angular(c["j_ghz"])
    if kind == "iswap":
        u = gates.coherent_exchange(j_ang, c["tau_ns"])
        target = gates.ISWAP_GATE
    elif kind == "bswap":
        u = gates.bswap(j_ang, c["tau_ns"])
        target = gates.BSWAP_GATE
    elif kind == "cz":
        u6 = gates.cz_coherent_exchange(j_ang, c["tau_ns"])
        u = gates.Operator(u6.entries[:4, :4])
        target = CZ_GATE
    elif kind == "cr":
        q = coupling.TwoQubitParams(c["omega_q1_ghz"], c["omega_q2_ghz"],
                                    c["j_ghz"], alpha_1=c["alpha_1_ghz"])
        rep = gates.cr_gate(gates.CRParams(q, c["epsilon_ghz"]), c["tau_ns"])
        u, target = rep.propagator, rep.target
    else:
        raise ConfigError(f"unknown gate kind {kind!r}")
    infid = gates.gate_infidelity(u, target)
    write_json(out / "gate.json", {
        "kind": kind,
        "infidelity": infid,
        "propagator_re": np.real(u.entries),
        "propagator_im": np.imag(u.entries),
    })


def run_grape(cfg: dict, out: Path, seed: int) -> dict:
    allowed = {"alpha_ghz": -0.2, "lambda": float(np.sqrt(2)), "n_slices": 4,
               "dt_ns": 0.0, "restarts": 8, "target_infidelity": 1e-4,
               "bound_ghz": 0.0, "max_iter": 3000}
    c = subcommand_keys(cfg, allowed, minimum={"restarts": 1})
    alpha = to_angular(c["alpha_ghz"])
    bounds = None
    if c["bound_ghz"]:
        b = abs(to_angular(c["bound_ghz"]))
        bounds = (-b, b)
    prob = control.transmon_pi_problem(
        alpha, c["lambda"], c["n_slices"],
        dt=c["dt_ns"] or None, bounds=bounds,
        target_infidelity=c["target_infidelity"], max_iter=c["max_iter"],
    )
    u0 = np.zeros((2, prob.n_slices))
    base = control.pi_pulse("gaussian", prob.total_time, nsamples=prob.n_slices + 1)
    u0[0] = base.omega_x[:-1]
    res = control.grape_multistart(prob, restarts=c["restarts"], seed=seed,
                                   u0=u0)
    pulse = control.grape_pulse(prob, res)
    control.pulse_to_csv(pulse, out / "pulse.csv")
    write_json(out / "grape.json", {
        "infidelity": res.infidelity,
        "fidelity": res.fidelity,
        "converged": bool(res.converged),
        "iterations": int(len(res.trace)),
        "total_time_ns": prob.total_time,
    })
    return res.stats


def run_echo(cfg: dict, out: Path, seed: int) -> None:
    allowed = {"kind": "hahn", "tau_ns": 10.0, "n": 1,
               "j_z_ghz": 0.05, "omega_max_ghz": 2.0, "npoints": 801}
    c = subcommand_keys(cfg, allowed, minimum={"tau_ns": 0.0, "npoints": 1, "n": 1})
    seq = control.refocus_sequence(c["kind"], c["tau_ns"], n=c["n"])
    grid = np.linspace(0.0, to_angular(c["omega_max_ghz"]), c["npoints"])
    f = control.filter_function(seq, grid)
    write_csv(out / "filter.csv", ["omega_rad_per_ns", "filter"], [grid, f])
    h_qe = control.qubit_env_coupling(to_angular(c["j_z_ghz"]), "z",
                                      SIGMA_Z.entries)
    u = control.sequence_propagator(seq, h_qe)
    residual = global_phase_distance(u.entries, np.eye(4))
    write_json(out / "echo.json", {
        "kind": c["kind"],
        "identity_residual": float(residual),
        "pi_pulses": len(seq.pi_pulse_times()),
    })


def run_qec(cfg: dict, out: Path, seed: int) -> dict:
    allowed = {"d": 3, "p": 0.001, "cycles": 1, "shots": 10000}
    c = subcommand_keys(cfg, allowed)
    res = sc.logical_error_rate(c["d"], c["p"], c["cycles"], c["shots"], seed)
    write_json(out / "qec.json", {
        "d": res.d, "p": res.p, "cycles": res.cycles, "shots": res.shots,
        "failures": res.failures, "logical_error_rate": res.rate,
        "ci95_low": res.ci_low, "ci95_high": res.ci_high, "seed": res.seed,
    })
    return {"max_defects": res.max_defects,
            "distinct_syndromes": res.distinct_syndromes}


def run_experiment(cfg: dict, out: Path, seed: int) -> dict:
    allowed = {"kind": str, "t1_ns": 10000.0, "t2_ns": 15000.0,
               "rabi_ghz": 0.01, "detuning_ghz": 0.001,
               "tau_max_ns": 1000.0, "points": 101, "shots": 0,
               "eps01": 0.0, "eps10": 0.0}
    c = subcommand_keys(cfg, allowed, minimum={"points": 0})
    taus = np.linspace(0.0, c["tau_max_ns"], c["points"])
    readout = experiments.ReadoutModel(c["eps01"], c["eps10"],
                                       c["shots"] or None)
    kind = c["kind"]
    if kind == "rabi":
        data = experiments.run_rabi(to_angular(c["rabi_ghz"]), taus,
                                    c["t1_ns"], c["t2_ns"], readout, seed)
        fit = experiments.fit_rabi(data.x, data.signal)
    elif kind == "t1":
        data = experiments.run_t1(taus, c["t1_ns"], c["t2_ns"], readout, seed)
        fit = experiments.fit_t1(data.x, data.signal)
    elif kind == "ramsey":
        data = experiments.run_ramsey(taus, c["t1_ns"], c["t2_ns"],
                                      c["detuning_ghz"], readout, seed)
        fit = experiments.fit_ramsey(data.x, data.signal)
    else:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    write_csv(out / f"{kind}.csv", ["tau_ns", "signal", "sem"],
              [data.x, data.signal, data.sem])
    write_json(out / f"{kind}_fit.json", {
        "params": fit.params, "sigmas": fit.sigmas,
        "residual_norm": fit.residual_norm, "converged": fit.converged,
    })
    return {"fit_converged": fit.converged, "fit_nfev": fit.nfev,
            **{f"fit_{k}": v for k, v in fit.stats.items()}}


def run_rb(cfg: dict, out: Path, seed: int) -> dict:
    allowed = {"lengths": [1, 2, 4, 8, 16, 32, 64, 128, 256],
               "sequences_per_length": 40, "shots": 400,
               "depolarizing": 0.01, "interleaved": -1,
               "eps01": 0.0, "eps10": 0.0, "prep_error": 0.0}
    c = subcommand_keys(cfg, allowed,
                        minimum={"sequences_per_length": 1, "shots": 0,
                                 "interleaved": -1})
    cfg_rb = experiments.RBConfig(
        lengths=tuple(c["lengths"]),
        sequences_per_length=c["sequences_per_length"],
        shots=c["shots"],
        error={"depolarizing": c["depolarizing"]},
        interleaved=c["interleaved"] if c["interleaved"] >= 0 else None,
        eps01=c["eps01"], eps10=c["eps10"], prep_error=c["prep_error"],
        seed=seed,
    )
    if cfg_rb.interleaved is None:
        std = curve = experiments.rb_standard(cfg_rb)
    else:
        res = experiments.rb_interleaved(cfg_rb)
        std, curve = res.standard, res.interleaved
    summary = {"A": std.a, "p": std.p, "B": std.b, "r": std.r,
               "CI": [std.r - 1.96 * std.r_sigma, std.r + 1.96 * std.r_sigma]}
    stats = {"standard": std.stats}
    if cfg_rb.interleaved is not None:
        stats["interleaved"] = curve.stats
        summary.update({"p_C": res.p_c, "r_C": res.r_c,
                        "r_C_CI": [res.r_c - 1.96 * res.r_c_sigma,
                                   res.r_c + 1.96 * res.r_c_sigma],
                        "bounds": list(res.bounds)})
    write_csv(out / "rb.csv", ["m", "survival", "sem"],
              [curve.lengths.astype(int), curve.survival, curve.sem])
    write_json(out / "rb.json", summary)
    return stats


_SUBCOMMANDS = {
    "spectrum": run_spectrum,
    "couple": run_couple,
    "evolve": run_evolve,
    "gate": run_gate,
    "grape": run_grape,
    "echo": run_echo,
    "qec": run_qec,
    "experiment": run_experiment,
    "rb": run_rb,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scqsim",
        description="Superconducting-qubit simulation toolkit (batch runner)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None,
                       help="key=value or JSON config file")
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory (must be writable)")
        p.add_argument("--seed", type=int, default=0,
                       help="64-bit RNG seed")
        if name == "qec":
            p.add_argument("--d", type=int, default=None)
            p.add_argument("--p", type=float, default=None)
            p.add_argument("--cycles", type=int, default=None)
            p.add_argument("--shots", type=int, default=None)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process (``parse_args`` leaves it as is)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.config is not None:
            config_bytes = args.config.read_bytes()
            cfg = parse_config(config_bytes.decode())
        else:
            config_bytes = b""
            cfg = {}
        for flag in ("d", "p", "cycles", "shots"):
            if getattr(args, flag, None) is not None:
                cfg[flag] = getattr(args, flag)
        if not 0 <= args.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")
        out = args.out
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        stats = _SUBCOMMANDS[args.subcommand](cfg, out, args.seed)
        write_manifest(out, args.subcommand, config_bytes, args.seed, stats)
    # LinAlgError is a ValueError, so the numeric clause comes first
    except (ArithmeticError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
