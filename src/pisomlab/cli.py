"""Batch front door: load a generator (or table) file, run one analysis stage
or the whole pipeline, and emit a certificate as JSON or text.

Exit codes: 0 = analysis completed (whatever the verdict), 2 = input error,
3 = internal invariant violation or any other library error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np

from . import __version__
from .invsg import barnes_representation, validate_table
from .jsonio import (
    GeneratorProblem,
    ParseError,
    SchemaError,
    dump_report,
    load_generator_problem,
    load_table_file,
)
from .numlin import DEFAULT_TOL, InvariantViolation, PisomError, ToleranceConfig
from .pisom import NotPartialIsometry, make_partial_isometry, partial_isometry_defect
from .projlat import boolean_atoms, decompose_by_atoms, multiplicity_profile
from .sgroup import (
    CLOSED,
    FAILURE,
    TRUNCATED,
    DEFAULT_LIMITS,
    Limits,
    _ElementStore,
    brandt_structure,
    close,
    family_projections,
    check_pq_contained,
    check_pq_equal,
    generator_set,
    is_irreducible,
    selfadjoint_closure,
    word_label,
)

COMMANDS = ("check", "closure", "extend", "atoms", "multiplicity",
            "decompose", "brandt", "barnes", "report")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3


@dataclass(frozen=True)
class AnalysisRequest:
    command: str
    input_path: str
    tolerance: ToleranceConfig | None = None
    limits: Limits | None = None
    seed: int = 0


def _closure_summary(result) -> dict:
    out = {"status": result.status, "element_count": len(result.elements)}
    if result.status == FAILURE:
        out["witness_word"] = list(result.witness_word)
        out["deviation"] = result.witness_deviation
    if result.status == TRUNCATED:
        out["limit_hit"] = result.limit_hit
    return out


def _error(err: PisomError) -> dict:
    return {"kind": type(err).__name__, "message": str(err)}


class Session:
    """The analysis stages of one request, each run at most once and only
    when a command first asks for it."""

    def __init__(self, problem: GeneratorProblem, request: AnalysisRequest):
        self.problem = problem
        self.limits = request.limits or problem.limits or DEFAULT_LIMITS
        self.seed = request.seed

    @cached_property
    def base(self):
        """Monitored closure of the generators."""
        return close(self.problem.gens, self.limits, monitor_pi=True)

    @cached_property
    def extended(self):
        """Monitored closure of the generators and their adjoints."""
        return selfadjoint_closure(self.problem.gens, self.limits)

    @cached_property
    def q_commuting(self) -> bool:
        return family_projections(self.base).q_set.is_commuting()

    @cached_property
    def atoms(self):
        """(atoms, None), (None, atoms_error) or (None, None) when the final
        projections do not commute."""
        if not self.q_commuting:
            return None, None
        try:
            return boolean_atoms(family_projections(self.base).q_set), None
        except PisomError as err:
            return None, _error(err)

    @cached_property
    def brandt(self):
        """(structure, None) or (None, brandt_error)."""
        try:
            return brandt_structure(self.base), None
        except PisomError as err:
            return None, _error(err)

    def certificate(self, closure) -> dict:
        """The verdict that closure supports, with the request's provenance."""
        if closure.status == FAILURE:
            cert = {"verdict": "NotExtendable", "witness_word": list(closure.witness_word),
                    "deviation": closure.witness_deviation}
        elif closure.status == TRUNCATED:
            cert = {"verdict": "Inconclusive", "limit_hit": closure.limit_hit}
        else:
            cert = {"verdict": "Extendable"}
        cert["provenance"] = {"tool": f"pisomlab {__version__}",
                              "tolerances": asdict(self.problem.gens.cfg),
                              "limits": asdict(self.limits),
                              "seed": self.seed}
        return cert


def _atoms_summary(atoms):
    """-> (report entry, multiplicity profile)."""
    profile = multiplicity_profile(atoms)
    out = {"ranks": list(atoms.ranks), "uniform": profile.uniform}
    if profile.uniform:
        out["multiplicity"] = profile.multiplicity
    return out, profile


def _atoms_stage(s: Session, command: str, key: str):
    """Output head shared by the atom-based commands, with `key` (the
    command's result) set to None, and the atoms it can build on."""
    out = {"command": command, **_closure_summary(s.base)}
    atoms = error = None
    if s.base.status != FAILURE:
        out["q_commuting"] = s.q_commuting
        atoms, error = s.atoms
    out[key] = None
    if error is not None:
        out["atoms_error"] = error
    return out, atoms


def cmd_check(request: AnalysisRequest) -> dict:
    """Per-generator validation report; invalid generators are results here,
    not input errors."""
    from .jsonio import load_json, parse_generator_file

    raw = parse_generator_file(load_json(request.input_path))
    cfg = request.tolerance or raw.tolerance or DEFAULT_TOL
    rows = []
    all_valid = True
    for name, mat in raw.named:
        row = {"name": name, "deviation": partial_isometry_defect(mat, cfg)}
        try:
            pi = make_partial_isometry(mat, cfg)
            row["valid"] = True
            row["initial_rank"] = int(round(float(np.trace(pi.initial).real)))
            row["final_rank"] = int(round(float(np.trace(pi.final).real)))
        except NotPartialIsometry:
            row["valid"] = False
            all_valid = False
        rows.append(row)
    return {"command": "check", "dim": raw.dim, "all_valid": all_valid,
            "generators": rows}


def cmd_closure(s: Session) -> dict:
    out = {"command": "closure", **_closure_summary(s.base)}
    if s.base.status != FAILURE:
        out["words"] = [word_label(e.word) for e in s.base.elements[:50]]
    return out


def cmd_extend(s: Session) -> dict:
    return {"command": "extend", **_closure_summary(s.extended),
            "certificate": s.certificate(s.extended)}


def cmd_atoms(s: Session) -> dict:
    out, atoms = _atoms_stage(s, "atoms", "atoms")
    if atoms is not None:
        out["atoms"] = atoms.to_json_dict()
    return out


def cmd_multiplicity(s: Session) -> dict:
    out, atoms = _atoms_stage(s, "multiplicity", "atoms")
    if atoms is not None:
        out["atoms"], profile = _atoms_summary(atoms)
        out["counts"] = {str(k): v for k, v in sorted(profile.counts.items())}
    return out


def cmd_decompose(s: Session) -> dict:
    from .projlat import OffDiagonalResidual

    out, atoms = _atoms_stage(s, "decompose", "operators")
    if atoms is None:
        return out
    rows = []
    for name, mat in s.problem.gens.named_generators:
        try:
            blocks = decompose_by_atoms(mat, atoms)
            rows.append({"name": name, "decomposable": True,
                         "block_dims": [b.shape[0] for b in blocks]})
        except OffDiagonalResidual as err:
            rows.append({"name": name, "decomposable": False,
                         "worst_pair": list(err.worst_pair),
                         "residual": err.residual})
    out["operators"] = rows
    out["atom_ranks"] = list(atoms.ranks)
    return out


def cmd_brandt(s: Session) -> dict:
    out = {"command": "brandt", **_closure_summary(s.base), "brandt": None}
    if s.base.status == FAILURE:
        return out
    structure, error = s.brandt
    if structure is not None:
        out["brandt"] = {"family_ranks": list(structure.family_ranks),
                         "checks": structure.checks}
    else:
        out["brandt_error"] = error
    return out


def cmd_barnes(request: AnalysisRequest) -> dict:
    table = load_table_file(request.input_path)
    violations = validate_table(table)
    out = {"command": "barnes", "n": table.n,
           "valid": not violations,
           "violations": [str(v) for v in violations[:20]]}
    if violations:
        return out
    cfg = request.tolerance or DEFAULT_TOL
    images = barnes_representation(table, cfg)
    distinct = _ElementStore(table.n, cfg)
    for pi in images:
        distinct.add(pi.matrix)
    gens = generator_set([(f"s{i}", pi.matrix) for i, pi in enumerate(images)],
                         dim=table.n, include_identity=True, cfg=cfg)
    closure = selfadjoint_closure(gens, request.limits or DEFAULT_LIMITS)
    out.update({
        "injective": distinct.count == table.n,
        "all_partial_isometries": True,
        "closure_status": closure.status,
        "closure_elements": len(closure.elements),
    })
    return out


def cmd_report(s: Session) -> dict:
    base = s.base
    report: dict = {"command": "report", "dim": s.problem.gens.dim}
    irred = is_irreducible(s.problem.gens, seed=s.seed)
    report["irreducible"] = irred.irreducible
    report["span_dim"] = irred.span_dim

    if base.status == FAILURE:
        # the base semigroup itself produced a non partial isometry
        report.update({**_closure_summary(base), "q_commuting": None, "pq_equal": None,
                       "pq_contained": None, "atoms": None, "brandt": None,
                       "certificate": s.certificate(base)})
        return report

    report["base_closure"] = _closure_summary(base)
    report["q_commuting"] = s.q_commuting
    report["pq_equal"] = check_pq_equal(base)
    report["pq_contained"] = check_pq_contained(base)
    atoms, error = s.atoms
    report["atoms"] = _atoms_summary(atoms)[0] if atoms is not None else None
    if error is not None:
        report["atoms_error"] = error

    extended = s.extended
    summary = _closure_summary(extended)
    summary.pop("limit_hit", None)  # the certificate names it
    report.update(summary)

    report["brandt"] = None
    if extended.status != FAILURE and base.status == CLOSED:
        structure, _ = s.brandt
        if structure is not None:
            report["brandt"] = {"family_ranks": list(structure.family_ranks)}

    report["certificate"] = s.certificate(extended)
    return report


HANDLERS = {
    "closure": cmd_closure,
    "extend": cmd_extend,
    "atoms": cmd_atoms,
    "multiplicity": cmd_multiplicity,
    "decompose": cmd_decompose,
    "brandt": cmd_brandt,
    "report": cmd_report,
}


def run(request: AnalysisRequest) -> tuple[int, dict]:
    """Run one analysis request; returns (exit_code, report dict)."""
    if request.command not in COMMANDS:
        raise SchemaError(f"unknown command {request.command!r}")
    if request.command == "barnes":
        return EXIT_OK, cmd_barnes(request)
    if request.command == "check":
        return EXIT_OK, cmd_check(request)
    problem = load_generator_problem(request.input_path, request.tolerance)
    return EXIT_OK, HANDLERS[request.command](Session(problem, request))


def _render_text(report: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(f"{pad}  -")
                lines.append(_render_text(item, indent + 2))
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pisomlab",
        description="Analyze semigroups of partial isometries at finite dimension.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("input", help="JSON input file (generators, or a table for 'barnes')")
    parser.add_argument("--tol", type=float, default=None,
                        help="override all three tolerances with one value")
    parser.add_argument("--max-elements", type=int, default=None)
    parser.add_argument("--max-word-len", type=int, default=None)
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--version", action="version", version=f"pisomlab {__version__}")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tolerance = None if args.tol is None else ToleranceConfig(args.tol, args.tol, args.tol)
        given = {"max_elements": args.max_elements, "max_word_length": args.max_word_len}
        given = {key: value for key, value in given.items() if value is not None}
        limits = replace(DEFAULT_LIMITS, **given) if given else None
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    request = AnalysisRequest(command=args.command, input_path=args.input,
                              tolerance=tolerance, limits=limits, seed=args.seed)
    try:
        code, report = run(request)
    except (ParseError, SchemaError, NotPartialIsometry) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantViolation as err:
        print(f"internal invariant violation: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except PisomError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.format == "json":
        print(dump_report(report))
    else:
        print(_render_text(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
