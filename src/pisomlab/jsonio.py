"""Shared JSON encoding and input-file parsing.

Complex scalars are encoded as a two-element array [re, im] of doubles and
matrices as arrays of rows; this encoding is shared by every module.  Bare
numbers are accepted on input as a convenience for hand-written fixtures and
are always written back in the strict form.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import asdict, dataclass

import numpy as np

from .numlin import PisomError, ToleranceConfig
from .pisom import partial_isometry_defect
from .sgroup import GeneratorSet, Limits, check_generator_name, generator_set
from .invsg import InverseSemigroupTable, table_from_dict


class ParseError(PisomError):
    pass


class SchemaError(PisomError):
    pass


def scalar_to_json(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _shown(value, text: str) -> str:
    """text, the value's repr or JSON, to quote in an error: whole up to 60
    characters, past that the value's type, its length (that of text for a
    number) and a prefix."""
    if len(text) <= 60:
        return text
    size = len(value) if isinstance(value, (str, list, dict)) else len(text)
    return f"{type(value).__name__} of length {size}, starting {text[:24]}..."


def _scalar(obj) -> complex:
    """A number or [re, im] of finite doubles; json also reads NaN, Infinity
    and integers beyond every double.  SchemaError names no location."""
    parts = obj if isinstance(obj, list) and len(obj) == 2 else [obj]
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts):
        raise SchemaError(f"expected [re, im] or a number, got {_shown(obj, repr(obj))}")
    try:
        if cmath.isfinite(z := complex(*parts)):
            return z
    except OverflowError:
        pass
    raise SchemaError(f"expected finite numbers, got {_shown(obj, repr(obj))}")


def scalar_from_json(obj, where: str) -> complex:
    """_scalar, its SchemaError prefixed by where."""
    try:
        return _scalar(obj)
    except SchemaError as err:
        raise SchemaError(f"{where}: {err}") from None


def matrix_to_json(a) -> list:
    m = np.asarray(a, dtype=np.complex128)
    return [[scalar_to_json(z) for z in row] for row in m]


def matrix_from_json(obj, where: str = "matrix") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{where}: expected a non-empty array of rows")
    rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"{where}: row {i} must be a non-empty array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(
                f"{where}: row {i} has {len(row)} entries, expected {width}")
        try:
            rows.append([_scalar(z) for z in row])
        except SchemaError:
            # the row again, to name its first bad entry
            for j, z in enumerate(row):
                scalar_from_json(z, f"{where}[{i}][{j}]")
    return np.array(rows, dtype=np.complex128)


def _typed_dataclass(cls, obj: dict, kind: str, types, convert, where: str):
    """cls from its defaults and the fields of obj, each of which must be an
    instance of types and not a boolean."""
    fields = asdict(cls())
    unknown = set(obj) - set(fields)
    if unknown:
        raise SchemaError(f"{where}: unknown {kind} fields {sorted(unknown)}")
    for key, value in obj.items():
        if isinstance(value, bool) or not isinstance(value, types):
            expected = "an integer" if types is int else "a number"
            raise SchemaError(f"{where}.{key}: expected {expected}, "
                              f"got {_shown(value, json.dumps(value))}")
    try:
        return cls(**{key: convert(value) for key, value in {**fields, **obj}.items()})
    except (ValueError, OverflowError) as err:
        raise SchemaError(f"{where}: {err}") from err


def _parse_tolerance(obj, where: str) -> ToleranceConfig:
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return ToleranceConfig(eq_tol=float(obj), proj_tol=float(obj), rank_tol=float(obj))
    if isinstance(obj, dict):
        return _typed_dataclass(ToleranceConfig, obj, "tolerance", (int, float), float, where)
    raise SchemaError(f"{where}: expected a number or an object of tolerances")


def _parse_limits(obj, where: str) -> Limits:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    return _typed_dataclass(Limits, obj, "limit", int, int, where)


@dataclass(frozen=True)
class GeneratorProblem:
    """Parsed generator input file: the generator set plus any overrides."""

    gens: GeneratorSet
    tolerance: ToleranceConfig | None
    limits: Limits | None


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text at byte {err.start}") from err
    except json.JSONDecodeError as err:
        raise ParseError(
            f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    except RecursionError as err:
        raise ParseError(f"{path}: JSON nests too deeply to parse") from err
    except ValueError as err:
        # json.load's integer parser: more digits than int() converts
        raise ParseError(f"{path}: {str(err).split(';')[0]}") from err


@dataclass(frozen=True)
class RawGeneratorFile:
    """Schema-checked generator file before partial isometry validation."""

    dim: int
    named: list
    include_identity: bool
    include_zero: bool
    tolerance: ToleranceConfig | None
    limits: Limits | None


def parse_generator_file(data) -> RawGeneratorFile:
    """Schema check of {dim, tolerance?, generators: [{name, matrix}],
    include_identity?, include_zero?, limits?} without validating that the
    matrices are partial isometries."""
    if not isinstance(data, dict):
        raise SchemaError("top level: expected an object")
    allowed = {"dim", "tolerance", "generators", "include_identity", "include_zero", "limits"}
    unknown = set(data) - allowed
    if unknown:
        raise SchemaError(f"top level: unknown fields {sorted(unknown)}")
    dim = data.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SchemaError("dim: expected a positive integer")
    tolerance = _parse_tolerance(data["tolerance"], "tolerance") if "tolerance" in data else None
    limits = _parse_limits(data["limits"], "limits") if "limits" in data else None
    raw_gens = data.get("generators", [])
    if not isinstance(raw_gens, list):
        raise SchemaError("generators: expected an array")
    named = []
    for i, item in enumerate(raw_gens):
        where = f"generators[{i}]"
        if not isinstance(item, dict) or "name" not in item or "matrix" not in item:
            raise SchemaError(f"{where}: expected an object with 'name' and 'matrix'")
        if not isinstance(item["name"], str):
            raise SchemaError(f"{where}.name: expected a string")
        mat = matrix_from_json(item["matrix"], f"{where}.matrix")
        if mat.shape != (dim, dim):
            raise SchemaError(f"{where}.matrix: shape {mat.shape}, expected ({dim}, {dim})")
        # finite entries may still overflow the defect (about 1e77 and above)
        with np.errstate(all="ignore"):
            try:
                defect = partial_isometry_defect(mat)
            except np.linalg.LinAlgError:
                defect = np.inf
        if not np.isfinite(defect):
            raise SchemaError(f"{where}: the partial isometry defect of {item['name']!r} overflows")
        named.append((item["name"], mat))
    include_identity = data.get("include_identity", True)
    include_zero = data.get("include_zero", False)
    for key, value in (("include_identity", include_identity), ("include_zero", include_zero)):
        if not isinstance(value, bool):
            raise SchemaError(f"{key}: expected a boolean")
    return RawGeneratorFile(dim, named, include_identity, include_zero, tolerance, limits)


def _tolerance(raw: RawGeneratorFile, cfg: ToleranceConfig | None) -> ToleranceConfig:
    """An explicit cfg overrides a tolerance given in the file, which
    overrides the default."""
    return cfg or raw.tolerance or ToleranceConfig()


def parse_generator_problem(data, cfg: ToleranceConfig | None = None) -> GeneratorProblem:
    """Parse and validate a generator file; a generator that is no partial
    isometry raises generator_set's NotPartialIsometry."""
    raw = parse_generator_file(data)
    cfg = _tolerance(raw, cfg)
    try:
        gens = generator_set(raw.named, dim=raw.dim,
                             include_identity=raw.include_identity,
                             include_zero=raw.include_zero, cfg=cfg)
    except ValueError as err:
        raise SchemaError(f"generators: {err}") from err
    return GeneratorProblem(gens, raw.tolerance, raw.limits)


def load_generator_problem(path: str, cfg: ToleranceConfig | None = None) -> GeneratorProblem:
    return parse_generator_problem(load_json(path), cfg)


def load_generator_check(path: str, cfg: ToleranceConfig | None = None
                         ) -> tuple[RawGeneratorFile, ToleranceConfig]:
    """A generator file checked as parse_generator_problem checks it, except
    that its matrices need not be partial isometries, and its tolerance."""
    raw = parse_generator_file(load_json(path))
    taken: set[str] = set()
    try:
        for name, _ in raw.named:
            check_generator_name(name, taken, raw.include_zero)
    except ValueError as err:
        raise SchemaError(f"generators: {err}") from err
    return raw, _tolerance(raw, cfg)


def generator_problem_to_dict(problem: GeneratorProblem) -> dict:
    gens = problem.gens
    out = {
        "dim": gens.dim,
        "generators": [{"name": name, "matrix": matrix_to_json(mat)}
                       for name, mat in gens.named_generators],
        "include_identity": gens.include_identity,
        "include_zero": gens.include_zero,
    }
    if problem.tolerance is not None:
        out["tolerance"] = asdict(problem.tolerance)
    if problem.limits is not None:
        out["limits"] = asdict(problem.limits)
    return out


def _integers(obj, depth: int) -> bool:
    """Is obj an integer (depth 0), or an array of depth-1 such values?"""
    if depth == 0:
        return isinstance(obj, int) and not isinstance(obj, bool)
    return isinstance(obj, list) and all(_integers(x, depth - 1) for x in obj)


def load_table_file(path: str) -> InverseSemigroupTable:
    """Parse {n, mult, star, names?}: n and every mult and star entry are
    integers, names an array of strings, and no other field is allowed."""
    data = load_json(path)
    if not isinstance(data, dict):
        raise SchemaError("top level: expected an object")
    unknown = set(data) - {"n", "mult", "star", "names"}
    if unknown:
        raise SchemaError(f"top level: unknown fields {sorted(unknown)}")
    for key, depth, expected in (("n", 0, "an integer"),
                                 ("mult", 2, "an array of arrays of integers"),
                                 ("star", 1, "an array of integers")):
        if key in data and not _integers(data[key], depth):
            raise SchemaError(f"{key}: expected {expected}")
    names = data.get("names", [])
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise SchemaError("names: expected an array of strings")
    try:
        return table_from_dict(data)
    except (ValueError, OverflowError) as err:
        raise SchemaError(str(err)) from err


def dump_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=False)
