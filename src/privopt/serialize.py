"""JSON forms of the domain objects.

Rationals travel as lowest-terms "p/q" strings (plain "p" when the
denominator is 1); parsers also accept integers and exact decimal
strings like "1.5". Round trips are bit-exact. Parsing is strict: a
malformed value raises FormatError naming the offending field by path.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .core import (
    LossFunction,
    Mechanism,
    Remap,
    StructuralError,
    UserModel,
    format_rational,
)
from .nonoblivious import DatabaseSpace, FullMechanism


class FormatError(ValueError):
    """Input JSON does not match the expected shape; path says where."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _rational(value, path: str) -> Fraction:
    if isinstance(value, bool):
        raise FormatError(path, "expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise FormatError(path, "floats are inexact; quote the value as a "
                                "string like \"1/3\"")
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise FormatError(path, f"malformed rational {value!r}") from None
    raise FormatError(path, f"expected a rational, got {type(value).__name__}")


def _expect_dict(value, path: str, allowed: set[str],
                 required: set[str]) -> dict:
    if not isinstance(value, dict):
        raise FormatError(path, f"expected an object, got {type(value).__name__}")
    for key in value:
        if key not in allowed:
            raise FormatError(f"{path}.{key}", "unknown field")
    for key in required:
        if key not in value:
            raise FormatError(f"{path}.{key}", "missing required field")
    return value


def _expect_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise FormatError(path, f"expected an array, got {type(value).__name__}")
    return value


def _label(value, path: str):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise FormatError(path, "response labels must be integers or strings")
    return value


def _rows(value, path: str) -> tuple:
    rows = []
    for i, row in enumerate(_expect_list(value, path)):
        row = _expect_list(row, f"{path}[{i}]")
        rows.append(tuple(_rational(v, f"{path}[{i}][{k}]")
                          for k, v in enumerate(row)))
    return tuple(rows)


def mechanism_to_jsonable(m: Mechanism, alpha: Fraction | None = None) -> dict:
    out = {
        "n": m.n,
        "responses": list(m.responses),
        "rows": [[format_rational(v) for v in row] for row in m.rows],
    }
    if alpha is not None:
        out["alpha"] = format_rational(alpha)
    return out


def mechanism_from_jsonable(data, path: str = "mechanism"):
    """Returns (Mechanism, alpha-or-None); alpha is carried metadata."""
    data = _expect_dict(data, path, {"n", "responses", "rows", "alpha"},
                        {"n", "responses", "rows"})
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise FormatError(f"{path}.n", "n must be a nonnegative integer")
    responses = tuple(_label(v, f"{path}.responses[{k}]")
                      for k, v in enumerate(_expect_list(data["responses"],
                                                         f"{path}.responses")))
    rows = _rows(data["rows"], f"{path}.rows")
    alpha = _rational(data["alpha"], f"{path}.alpha") if "alpha" in data else None
    try:
        mech = Mechanism(n=n, responses=responses, rows=rows)
    except StructuralError as e:
        raise FormatError(path, str(e)) from None
    return mech, alpha


def loss_to_jsonable(loss: LossFunction) -> dict:
    out = {"kind": loss.kind}
    if loss.kind == "power":
        out["exponent"] = format_rational(loss.exponent)
    elif loss.kind == "tabulated":
        out["table"] = [[format_rational(v) for v in row] for row in loss.table]
    return out


def loss_from_jsonable(data, path: str = "loss") -> LossFunction:
    data = _expect_dict(data, path, {"kind", "exponent", "table"}, {"kind"})
    kind = data["kind"]
    if not isinstance(kind, str):
        raise FormatError(f"{path}.kind", "kind must be a string")
    try:
        if kind == "power":
            if "exponent" not in data:
                raise FormatError(f"{path}.exponent", "missing required field")
            return LossFunction.power(_rational(data["exponent"],
                                                f"{path}.exponent"))
        if kind == "tabulated":
            if "table" not in data:
                raise FormatError(f"{path}.table", "missing required field")
            return LossFunction.tabulated(_rows(data["table"], f"{path}.table"))
        return LossFunction(kind)
    except StructuralError as e:
        raise FormatError(path, str(e)) from None


def user_to_jsonable(u: UserModel) -> dict:
    return {
        "prior": [format_rational(p) for p in u.prior],
        "loss": loss_to_jsonable(u.loss),
    }


def user_from_jsonable(data, path: str = "user") -> UserModel:
    data = _expect_dict(data, path, {"prior", "loss"}, {"prior", "loss"})
    prior = tuple(_rational(v, f"{path}.prior[{k}]")
                  for k, v in enumerate(_expect_list(data["prior"],
                                                     f"{path}.prior")))
    loss = loss_from_jsonable(data["loss"], f"{path}.loss")
    try:
        return UserModel(prior=prior, loss=loss)
    except StructuralError as e:
        raise FormatError(f"{path}.prior", str(e)) from None


def remap_to_jsonable(y: Remap) -> dict:
    """Indicator rows: row j holds "1" at the target of sources[j]."""
    return {
        "sources": list(y.sources),
        "targets": list(y.targets),
        "rows": [["1" if t == tgt else "0" for t in y.targets]
                 for tgt in y.mapping],
    }


def remap_from_jsonable(data, path: str = "remap") -> Remap:
    """Only deterministic remaps are read: every row must be an indicator
    row over the targets; a randomized row is rejected."""
    data = _expect_dict(data, path, {"sources", "targets", "rows"},
                        {"sources", "targets", "rows"})
    sources = tuple(_label(v, f"{path}.sources[{k}]")
                    for k, v in enumerate(_expect_list(data["sources"],
                                                       f"{path}.sources")))
    targets = tuple(_label(v, f"{path}.targets[{k}]")
                    for k, v in enumerate(_expect_list(data["targets"],
                                                       f"{path}.targets")))
    mapping = []
    for j, row in enumerate(_rows(data["rows"], f"{path}.rows")):
        if (len(row) != len(targets) or any(v not in (0, 1) for v in row)
                or sum(row) != 1):
            raise FormatError(f"{path}.rows[{j}]",
                              f"expected an indicator row of {len(targets)} "
                              "entries, one 1 and the rest 0; randomized "
                              "remaps are not supported")
        mapping.append(targets[row.index(1)])
    try:
        return Remap(sources=sources, targets=targets, mapping=mapping)
    except StructuralError as e:
        raise FormatError(f"{path}.rows", str(e)) from None


def space_to_jsonable(space: DatabaseSpace) -> dict:
    return {
        "domain": list(space.domain),
        "rows": space.rows,
        "positive": sorted(space.positive),
    }


def space_from_jsonable(data, path: str = "space") -> DatabaseSpace:
    data = _expect_dict(data, path, {"domain", "rows", "positive"},
                        {"domain", "rows", "positive"})
    rows = data["rows"]
    if isinstance(rows, bool) or not isinstance(rows, int):
        raise FormatError(f"{path}.rows", "rows must be an integer")
    domain = tuple(_label(v, f"{path}.domain[{k}]")
                   for k, v in enumerate(_expect_list(data["domain"],
                                                      f"{path}.domain")))
    positive = tuple(_label(v, f"{path}.positive[{k}]")
                     for k, v in enumerate(_expect_list(data["positive"],
                                                        f"{path}.positive")))
    try:
        return DatabaseSpace(domain=domain, rows=rows, positive=positive)
    except StructuralError as e:
        raise FormatError(path, str(e)) from None


def full_mechanism_to_jsonable(x: FullMechanism) -> dict:
    return {
        "space": space_to_jsonable(x.space),
        "responses": list(x.responses),
        "rows": [[format_rational(v) for v in row] for row in x.rows],
    }


def full_mechanism_from_jsonable(data, path: str = "full_mechanism",
                                 space: DatabaseSpace | None = None) -> FullMechanism:
    """Rows are in the space's own database enumeration order. The space
    may be embedded under "space" or supplied separately; when both are
    present they must agree."""
    data = _expect_dict(data, path, {"space", "responses", "rows"},
                        {"responses", "rows"})
    if "space" in data:
        embedded = space_from_jsonable(data["space"], f"{path}.space")
        if space is not None and embedded != space:
            raise FormatError(f"{path}.space",
                              "embedded space disagrees with the one supplied")
        space = embedded
    if space is None:
        raise FormatError(f"{path}.space", "missing required field")
    responses = tuple(_label(v, f"{path}.responses[{k}]")
                      for k, v in enumerate(_expect_list(data["responses"],
                                                         f"{path}.responses")))
    rows = _rows(data["rows"], f"{path}.rows")
    try:
        return FullMechanism(space=space, responses=responses, rows=rows)
    except StructuralError as e:
        raise FormatError(f"{path}.rows", str(e)) from None


def dumps(data) -> str:
    """Canonical text form: sorted keys, two-space indent, newline at end."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def write_json(path: str | Path, data) -> None:
    Path(path).write_text(dumps(data))


def read_json(path: str | Path):
    raw = Path(path).read_text()
    try:
        return json.loads(raw)
    except json.JSONDecodeError as e:
        raise FormatError(str(path), f"invalid JSON: {e}") from None
