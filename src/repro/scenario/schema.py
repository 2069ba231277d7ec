"""The scenario schema: declarative table validation with exact paths.

Specs are small, hand-written files, so error quality is the whole
game: every failure names the offending key by its dotted path
(``faults.fail_rate``), says what was found and what was expected, and
suggests the nearest known key for typos.  Validation is three-layered:

1. **shape** — unknown tables/keys, missing required keys;
2. **value** — type, choice and range checks per field (a *sweepable*
   field also accepts a non-empty list of valid values: the grid axis);
3. **cross-field** — constraints spanning fields or tables (a Bernoulli
   rate must not exceed 1, a jammer's duty cycle fits its period, fault
   injection requires the protocol with a repair layer, …), checked by
   the spec layer after the tables normalize.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError


class ValidationError(ConfigurationError):
    """A scenario spec failed validation at ``path``."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.detail = message
        super().__init__(f"{path}: {message}" if path else message)


def _type_name(value: Any) -> str:
    if isinstance(value, bool):
        return "bool"
    return type(value).__name__


def _check_scalar(value: Any, field: "Field", path: str) -> None:
    """Type / choice / range check of one (non-list) value."""
    if field.types == (float,):
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif field.types == (int,):
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, field.types)
        if bool not in field.types and isinstance(value, bool):
            ok = False
    if not ok:
        expected = "/".join(t.__name__ for t in field.types)
        raise ValidationError(
            path, f"expected {expected}, got {_type_name(value)} {value!r}"
        )
    if field.choices is not None and value not in field.choices:
        hint = ""
        if isinstance(value, str):
            close = difflib.get_close_matches(value, [
                c for c in field.choices if isinstance(c, str)
            ], n=1)
            if close:
                hint = f" (did you mean {close[0]!r}?)"
        raise ValidationError(
            path,
            f"must be one of {', '.join(repr(c) for c in field.choices)}; "
            f"got {value!r}{hint}",
        )
    if field.minimum is not None and value < field.minimum:
        raise ValidationError(
            path, f"must be >= {field.minimum}, got {value!r}"
        )
    if field.maximum is not None and value > field.maximum:
        raise ValidationError(
            path, f"must be <= {field.maximum}, got {value!r}"
        )
    if field.exclusive_minimum is not None and value <= field.exclusive_minimum:
        raise ValidationError(
            path, f"must be > {field.exclusive_minimum}, got {value!r}"
        )
    if field.check is not None:
        field.check(value, path)


@dataclass(frozen=True)
class Field:
    """One key of a scenario table.

    ``sweep`` marks a grid axis: the key also accepts a non-empty list
    of valid values, expanded into the case cross-product by the
    compiler.  ``check`` is an optional per-value hook for grammar-style
    validation (e.g. topology names) that raises :class:`ValidationError`.
    """

    types: Tuple[type, ...]
    required: bool = False
    default: Any = None
    choices: Optional[Tuple[Any, ...]] = None
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    exclusive_minimum: Optional[float] = None
    sweep: bool = False
    check: Optional[Any] = None  # Callable[[Any, str], None]

    def validate(self, value: Any, path: str) -> Any:
        if self.sweep and isinstance(value, list):
            if not value:
                raise ValidationError(
                    path, "a sweep list needs at least one value"
                )
            for index, item in enumerate(value):
                _check_scalar(item, self, f"{path}[{index}]")
            if len(set(map(repr, value))) != len(value):
                raise ValidationError(path, "sweep values must be distinct")
            return list(value)
        _check_scalar(value, self, path)
        return value


def validate_table(
    data: Mapping[str, Any],
    fields: Mapping[str, Field],
    path: str,
) -> Dict[str, Any]:
    """Validate one table against its field specs; returns it normalized
    (defaults filled in, sweep lists preserved)."""
    if not isinstance(data, Mapping):
        raise ValidationError(
            path, f"expected a table, got {_type_name(data)}"
        )
    out: Dict[str, Any] = {}
    for key, value in data.items():
        if key not in fields:
            close = difflib.get_close_matches(str(key), list(fields), n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ValidationError(
                f"{path}.{key}",
                f"unknown key (known: {', '.join(sorted(fields))}){hint}",
            )
        out[key] = fields[key].validate(value, f"{path}.{key}")
    for key, field in fields.items():
        if key in out:
            continue
        if field.required:
            raise ValidationError(f"{path}.{key}", "required key is missing")
        if field.default is not None:
            out[key] = field.default
    return out


def check_unknown_tables(
    data: Mapping[str, Any], known: Sequence[str]
) -> None:
    """Reject top-level tables the schema does not define."""
    for key in data:
        if key not in known:
            close = difflib.get_close_matches(str(key), list(known), n=1)
            hint = f"; did you mean [{close[0]}]?" if close else ""
            raise ValidationError(
                key,
                f"unknown table (known: {', '.join(known)}){hint}",
            )


def check_topology_name(name: Any, path: str) -> None:
    """Grammar check of a ``build_topology`` name, without building it."""
    from repro.runner.defs import parse_topology_name

    try:
        parse_topology_name(name)
    except ConfigurationError as exc:
        raise ValidationError(path, str(exc)) from None
