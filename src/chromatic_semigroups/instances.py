"""JSON instance documents for the command-line tools.

Schema (all keys validated, unknown keys rejected):

    {
      "dimension": m,                      // positive integer
      "colors": [                          // one entry per color, names unique
        {"name": "red", "generators": [[...], ...]},   // length-m int vectors
        ...
      ],
      "targets": [[...], ...]              // optional, length-m int vectors
    }

Dimension-1 documents double as colored numerical semigroup instances.
"""

import json

from ._record import record
from .colored import ColoredSemigroup
from .errors import InstanceParseError, InstanceValidationError
from .numerical import ColoredNumericalSemigroup

_TOP_KEYS = {"dimension", "colors", "targets"}


@record
class InstanceDocument:
    dimension: int
    colors: tuple           # (name, generator tuple) pairs, ordered
    targets: tuple          # possibly empty

    def to_colored_semigroup(self):
        columns = []
        classes = []
        for _, gens in self.colors:
            idxs = []
            for g in gens:
                columns.append(g)
                idxs.append(len(columns) - 1)
            classes.append(tuple(idxs))
        try:
            return ColoredSemigroup(self.dimension, tuple(columns),
                                    tuple(classes))
        except ValueError as exc:
            raise InstanceValidationError(str(exc)) from exc

    def to_numerical(self):
        if self.dimension != 1:
            raise InstanceValidationError(
                "numerical subcommands need a dimension-1 document")
        classes = tuple(tuple(g[0] for g in gens) for _, gens in self.colors)
        for (name, _), cls in zip(self.colors, classes):
            # the classes are sets, so a repeat would be merged silently
            if len(set(cls)) < len(cls):
                raise InstanceValidationError(
                    f"color {name!r} lists a generator twice")
        try:
            return ColoredNumericalSemigroup(classes)
        except ValueError as exc:
            raise InstanceValidationError(str(exc)) from exc

    @property
    def pooled_generators(self):
        return tuple(g for _, gens in self.colors for g in gens)


def parse_instance(source):
    """Load and validate an instance document.

    `source` is a path, "-" for stdin, or an open text stream.  Syntax
    problems raise InstanceParseError with the line/column; schema problems
    raise InstanceValidationError naming the offending field.
    """
    if hasattr(source, "read"):
        text = source.read()
    elif source == "-":
        import sys
        text = sys.stdin.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InstanceParseError(str(exc)) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceParseError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return _validate(data)


def _validate(data):
    if not isinstance(data, dict):
        raise InstanceValidationError("top level must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise InstanceValidationError(
            f"unknown top-level keys: {sorted(unknown)}")
    if "dimension" not in data or "colors" not in data:
        raise InstanceValidationError("'dimension' and 'colors' are required")
    dim = data["dimension"]
    if not _is_int(dim) or dim < 1:
        raise InstanceValidationError("'dimension' must be a positive integer")
    colors_raw = data["colors"]
    if not isinstance(colors_raw, list) or not colors_raw:
        raise InstanceValidationError("'colors' must be a nonempty array")
    colors = []
    names = set()
    for ci, entry in enumerate(colors_raw):
        where = f"colors[{ci}]"
        if not isinstance(entry, dict) or set(entry) != {"name", "generators"}:
            raise InstanceValidationError(
                f"{where} must be an object with 'name' and 'generators'")
        name = entry["name"]
        if not isinstance(name, str) or not name:
            raise InstanceValidationError(f"{where}.name must be a nonempty string")
        if name in names:
            raise InstanceValidationError(f"duplicate color name {name!r}")
        names.add(name)
        gens_raw = entry["generators"]
        if not isinstance(gens_raw, list) or not gens_raw:
            raise InstanceValidationError(
                f"{where}.generators must be a nonempty array")
        gens = []
        for gi, vec in enumerate(gens_raw):
            gens.append(_vector(vec, dim, f"{where}.generators[{gi}]"))
        colors.append((name, tuple(gens)))
    targets = []
    if "targets" in data:
        targets_raw = data["targets"]
        if not isinstance(targets_raw, list):
            raise InstanceValidationError("'targets' must be an array")
        for ti, vec in enumerate(targets_raw):
            targets.append(_vector(vec, dim, f"targets[{ti}]"))
    return InstanceDocument(dim, tuple(colors), tuple(targets))


def _vector(vec, dim, where):
    if not isinstance(vec, list) or len(vec) != dim:
        raise InstanceValidationError(
            f"{where} must be an array of length {dim}")
    out = []
    for j, c in enumerate(vec):
        if not _is_int(c):
            raise InstanceValidationError(f"{where}[{j}] must be an integer")
        out.append(int(c))
    return tuple(out)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)
