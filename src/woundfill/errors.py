"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: config problems -> 1, data problems
(bad meshes, bad datasets, nothing to extract) -> 2, numerical failures -> 3.
"""


class WoundfillError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(WoundfillError):
    """Invalid configuration: unknown keys, bad ranges, inconsistent flags."""


class MeshError(WoundfillError):
    """Invalid mesh data or an operation applied to an unsuitable mesh."""


class MeshFormatError(MeshError):
    """Unparseable or unsupported mesh file content."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NonManifoldError(MeshError):
    """An edge is incident to more than two faces."""

    def __init__(self, edge, count):
        edge = tuple(int(v) for v in edge)
        super().__init__(f"non-manifold edge {edge}: {count} incident faces")
        self.edge = edge
        self.count = count


class DataError(WoundfillError):
    """Dataset-level problem: missing files, mismatched topology, empty split."""


class NoFillingError(DataError):
    """Outlier analysis found nothing to extract."""


class NumericalError(WoundfillError):
    """Non-finite values where finite ones are required, or divergence."""


def json_field(doc, key: str, kind, path, what: str):
    """doc[key] if doc is a JSON object with a non-boolean `kind` there, else DataError."""
    if not isinstance(doc, dict) or key not in doc:
        raise DataError(f"{path}: {what} lacks {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise DataError(f"{path}: {what} {key!r} has the wrong type")
    return value
