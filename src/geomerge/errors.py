"""Exception types shared across the package.

The CLI maps these onto exit-code categories: configuration errors (1),
I/O and container errors (2), numeric errors (3).
"""

from __future__ import annotations

from typing import Iterable


class GeomergeError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(GeomergeError):
    """Invalid recipe, parameter, or override (exit category 1)."""


def refuse_unknown_keys(node: Iterable, allowed: Iterable[str], where: str) -> None:
    """Refuse the first key of ``node``, in sorted order, that is not in
    ``allowed``; ``where`` (``"r.yaml: "``, say) starts the message.

    Keys of mixed YAML types (``1`` beside ``zz``) do not sort; the first
    by ``repr`` is named then.
    """
    unknown = set(node).difference(allowed)
    if unknown:
        try:
            first = sorted(unknown)[0]
        except TypeError:
            first = min(unknown, key=repr)
        raise ConfigError(f"{where}unknown key {first!r} (typo?)")


class ContainerError(GeomergeError):
    """Malformed or unreadable tensor container file (exit category 2)."""


class UnsupportedDTypeError(ContainerError):
    """Container declares a dtype this reader does not handle."""


class TensorNotFoundError(GeomergeError, KeyError):
    """Requested tensor name is absent from a checkpoint."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message plain
        return self.args[0] if self.args else ""


class NonFiniteError(GeomergeError):
    """NaN/Inf encountered while strict finiteness checking is on (exit 3)."""


class DTypeOverflowError(GeomergeError):
    """Value not representable in the output dtype or the working precision (exit 3)."""


class DegenerateError(GeomergeError):
    """Vector with (near-)zero norm where a direction is required (exit 3)."""


class AntipodalError(GeomergeError):
    """Spherical log map requested between (near-)antipodal points (exit 3)."""


class AlignmentError(GeomergeError):
    """Checkpoints are not shape-aligned and strict mode is on (exit 3)."""
