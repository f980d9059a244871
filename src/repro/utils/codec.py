"""One JSON codec for the frozen config dataclasses.

A config block's JSON form is its field list in declaration order.
:class:`JsonConfig` derives ``to_dict`` / ``from_dict`` / ``with_`` from
:func:`dataclasses.fields`.  A field that is not plain JSON declares its
conversion in ``field(metadata=...)`` (:func:`nested`,
:func:`nested_tuple`, :func:`converted`); a field added by a later
schema version carries ``since=N`` (:func:`since`), and a class with a
``CONFIG_VERSION`` reads a ``"version"`` key and rejects newer fields.
Decoding rejects unknown keys, non-object blocks, missing required
keys, a ``bool`` field that is not JSON ``true``/``false`` and a number
field given a boolean, with a :class:`~repro.errors.ConfigurationError`
naming the block path (e.g. ``tenants[0].workload``); a ``null`` or
empty value for a converted field means its default, and ``None`` is
written as ``null``.
"""

from __future__ import annotations

from dataclasses import MISSING, field, fields, replace

from repro.errors import ConfigurationError, ReproError


def converted(encode, decode=None, *, since: int = 1, **kwargs):
    """A field written as ``encode(value)`` and read back as ``decode(json, path)``.

    Without ``decode`` the JSON value is passed to the constructor as is.
    ``since`` is the schema version that introduced the field.
    """
    return field(metadata={"codec": (encode, decode), "since": since}, **kwargs)


def nested(cls, **kwargs):
    """A field holding one config block (a dataclass) of type ``cls``."""
    return converted(encode, lambda data, path: decode(cls, data, path), **kwargs)


def nested_tuple(cls, **kwargs):
    """A field holding a tuple of ``cls`` blocks, written as a JSON list."""

    def decode_all(data, path):
        if not isinstance(data, list):
            raise ConfigurationError(f"{path} must be a JSON list, got {data!r}")
        return tuple(decode(cls, d, f"{path}[{i}]") for i, d in enumerate(data))

    return converted(lambda blocks: [encode(b) for b in blocks], decode_all, **kwargs)


def since(version: int, **kwargs):
    """A plain field introduced by schema ``version`` (fields default to 1)."""
    return field(metadata={"since": version}, **kwargs)


def encode(obj) -> dict:
    """JSON-ready dict of a config dataclass, in field order."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        codec = f.metadata.get("codec")
        if codec is not None and value is not None:
            value = codec[0](value)
        out[f.name] = value
    return out


def decode(cls, data, path: str = ""):
    """Build ``cls`` from its :func:`encode` form, validating the keys.

    ``path`` locates the block inside the document for error messages;
    the top-level block is named by its class's ``BLOCK`` label.
    """
    label = path or getattr(cls, "BLOCK", cls.__name__)
    if not isinstance(data, dict):
        raise ConfigurationError(f"{label} must be a JSON object, got {data!r}")
    latest = getattr(cls, "CONFIG_VERSION", None)
    version = data.get("version", latest) if latest is not None else None
    if latest is not None and version not in range(1, latest + 1):
        raise ConfigurationError(
            f"unsupported {label} version {version!r}; this build reads 1 through {latest}"
        )
    introduced = {f.name: f.metadata.get("since", 1) for f in fields(cls)}
    known = {
        f.name: f for f in fields(cls) if version is None or introduced[f.name] <= version
    }
    unknown = set(data) - set(known) - ({"version"} if latest is not None else set())
    if unknown:
        newer = [
            f"{name!r} needs version {introduced[name]}"
            for name in sorted(unknown)
            if name in introduced
        ]
        hint = ", ".join(newer) or f"expected a subset of {sorted(known)}"
        raise ConfigurationError(
            f"unknown {label} keys: {sorted(unknown)} ({hint}; unknown keys are rejected)"
        )
    missing = [
        name
        for name, f in known.items()
        if name not in data and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ConfigurationError(f"{label} is missing required keys {missing}")
    kwargs = {}
    for name, value in data.items():
        if name == "version":
            continue
        f = known[name]
        codec = f.metadata.get("codec")
        if codec is None:
            _check_scalar(label, name, f.type, value)
        if codec is None or codec[1] is None:
            kwargs[name] = value
        elif value:
            child = f"{path}.{name}" if path else name
            kwargs[name] = _checked(child, lambda: codec[1](value, child))
    return _checked(label, lambda: cls(**kwargs))


#: Number annotations as written (the config modules postpone evaluation).
_NUMBERS = frozenset({"int", "float", "int | None", "float | None"})
_INTS = frozenset({"int", "int | None"})


def _check_scalar(label: str, name: str, annotation, value) -> None:
    """Python reads ``"false"`` as true and ``true`` as 1, and a count of 2.5
    would pass most range checks: reject all three."""
    if annotation == "bool" and not isinstance(value, bool):
        raise ConfigurationError(f"{label}: {name} must be JSON true or false, got {value!r}")
    if annotation in _NUMBERS and isinstance(value, bool):
        raise ConfigurationError(f"{label}: {name} must be a number, got {value!r}")
    if annotation in _INTS and isinstance(value, float) and not value.is_integer():
        raise ConfigurationError(f"{label}: {name} must be an integer, got {value!r}")


def _checked(label: str, build):
    """Call ``build()``; a type or value error becomes a ConfigurationError."""
    try:
        return build()
    except ConfigurationError:
        raise
    except (TypeError, ReproError) as exc:
        raise ConfigurationError(f"{label}: {exc}") from None


class JsonConfig:
    """Mixin: ``to_dict`` / ``from_dict`` / ``with_`` from the dataclass fields.

    A subclass's ``BLOCK`` names it in error messages when it is decoded
    on its own rather than nested.
    """

    def to_dict(self) -> dict:
        return encode(self)

    @classmethod
    def from_dict(cls, data):
        return decode(cls, data)

    def with_(self, **kwargs):
        """Copy with overrides (re-runs validation)."""
        return replace(self, **kwargs)
