"""One codec for the frozen spec dataclasses.

Every spec — :class:`~repro.pipeline.spec.ExperimentSpec` and the serving,
online, search and workload specs nested in it — is a frozen dataclass over
:class:`Spec`, the one way to and from its plain-dict (JSON) form.
:meth:`Spec.to_dict` turns nested specs into dicts, tuples into lists and
infinity into ``None``; :meth:`Spec.from_dict` reverses it by the declared
field types (``None`` becomes infinity only in a field declared ``float``)
and rejects a key that names no field, at every level, with the root's
error class.  Constructors take typed values; ``validate()`` rejects a
nested value that is not the declared spec (:meth:`Spec.check_nested`).
This module imports nothing from ``repro``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing


class Spec:
    """Codec base of a frozen spec dataclass.

    A subclass sets ``_error`` (what its ``validate`` raises, and what
    :meth:`from_dict` raises when the subclass is the root of a decode) and
    ``_label`` (its name in the ``unknown <label> fields`` message).
    """

    _error: typing.ClassVar[type[ValueError]] = ValueError
    _label: typing.ClassVar[str] = "spec"

    def replace(self, **changes):
        """A copy with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """Plain-dict, JSON-compatible form."""
        return {f.name: _encode(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: dict):
        """Rebuild from :meth:`to_dict` output; rejects unknown keys at every level."""
        return _decode(cls, data, cls._error)

    @classmethod
    def _lazy_types(cls) -> dict[str, type]:
        """Names in the field annotations that the module imports lazily."""
        return {}

    def check_nested(self) -> None:
        """Raise ``_error`` if a field declared as a spec holds anything else."""
        for name, (_, spec, many) in _fields(type(self)).items():
            if spec is None:
                continue
            value = getattr(self, name)
            for item in value if many else (value,):
                if item is not None and not isinstance(item, spec):
                    raise self._error(
                        f"{name} must hold {spec.__name__} values, got {type(item).__name__}"
                    )


def _encode(value):
    if isinstance(value, Spec):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    if isinstance(value, float) and value == math.inf:
        return None
    return value


@functools.cache
def _fields(cls: type[Spec]) -> dict[str, tuple[object, type[Spec] | None, bool]]:
    """``name -> (declared type, spec class or None, is a tuple)`` of each field.

    The spec class is the field's, or its tuple's elements'; ``X | None``
    counts as ``X`` there and in the tuple test.
    """
    hints = typing.get_type_hints(cls, localns=cls._lazy_types())
    found = {}
    for field in dataclasses.fields(cls):
        hint = inner = hints[field.name]
        if typing.get_origin(inner) in (typing.Union, types.UnionType):
            (inner,) = [arg for arg in typing.get_args(inner) if arg is not type(None)]
        many = typing.get_origin(inner) is tuple
        element = typing.get_args(inner)[0] if many else inner
        spec = element if isinstance(element, type) and issubclass(element, Spec) else None
        found[field.name] = (hint, spec, many)
    return found


def _decode(cls: type[Spec], data: dict, error: type[ValueError]) -> Spec:
    fields = _fields(cls)
    unknown = set(data) - set(fields)
    if unknown:
        raise error(f"unknown {cls._label} fields: {sorted(unknown)}")

    def nested(spec, value):
        if spec is not None and isinstance(value, dict):
            return _decode(spec, value, error)
        return value

    payload = {}
    for name, value in data.items():
        hint, spec, many = fields[name]
        if many and isinstance(value, (list, tuple)):
            value = tuple(nested(spec, item) for item in value)
        elif hint is float and value is None:
            value = math.inf
        else:
            value = nested(spec, value)
        payload[name] = value
    return cls(**payload)
