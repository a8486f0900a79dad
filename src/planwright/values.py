"""Value types whose methods are written once, here.

A subclass of `Value` declares its fields as class annotations, in order
after the fields it inherits, each with an optional default given as the
class attribute of the same name. ``__init_subclass__`` reads them into
``_fields`` and ``_defaults``; no code is generated per class, so every
method below is compiled once, into the bytecode cache, rather than at each
import. `Value` gives a class:

- an ``__init__`` that takes the fields by position or keyword, fills in the
  defaults, and then calls ``__post_init__`` where the class defines one;
- the repr ``Name(field=value, ...)``;
- equality with an instance of the very same class whose fields are equal,
  and the hash of the tuple of its field values;
- frozen fields: assigning or deleting an attribute raises `AttributeError`.

A class may write its own ``__init__`` with the same parameters, as the
types built in the hot loops do; it, and ``__post_init__``, writes a field
through `set_field`. A value that holds a list or dict (a transcript's
exchanges, say) is unhashable, and the list or dict is not frozen.

Fields are read from the annotations in the class's own ``__dict__``, so a
module that declares a subclass needs ``from __future__ import
annotations``: without it, Python 3.14 keeps them in ``__annotate__``
instead, and the class is refused. A list, dict or set default would be
shared by every instance, so it is refused too; such a field is filled in by
the class's own ``__init__``.

Instances keep their ``__dict__``. An attribute cached there, such as a
``functools.cached_property`` or what `cached_on` keeps, is no field, so
equality, hashing, repr and `replace` ignore it.

Every value has one JSON form, written by `Value.to_json` from the pairs
of `Value.json_items`: each field is a key, in declaration order, a nested
value is its own JSON form, a tuple or list a list, and a dict or scalar is
kept as it is. Three class attributes declare the exceptions:

- ``_json_op``: a tag written first, as ``"op"``;
- ``_json_keys``: the keys in the order written, which may also name a
  derived or constant attribute that is no field;
- ``_json_omit``: a default under which a key is left out.

A class whose form differs in any other way overrides ``json_items``.
`planwright.ir.jsonio.dumps` writes a value from the same pairs.

`Value.from_json` reads the form back and checks it. It reads each key of
the class's ``_json_kinds`` table with `field`, and passes the values to the
class in table order, so the table lists its keys in field order. A kind is:

- a type or a tuple of types, checked; a ``bool`` passes only where the kind
  names ``bool``, so a JSON ``true`` is no ``int``;
- a value class, or a decoder function such as
  `planwright.ir.model.expression_from_json`, which reads a JSON object;
- ``[kind]``, a list of that kind, read as a tuple.

A key may be absent only where it has a decode default: the class default,
unless ``_json_defaults`` names another, where ``REQUIRED`` keeps a key
required. Other keys are ignored, and malformed input raises
`IRDecodeError`. A class overrides ``from_json`` to check values against
each other, to read a key that names no field, or to dispatch on a key.
"""
from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Optional, TypeVar

R = TypeVar("R", bound="Value")

set_field = object.__setattr__  # writes a field past Value's __setattr__

REQUIRED: Any = object()  # the decode default of a key that must be present


class IRDecodeError(ValueError):
    """Raised when a JSON document does not describe a valid value."""


class Value:
    """A frozen value, equal to an instance of the same class with equal fields."""

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, Any] = {}
    _has_post_init = False
    _json_op: Optional[str] = None
    _json_keys: tuple[str, ...] = ()
    _json_omit: dict[str, Any] = {}
    _json_kinds: dict[str, Any] = {}
    _json_defaults: dict[str, Any] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "__annotate__" in cls.__dict__ and "__annotations__" not in cls.__dict__:
            raise TypeError(f"{cls.__qualname__}: fields need `from __future__ import annotations` in its module")
        own = tuple(cls.__dict__.get("__annotations__", {}))
        defaults = {name: cls.__dict__[name] for name in own if name in cls.__dict__}
        for name, value in defaults.items():
            if isinstance(value, (list, dict, set)):
                raise TypeError(f"{cls.__qualname__}.{name}: a {type(value).__name__} default would be shared by every instance")
        cls._fields = cls._fields + own
        cls._defaults = {**cls._defaults, **defaults}
        cls._has_post_init = hasattr(cls, "__post_init__")
        get = attrgetter(*cls._fields) if cls._fields else None
        # attrgetter of one name returns the bare value, not a 1-tuple.
        cls._values = staticmethod(lambda value: (get(value),)) if len(cls._fields) == 1 else get

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__qualname__}() takes {len(fields)} arguments but {len(args)} were given")
        for name, value in zip(fields, args):
            set_field(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__qualname__}() missing argument {name!r}")
            set_field(self, name, value)
        if kwargs:
            raise TypeError(f"{type(self).__qualname__}() got an unexpected keyword argument {next(iter(kwargs))!r}")
        if self._has_post_init:
            self.__post_init__()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__qualname__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__qualname__}")

    def json_items(self) -> list[tuple[str, Any]]:
        """The keys of the JSON form, each with its value as it is held."""
        items = [("op", self._json_op)] if self._json_op else []
        omit = self._json_omit
        for name in self._json_keys or self._fields:
            value = getattr(self, name)
            if name not in omit or value != omit[name]:
                items.append((name, value))
        return items

    def to_json(self) -> dict:
        """The JSON form as plain dicts, lists and scalars."""
        return {key: _plain(value) for key, value in self.json_items()}

    @classmethod
    def from_json(cls: type[R], data: Any) -> R:
        """The value whose JSON form ``data`` is, read by `_json_kinds`."""
        return cls(*cls._json_args(data))

    @classmethod
    def _json_args(cls, data: Any) -> list:
        """The value of each key of `_json_kinds`, in table order."""
        if not cls._json_kinds:
            raise TypeError(f"{cls.__qualname__} declares no _json_kinds to read")
        defaults, own = cls._defaults, cls._json_defaults
        return [field(data, key, kind, own.get(key, defaults.get(key, REQUIRED))) for key, kind in cls._json_kinds.items()]


def _plain(value: Any) -> Any:
    if isinstance(value, Value):
        return value.to_json()
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    return value


def field(data: Any, key: str, kind: Any, default: Any = REQUIRED) -> Any:
    """``data[key]``, read as a ``kind`` (see the module docstring). With a
    ``default`` the key is optional: an absent key yields the default, a
    present one is read."""
    if not isinstance(data, dict):
        raise IRDecodeError(f"expected object, got {type(data).__name__}")
    if key not in data:
        if default is REQUIRED:
            raise IRDecodeError(f"missing field {key!r}")
        return default
    value = data[key]
    if value.__class__ is kind:  # exactly a checked type, as a parsed value is no Value
        return value
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise IRDecodeError(f"field {key!r} must be list")
        item = kind[0]
        if _is_type(item):
            if not all(x.__class__ is item or _is(x, item) for x in value):
                raise IRDecodeError(f"field {key!r} must hold only {_kind_names(item)}")
            return tuple(value)
        return tuple(map(item.from_json if isinstance(item, type) else item, value))
    if _is_type(kind):
        if not _is(value, kind):
            raise IRDecodeError(f"field {key!r} must be {_kind_names(kind)}")
        return value
    if not isinstance(value, dict):
        raise IRDecodeError(f"field {key!r} must be dict")
    return (kind.from_json if isinstance(kind, type) else kind)(value)


def _is_type(kind: Any) -> bool:
    return isinstance(kind, tuple) or (isinstance(kind, type) and not issubclass(kind, Value))


def _is(value: Any, kind: Any) -> bool:
    # bool subclasses int; a JSON true passes only where the kind names bool.
    return isinstance(value, kind) and (value.__class__ is not bool or kind is bool or (isinstance(kind, tuple) and bool in kind))


def _kind_names(kind: Any) -> str:
    kinds = kind if isinstance(kind, tuple) else (kind,)
    return " or ".join(k.__name__ for k in kinds)


def replace(record: R, **changes: Any) -> R:
    """A copy of ``record`` with ``changes`` to its fields, built through
    ``__init__``, so ``__post_init__`` runs again."""
    for name in record._fields:
        if name not in changes:
            changes[name] = getattr(record, name)
    return type(record)(**changes)


def cached_on(instance: Value, key: str, build: Callable[[Any], Any]) -> Any:
    """``build(instance)``, made on first use and kept in the instance's
    ``__dict__`` under ``key``. It is no field, so equality, hashing, repr
    and `replace` ignore it, and it is freed with the instance. Use it only
    where no list or dict that a field holds changes under what was built."""
    cache = vars(instance)
    value = cache.get(key)
    if value is None:
        value = cache[key] = build(instance)
    return value
