"""One strict JSON codec for every wire class, derived from dataclass fields.

Every serializable object in the repository (scenario configs, component
specs, results, the service's job records and requests) round-trips
through plain JSON-safe dicts: the sweep cache hashes them, worker
processes exchange them, and the CLI and the HTTP service accept them as
scenario documents.  No class hand-writes that codec.  :func:`to_dict`
and :func:`from_dict` walk ``dataclasses.fields`` and the fields' type
hints, compiling one plan per class on first use:

* ``to_dict(obj)`` has exactly the dataclass field names as keys;
* ``from_dict(cls, data)`` is strict.  An unknown key, a missing required
  key (a field without a default) or a value of the wrong JSON type
  raises :class:`SpecError` naming the field and the class.  Int fields
  reject bools, float fields accept ints, list fields accept only lists.
  Values are never coerced, so ``from_dict(cls, to_dict(x)) == x`` and
  both hash to the same digest;
* init-only parameters (``dataclasses.InitVar``) are accepted on input
  and never emitted;
* a field typed as a dataclass also takes an instance of it, already
  decoded (``ResultCache.load`` hands back the config it was asked for).

Understood type hints: ``int``, ``float``, ``str``, ``bool``, ``object``
(any JSON value, passed through), ``Optional``/``Union``, ``List``,
homogeneous ``Tuple``, ``Dict`` keyed by ``str``, ``int`` (``"7"``) or
a tuple of ints (``"1-2"``), and nested dataclasses.  Containers of
scalars are checked and copied in bulk, not element by element.
Canonical forms (alias names resolved, numeric params as floats) are each
class's business at construction, which keeps this codec generic.
"""

from __future__ import annotations

import dataclasses
import operator
import reprlib
import typing
from itertools import chain
from typing import Any, Callable, Container, Dict, FrozenSet, Iterable, Optional, Tuple

_NONE = type(None)

#: JSON types a scalar type hint accepts, and how an error names it.
_SCALARS: Dict[object, Tuple[FrozenSet[type], str]] = {
    int: (frozenset({int}), "an int"),
    float: (frozenset({int, float}), "a number"),
    str: (frozenset({str}), "a string"),
    bool: (frozenset({bool}), "a bool"),
}

_STR = frozenset({str})
_LIST = frozenset({list})


class _Anything:
    """Contains every type: the type check of a field its converter checks."""

    def __contains__(self, item: object) -> bool:
        return True


_ANYTHING = _Anything()


class SpecError(ValueError):
    """Raised when a serialized spec/config dict is malformed."""


class Wire:
    """Mixin giving a dataclass ``to_dict``/``from_dict`` methods over the codec."""

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation; ``from_dict`` is its exact inverse."""
        return to_dict(self)

    @classmethod
    def from_dict(cls, data: object):
        """Strictly decode ``data`` (see :func:`from_dict`)."""
        return from_dict(cls, data)


def to_dict(obj: object) -> Dict[str, object]:
    """``obj``'s fields as a JSON-safe dict keyed by field name."""
    return _plan(type(obj)).encode(obj)


def from_dict(cls: Any, data: object):
    """Decode ``data`` into a ``cls``, or raise :class:`SpecError`."""
    return _plan(cls).decode(data)


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
class _Plan:
    """The compiled codec of one dataclass."""

    __slots__ = ("encode", "decode", "required")

    def __init__(self, encode, decode, required: FrozenSet[str]) -> None:
        self.encode = encode
        self.decode = decode
        self.required = required


_PLANS: Dict[Any, _Plan] = {}


def _plan(cls: Any) -> _Plan:
    try:
        return _PLANS[cls]
    except KeyError:
        plan = _PLANS[cls] = _compile(cls)
        return plan


def _mistyped(where: str, expected: str, value: object) -> SpecError:
    return SpecError(
        f"{where} must be {expected}, got {type(value).__name__} {reprlib.repr(value)}"
    )


def _compile(cls: Any) -> _Plan:
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls.__name__} is not a dataclass; the codec cannot serialize it")
    owner = cls.__name__
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.init]
    names = tuple(f.name for f in fields)
    init_only = {
        name: hint.type for name, hint in hints.items() if isinstance(hint, dataclasses.InitVar)
    }
    known = frozenset(names) | frozenset(init_only)
    required = frozenset(
        f.name
        for f in fields
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    )
    encoders = []
    # A scalar field's JSON types, checked for every field in one C loop;
    # any other field defers its check to its converter.
    checks: Dict[str, Container] = {}
    converters = []
    for name, hint in [(f.name, hints[f.name]) for f in fields] + list(init_only.items()):
        codec = _codec(hint, f"{owner}.{name}")
        checks[name] = _ANYTHING if codec.types is None else codec.types
        if codec.decode is not None:
            converters.append((name, codec.decode))
        if codec.encode is not None and name not in init_only:
            encoders.append((name, codec.encode))
    # attrgetter of a single name returns the value itself, not a 1-tuple.
    getter: Callable[[object], tuple] = (
        operator.attrgetter(*names) if len(names) > 1 else lambda obj: (getattr(obj, names[0]),)
    )

    def encode(obj) -> Dict[str, object]:
        data = dict(zip(names, getter(obj)))
        for name, convert in encoders:
            value = data[name]
            if value is not None:
                data[name] = convert(value)
        return data

    def decode(data):
        if type(data) is not dict:
            raise SpecError(f"{owner} expects a dict, got {type(data).__name__}")
        if not data.keys() <= known:
            unknown = sorted(data.keys() - known, key=str)
            raise SpecError(
                f"unknown field{'s' if len(unknown) > 1 else ''} "
                f"{', '.join(map(repr, unknown))} for {owner}; accepted: {sorted(known)}"
            )
        if not required <= data.keys():
            missing = sorted(required - data.keys())
            raise SpecError(
                f"missing required field{'s' if len(missing) > 1 else ''} "
                f"{', '.join(map(repr, missing))} for {owner}"
            )
        if not all(map(operator.contains, map(checks.__getitem__, data), map(type, data.values()))):
            key = next(key for key, value in data.items() if type(value) not in checks[key])
            raise _mistyped(f"{owner}.{key}", _describe(hints[key]), data[key])
        kwargs = dict(data)
        for key, convert in converters:
            if key in kwargs:
                kwargs[key] = convert(kwargs[key])
        return cls(**kwargs)

    return _Plan(encode, decode, required)


def _describe(hint) -> str:
    """How an error message names what a hint accepts."""
    if isinstance(hint, dataclasses.InitVar):
        hint = hint.type
    if hint in _SCALARS:
        return _SCALARS[hint][1]
    if hint is _NONE:
        return "null"
    if dataclasses.is_dataclass(hint):
        return f"a {hint.__name__} dict"
    origin = typing.get_origin(hint)
    if origin is typing.Union:
        return " or ".join(_describe(arg) for arg in typing.get_args(hint))
    return {list: "a list", tuple: "a list", dict: "a dict"}.get(origin, "any JSON value")


# ----------------------------------------------------------------------
# Codecs of field types
# ----------------------------------------------------------------------
class _Codec:
    """How the values of one type hint cross the wire, singly or in bulk.

    ``types`` is set for a scalar hint, whose values need only a type
    check.  ``encode``/``decode`` convert one value and are None where
    that is the identity; ``encode_many``/``decode_many`` convert an
    iterable of values at once, which is how containers of scalars get
    checked and copied by C loops instead of element by element.
    """

    __slots__ = ("types", "encode", "encode_many", "decode", "decode_many")

    def __init__(
        self, types=None, encode=None, encode_many=None, decode=None, decode_many=None
    ) -> None:
        self.types = types
        self.encode = encode
        self.encode_many = encode_many
        if encode is not None and encode_many is None:
            self.encode_many = lambda values: map(encode, values)
        self.decode = decode
        self.decode_many = decode_many
        if decode_many is None:
            self.decode_many = list if decode is None else lambda values: list(map(decode, values))


def _codec(hint, where: str) -> _Codec:
    """Compile the codec of one type hint (``where`` names it in errors)."""
    if hint in _SCALARS:
        return _scalar_codec(_SCALARS[hint][0], where, _SCALARS[hint][1])
    if hint is object or hint is Any:
        return _Codec()
    if dataclasses.is_dataclass(hint):
        return _dataclass_codec(hint, where)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return _union_codec(args, where)
    if origin is list:
        return _sequence_codec(args[0], list, where, None)
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return _sequence_codec(args[0], tuple, where, None)
        if len(set(args)) != 1:
            raise TypeError(f"{where}: the codec handles homogeneous tuples only, not {hint}")
        return _sequence_codec(args[0], tuple, where, len(args))
    if origin is dict:
        return _dict_codec(args[0], args[1], where)
    raise TypeError(f"{where}: the codec cannot serialize type {hint!r}")


def _scalar_codec(types: FrozenSet[type], where: str, expected: str) -> _Codec:
    def decode_many(values):
        values = list(values)
        if not types.issuperset(map(type, values)):
            raise _mistyped(where, expected, next(v for v in values if type(v) not in types))
        return values

    return _Codec(types=types, decode_many=decode_many)


def _dataclass_codec(cls: Any, where: str) -> _Codec:
    plan = _plan(cls)
    expected = _describe(cls)

    def decode(value):
        if type(value) is cls:
            return value  # already decoded
        if type(value) is not dict:
            raise _mistyped(where, expected, value)
        return plan.decode(value)

    return _Codec(encode=plan.encode, decode=decode)


def _union_codec(args, where: str) -> _Codec:
    types: FrozenSet[type] = frozenset({_NONE}) if _NONE in args else frozenset()
    classes = []
    others = []
    for arg in args:
        if arg in _SCALARS:
            types |= _SCALARS[arg][0]
        elif dataclasses.is_dataclass(arg):
            classes.append(arg)
        elif arg is not _NONE:
            others.append(arg)
    expected = " or ".join(_describe(arg) for arg in args)
    if others:
        # Optional[container]: None, or whatever the one container accepts.
        if classes or len(others) > 1 or types != {_NONE}:
            raise TypeError(f"{where}: the codec cannot tell apart the members of {args}")
        inner = _codec(others[0], where)

        def decode_optional(value):
            return None if value is None else inner.decode(value)

        return _Codec(encode=inner.encode, decode=decode_optional)
    if not classes:
        return _scalar_codec(types, where, expected)

    # Dataclass members: a dict goes to the first member whose required
    # fields it carries (a TopologySpec has positions, a TopologyRef not).
    plans = [_plan(cls) for cls in classes]

    def encode_member(value):
        return _plan(type(value)).encode(value) if type(value) in classes else value

    def decode_member(value):
        if type(value) in types or type(value) in classes:
            return value
        if type(value) is not dict:
            raise _mistyped(where, expected, value)
        for plan in plans:
            if plan.required <= value.keys():
                return plan.decode(value)
        return plans[0].decode(value)  # raises: names the missing field

    return _Codec(encode=encode_member, decode=decode_member)


def _sequence_codec(element_hint, kind: type, where: str, length: Optional[int]) -> _Codec:
    element = _codec(element_hint, f"{where}[]")
    types = element.types
    expected = f"a list, each item {_describe(element_hint)}"
    if length is not None:
        expected = f"a list of {length} items, each {_describe(element_hint)}"

    def bad(value) -> bool:
        if type(value) is not list or (length is not None and len(value) != length):
            return True
        return types is not None and not types.issuperset(map(type, value))

    if element.decode is None:
        # Scalars (or any JSON value): one bulk check over every element.
        def decode_many(values):
            values = list(values)
            if (
                set(map(type, values)) - _LIST
                or (length is not None and set(map(len, values)) - {length})
                or (types is not None and not types.issuperset(map(type, chain(*values))))
            ):
                raise _mistyped(where, expected, next(filter(bad, values)))
            return list(map(kind, values))

        return _Codec(
            encode=list,
            encode_many=lambda values: map(list, values),
            decode=lambda value: decode_many((value,))[0],
            decode_many=decode_many,
        )

    encode_elements = element.encode_many

    def decode(value):
        if bad(value):
            raise _mistyped(where, expected, value)
        return kind(element.decode_many(value))

    return _Codec(encode=lambda value: list(encode_elements(value)), decode=decode)


def _dict_codec(key_hint, value_hint, where: str) -> _Codec:
    encode_keys, decode_keys = _key_codec(key_hint, where)
    value = _codec(value_hint, f"{where}{{}}")
    expected = "a dict" if value.types is None else f"a dict, each value {_describe(value_hint)}"
    passthrough = decode_keys is None and value.types is None and value.decode is None

    def decode(data):
        if type(data) is not dict or not _STR.issuperset(map(type, data)):
            raise _mistyped(where, expected, data)
        if passthrough:
            return dict(data)
        keys = data.keys() if decode_keys is None else decode_keys(data)
        return dict(zip(keys, value.decode_many(data.values())))

    encode_values = value.encode_many
    if encode_keys is None and encode_values is None:
        return _Codec(encode=dict, decode=decode)

    def encode(data):
        keys = data.keys() if encode_keys is None else encode_keys(data)
        values = data.values() if encode_values is None else encode_values(data.values())
        return dict(zip(keys, values))

    return _Codec(encode=encode, decode=decode)


def _key_codec(key, where: str) -> Tuple[Optional[Callable], Optional[Callable]]:
    """Bulk (encoder, decoder) of dict keys: text as is, ints and int tuples as text."""
    if key is str:
        return None, None
    if key is int:

        def decode_ints(keys: Iterable[str]):
            if not all(map(str.isdecimal, keys)):
                raise SpecError(f"{where} keys must be integers, got {sorted(keys)}")
            return map(int, keys)

        return (lambda keys: map(str, keys)), decode_ints
    parts = len(typing.get_args(key))
    if typing.get_origin(key) is not tuple or set(typing.get_args(key)) != {int}:
        raise TypeError(f"{where}: the codec cannot serialize dict keys of type {key!r}")

    def decode_tuples(keys: Iterable[str]):
        pieces = [text.split("-") for text in keys]
        if set(map(len, pieces)) - {parts} or not all(map(str.isdecimal, chain(*pieces))):
            form = "-".join(["<int>"] * parts)
            raise SpecError(f"{where} keys must read {form}, got {sorted(keys)}")
        return [tuple(map(int, piece)) for piece in pieces]

    return (lambda keys: ["-".join(map(str, k)) for k in keys]), decode_tuples
