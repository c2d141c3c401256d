"""Slotted immutable records: the part of @dataclass(frozen=True) that
monobound uses, without importing `dataclasses`.

A record class declares its fields as annotated names in its body, as a
dataclass does, and a value given to a field is its default.  The fields
become the class's __slots__, so a record has no __dict__.  Importing
`dataclasses` loads inspect, ast, dis and tokenize (about 8-10 ms of
every CLI process), and each dataclass compiles its own generated
methods (about 1 ms more); this module has one generic set of methods.
Record modules use `from __future__ import annotations`, so a field's
annotation is a string that is never evaluated.
"""


class _RecordType(type):
    """Turns a record's annotated names into its __slots__, and the
    values given to them into its defaults."""

    def __new__(mcs, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        namespace["__slots__"] = namespace["__match_args__"] = fields
        namespace["_defaults"] = {f: namespace.pop(f) for f in fields if f in namespace}
        return super().__new__(mcs, name, bases, namespace)


class Record(metaclass=_RecordType):
    """Construction by position or keyword, _check() after every
    construction, field-wise == only within one class with a matching
    hash, no assignment or deletion, and a dataclass-style repr."""

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes at most {len(fields)} "
                            f"positional arguments, got {len(args)}")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in cls._defaults:
                value = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated "
                            f"argument {next(iter(kwargs))!r}")
        self._check()

    def _check(self) -> None:
        """Validation run by every construction; records override it."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, so _check runs again
        return type(self), self._values()
