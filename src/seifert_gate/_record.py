"""Immutable value records: the base of the package's result types.

Fields are the class annotations; __post_init__ may check them and set those
named in _derived.  ==, hash and repr skip the fields named in _uncompared.
Frozen dataclasses would do the same but add about 16 ms to every process start.
"""


class Record:
    _derived = _uncompared = ()

    def __init_subclass__(cls) -> None:
        names = tuple(cls.__annotations__)
        cls._fields = tuple(n for n in names if n not in cls._derived)
        cls._field_set = frozenset(cls._fields)
        cls._compared = tuple(n for n in names if n not in cls._uncompared)

    def __init__(self, *args: object, **kwargs: object) -> None:
        if args:  # dict() refuses a field given both ways
            kwargs = dict(**dict(zip(self._fields, args)), **kwargs)
        if kwargs.keys() != self._field_set or (args and len(args) > len(self._fields)):
            raise TypeError(f"{type(self).__name__}{self._fields} got {len(args)} by position, {tuple(kwargs)} in all")
        self.__dict__.update(kwargs)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete {name!r} of an immutable {type(self).__name__}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._compared))

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._compared, self._key()))
        return f"{type(self).__qualname__}({fields})"
