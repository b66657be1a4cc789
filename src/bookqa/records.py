"""Frozen records: what this package used ``@dataclass(frozen=True)`` for.

Every stage runs as its own process.  Importing ``dataclasses`` loads
``inspect``, ``ast`` and ``dis``, and each decorated class then compiles its
generated methods, so together they cost a stage process more start-up than
some stages' own work at benchmark size.  ``record`` installs the same
methods as plain closures over the class's field names instead; nothing is
generated or compiled.
"""

from __future__ import annotations

from operator import attrgetter


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields, in order.

    As ``@dataclass(frozen=True)`` does for the classes of this package:
    ``__init__`` takes the fields by position or keyword, fills omitted ones
    from class-level defaults, then calls ``__post_init__`` if the class has
    one (looked up on the instance at each call, so a patched method runs);
    ``__eq__`` (same class only), ``__hash__`` and ``__repr__`` use the
    fields in order; assigning or deleting any attribute raises
    ``AttributeError``.  Fields of base classes are not collected.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    n = len(names)
    has_post_init = hasattr(cls, "__post_init__")
    qualname = f"{cls.__qualname__}.__init__"
    setattr_ = object.__setattr__

    def bind(args: tuple, kwargs: dict) -> tuple:
        """The field values for ``args`` and ``kwargs``, or the ``TypeError``
        a function with the fields as parameters would raise."""
        # In the order CPython checks: keywords, then the positional count.
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{qualname}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{qualname}() got multiple values for argument {name!r}")
            values[name] = value
        if len(args) > n:
            required = n - len(defaults)
            takes = (
                f"from {required + 1} to {n + 1} positional arguments"
                if defaults
                else f"{n + 1} positional argument{'s' if n else ''}"
            )
            raise TypeError(f"{qualname}() takes {takes} but {len(args) + 1} were given")
        missing = [repr(name) for name in names if name not in values and name not in defaults]
        if missing:
            listed = (
                " and ".join(missing)
                if len(missing) <= 2
                else f"{', '.join(missing[:-1])}, and {missing[-1]}"
            )
            plural = "s" if len(missing) > 1 else ""
            raise TypeError(
                f"{qualname}() missing {len(missing)} required positional "
                f"argument{plural}: {listed}"
            )
        return tuple(values[name] if name in values else defaults[name] for name in names)

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            setattr_(self, name, value)
        if has_post_init:
            self.__post_init__()

    get = attrgetter(*names)
    key = get if n > 1 else lambda self: (get(self),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
