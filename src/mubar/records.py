"""Immutable value records.

``frozen_record`` turns a class whose body annotates its fields into an
immutable record: fields in annotation order, the annotated value (if
any) as the default, construction by position or keyword, an optional
``__post_init__`` check, equality and hashing by the field tuple, and
``Name(field=value, ...)`` as the repr.  A method the class body defines
itself is kept.  Assigning or deleting an attribute raises
AttributeError; ``object.__setattr__`` still works for private caches.

The standard library's frozen dataclasses do the same, but importing
``dataclasses`` and compiling each class's generated methods costs more
start-up than any short CLI invocation spends on its own work.
"""

from __future__ import annotations


def frozen_record(cls):
    names = tuple(cls.__annotations__)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__name__}() takes {len(names)} arguments but "
                f"{len(args)} were given"
            )
        values = dict(zip(names, args))
        for n in names[len(args):]:
            if n in kwargs:
                values[n] = kwargs.pop(n)
            elif n in defaults:
                values[n] = defaults[n]
            else:
                raise TypeError(f"{cls.__name__}() missing argument {n!r}")
        if kwargs:
            raise TypeError(
                f"{cls.__name__}() got unexpected or repeated arguments "
                f"{sorted(kwargs)}"
            )
        for n, v in values.items():
            object.__setattr__(self, n, v)
        if post_init is not None:
            post_init(self)

    def _fields(self):
        return tuple(getattr(self, n) for n in names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _fields(self) == _fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(_fields(self))

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        # an __eq__ in the body sets __hash__ to None, which is not a definition
        if cls.__dict__.get(method.__name__) is None:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    return cls
