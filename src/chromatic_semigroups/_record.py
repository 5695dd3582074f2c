"""Frozen record classes for the package's result types.

`record` gives a class the behaviour of `dataclasses.dataclass(frozen=True)`
without generating code: the fields are the class's annotations, in order,
and a class attribute of the same name is a field's default.  The methods
are closures over the field names, so a record class costs no `exec`, and
the package imports neither `dataclasses` nor `inspect`, which were most of
a CLI job's import time.
"""

from operator import attrgetter


def record(cls):
    """Install __init__ (positional or keyword, then `__post_init__` if the
    class has one), the dataclass __repr__, same-class __eq__, __hash__,
    refusing __setattr__/__delattr__ and __match_args__ on `cls`."""
    # read through the class, not its __dict__: with lazily evaluated
    # annotations (PEP 649, CPython 3.14) the dict holds only __annotate__
    # until the first read
    names = tuple(cls.__annotations__)
    defaults = {k: cls.__dict__[k] for k in names if k in cls.__dict__}
    n = len(names)
    key = attrgetter(*names)
    if n == 1:  # attrgetter of one name returns the bare value
        key = lambda self, one=key: (one(self),)
    post = getattr(cls, "__post_init__", None)

    def bind(args, kwargs):
        if len(args) > n:
            raise TypeError(f"{cls.__name__}() takes {n} arguments, "
                            f"got {len(args)}")
        values = dict(zip(names, args))
        for k in kwargs:
            if k not in names or k in values:
                raise TypeError(f"{cls.__name__}() got an unknown or "
                                f"doubled argument {k!r}")
        values.update(kwargs)
        missing = [k for k in names if k not in values and k not in defaults]
        if missing:
            raise TypeError(f"{cls.__name__}() missing arguments: "
                            f"{', '.join(missing)}")
        return [values[k] if k in values else defaults[k] for k in names]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        if post is not None:
            post(self)

    def __repr__(self):
        body = ", ".join(f"{k}={v!r}" for k, v in zip(names, key(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for fn in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        setattr(cls, fn.__name__, fn)
    cls.__match_args__ = names
    return cls
