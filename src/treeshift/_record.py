"""``record``: value classes whose methods are closures shared by every class,
where ``dataclasses`` compiles source for each (most of the import time).
A record's fields are its annotated names, in order; a class-level value or
a `field` makes one optional."""

from operator import attrgetter


class field:
    """A field whose default is ``default_factory()``, made afresh per instance."""

    def __init__(self, *, default_factory):
        self.make = default_factory


def _refuse(self, name, *value):
    from dataclasses import FrozenInstanceError  # the public type, loaded only here
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def record(cls=None, *, frozen=False):
    """``@record`` or ``@record(frozen=True)``: gives ``cls`` the methods it does
    not define of ``__init__`` (``__post_init__`` runs last), ``__repr__``,
    ``__eq__`` (same class, equal fields), ``__match_args__`` and ``__hash__``
    of the fields (None if mutable); frozen records refuse changes."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    names, name = tuple(cls.__annotations__), cls.__qualname__
    defaults = {n: vars(cls)[n] for n in names if n in vars(cls)}
    for n in [n for n, d in defaults.items() if isinstance(d, field)]:
        delattr(cls, n)
    values = attrgetter(*names) if len(names) > 1 else lambda self: (getattr(self, names[0]),)
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):  # bind the call as __init__(self, *names) would
            args = list(args)
            for n in names[len(args):]:
                if n in kwargs:
                    args.append(kwargs.pop(n))
                elif n in defaults:
                    args.append(d.make() if isinstance(d := defaults[n], field) else d)
                else:
                    raise TypeError(f"{name}() missing required argument {n!r}")
            if kwargs or len(args) > len(names):
                raise TypeError(f"{name}() takes the arguments {names}; left over: "
                                f"{len(args) - len(names)} positional, keywords {list(kwargs)}")
        for n, value in zip(names, args):  # not __dict__.update: attributes stay inline
            object.__setattr__(self, n, value)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return values(self) == values(other) if same else NotImplemented

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, names, values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    methods = dict(__init__=__init__, __eq__=__eq__, __repr__=__repr__, __match_args__=names,
                   __hash__=(lambda self: hash(values(self))) if frozen else None,
                   **(dict(__setattr__=_refuse, __delattr__=_refuse) if frozen else {}))
    for n, method in methods.items():
        if n not in vars(cls):
            setattr(cls, n, method)
    return cls
