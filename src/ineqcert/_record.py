"""Value records built at import without generated code (see `Record`)."""

from operator import attrgetter


class Record:
    """A subclass lists its fields as annotations, its base's after its own,
    each with an optional class-level default (a list or dict one is copied
    for each instance).  They drive `__init__` (positional or keyword), `repr`,
    `replace`, a refusing `__setattr__`, and `==` and `hash` over the class
    and each field not in `_uncompared`."""

    _fields, _defaults, _uncompared = (), {}, ()

    def __init_subclass__(cls):
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = (*own, *cls._fields)
        cls._defaults = {**cls._defaults,
                         **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}
        cls._key = attrgetter("__class__", *(n for n in cls._fields
                                              if n not in cls._uncompared))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        # field by field, not through `__dict__`, which once made slows every read
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _bind(cls, args, kwargs) -> tuple:
        """The field values in order, from a call's arguments and the defaults."""
        given = {**dict(zip(cls._fields, args)), **kwargs}
        values = {n: v.copy() if type(v) in (list, dict) else v
                  for n, v in cls._defaults.items() if n not in given} | given
        if len(given) != len(args) + len(kwargs) or values.keys() != set(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {cls._fields}, "
                            f"got {args} {kwargs}")
        return tuple(values[n] for n in cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} cannot change")

    __delattr__ = __setattr__

    def replace(self, **changes):
        """A copy with the named fields changed."""
        return type(self)(**{n: getattr(self, n) for n in self._fields} | changes)
