"""The write-once base of every record class in the package.

A record's ``__init__``, written in its own module, validates its inputs
and sets each attribute once; setting one a second time, or deleting one,
raises AttributeError.  The guard looks in the instance's ``__dict__``, not
through ``hasattr``, which would run a cached property; a
``functools.cached_property`` stores its value in ``__dict__`` itself, so
it fills once and is guarded from then on.  No method is generated: a
record compares by identity and has the default repr, and the arrays it
holds are read-only (``read_only``).
"""

_DELETED = object()     # the value __delattr__ passes, which it never stores


class Record:
    def __setattr__(self, name: str, value=_DELETED) -> None:
        attrs = self.__dict__
        if value is _DELETED or name in attrs:
            raise AttributeError(f"{type(self).__name__}.{name} is set once and never "
                                 f"changed")
        attrs[name] = value

    __delattr__ = __setattr__


def read_only(arr):
    """``arr`` itself, made read-only, for a record to hold."""
    arr.setflags(write=False)
    return arr
