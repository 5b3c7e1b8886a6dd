"""Shared exception types, and ``Frozen``, the value types' base, whose assignments raise one."""


class UserError(Exception):
    """Bad input: malformed config, non-primary ideal, out-of-range argument."""


class ParseError(UserError):
    """Polynomial or config syntax error, with position information."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class NotPrimaryError(UserError):
    """The ideal is not primary to the irrelevant ideal."""


class InternalError(AssertionError):
    """An internal consistency check failed; indicates a bug."""


class Frozen:
    """Immutable record in plain code: equality, hash and repr, read from ``__slots__``."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values()

    def __setattr__(self, name, value, verb="assign to"):
        from dataclasses import FrozenInstanceError  # imported on this error path only

        raise FrozenInstanceError(f"cannot {verb} field {name!r}")

    def __delattr__(self, name):
        self.__setattr__(name, None, "delete")
