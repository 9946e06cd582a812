"""emsim's checked records: the checked decorator, which makes a NamedTuple
whose _check method checks its fields (GenSpec, CacheConfig, SimConfig and
the em_models parameter records) check on every construction, the
ConfigError their checks raise, and the integer check they share."""


class ConfigError(ValueError):
    """Invalid generator spec or run configuration."""


class Checked:
    """Base of the checked records, which checked puts first. The record
    defines _check(self), which raises on a bad field; the constructor,
    _make and so _replace build the tuple through NamedTuple and then call it."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        self = super()._make(iterable)
        self._check()
        return self


def checked(record: type) -> type:
    """Class decorator of a NamedTuple that defines _check: its __slots__ = ()
    subclass that lists Checked first, under the NamedTuple's name, module
    (so that pickle finds it) and docstring."""
    return type(record.__name__, (Checked, record), {
        "__slots__": (), "__module__": record.__module__,
        "__qualname__": record.__qualname__, "__doc__": record.__doc__})


def check_integers(record: tuple, *fields: str) -> None:
    """Raise ConfigError unless each field of record is an int, not a bool."""
    for field in fields:
        value = getattr(record, field)
        if type(value) is not int:
            raise ConfigError(f"{field} must be an integer, got {value!r}")
