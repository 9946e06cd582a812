"""The base of emsim's checked records: the NamedTuple subclasses whose
_check method checks their fields (GenSpec, CacheConfig, SimConfig and the
em_models parameter records), the ConfigError their checks raise, and the
integer check they share."""


class ConfigError(ValueError):
    """Invalid generator spec or run configuration."""


class Checked:
    """Base of the checked records, class R(Checked, _R). R defines
    _check(self), which raises on a bad field; the constructor, _make and
    so _replace build the tuple through NamedTuple and then call it."""

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


def check_integers(record: tuple, *fields: str) -> None:
    """Raise ConfigError unless each field of record is an int, not a bool."""
    for field in fields:
        value = getattr(record, field)
        if type(value) is not int:
            raise ConfigError(f"{field} must be an integer, got {value!r}")
