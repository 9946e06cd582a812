"""The base of emsim's checked records: the NamedTuple subclasses whose
__new__ checks their fields (GenSpec, CacheConfig, SimConfig and the
em_models parameter records)."""


class Checked:
    """Base of the checked records, class R(Checked, _R), whose __new__
    checks the fields: NamedTuple's _make, which _replace calls, skips
    __new__; this one goes through it."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        values = tuple(iterable)
        if len(values) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(values)}")
        return cls(*values)
