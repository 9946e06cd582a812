"""The record types: repr text, construction by position and by keyword,
defaults, equality and hash, refusal of assignment, and every check of the
checked records with the exception type and message it raises. Trace:
fresh empty columns by default, and equality by its columns and cycle count."""

import copy
import importlib
import math
import pickle
import pkgutil
import sys
from array import array
from typing import NamedTuple

import pytest

import emsim
from emsim.cache import CacheConfig
from emsim.em_models import RmsLimit, SignalElectricals, TechParams, WireGeometry
from emsim.records import Checked
from emsim.simulate import SimConfig
from emsim.wear_stats import StructureReport, WriteHistogram
from emsim.workload import (
    AluBursts,
    AluIssue,
    ConfigError,
    Event,
    GenSpec,
    MemAccess,
    RegWrite,
    SkewedAddrs,
    Trace,
    ZipfRegWrites,
)

HIST = WriteHistogram((1, 2, 3, 4, 5), 9, 2.5, 15)
HIST_TEXT = "WriteHistogram(bins=(1, 2, 3, 4, 5), max_writes=9, avg_writes=2.5, num_entries=15)"
ZIPF = ZipfRegWrites(4, 1.0)

# class, every field's value in field order, repr text, one field changed
RECORDS = [
    (AluIssue, {"ready_count": 3}, "AluIssue(ready_count=3)", {"ready_count": 4}),
    (RegWrite, {"reg_class": "GPR", "arch_id": 5},
     "RegWrite(reg_class='GPR', arch_id=5)", {"arch_id": 6}),
    (MemAccess, {"kind": "READ", "address": 64, "space": "DATA"},
     "MemAccess(kind='READ', address=64, space='DATA')", {"space": "INSTR"}),
    (Event, {"cycle": 3, "payload": AluIssue(2)},
     "Event(cycle=3, payload=AluIssue(ready_count=2))", {"cycle": 4}),
    (ZipfRegWrites, {"num_regs": 16, "zipf_s": 1.2},
     "ZipfRegWrites(num_regs=16, zipf_s=1.2)", {"zipf_s": 1.3}),
    (SkewedAddrs, {"working_set_lines": 8, "hot_fraction": 0.5, "hot_weight": 2.0,
                   "line_bytes": 32},
     "SkewedAddrs(working_set_lines=8, hot_fraction=0.5, hot_weight=2.0, line_bytes=32)",
     {"hot_weight": 3.0}),
    (AluBursts, {"max_width": 2, "width_distribution": (1.0, 2.0, 0.5)},
     "AluBursts(max_width=2, width_distribution=(1.0, 2.0, 0.5))",
     {"width_distribution": (1.0, 2.0, 0.25)}),
    (WriteHistogram, {"bins": (1, 2, 3, 4, 5), "max_writes": 9, "avg_writes": 2.5,
                      "num_entries": 15}, HIST_TEXT, {"avg_writes": 2.0}),
    (StructureReport, {"structure": "alu", "num_entries": 3, "histogram_baseline": HIST,
                       "histogram_aware": HIST, "avg_to_max_baseline": 0.5,
                       "avg_to_max_aware": 0.25, "mtf_improvement": 1.0,
                       "counts_baseline": (1, 2, 3), "counts_aware": (2, 2, 2)},
     f"StructureReport(structure='alu', num_entries=3, histogram_baseline={HIST_TEXT}, "
     f"histogram_aware={HIST_TEXT}, avg_to_max_baseline=0.5, avg_to_max_aware=0.25, "
     f"mtf_improvement=1.0, counts_baseline=(1, 2, 3), counts_aware=(2, 2, 2))",
     {"counts_aware": (2, 2, 3)}),
    (GenSpec, {"seed": 1, "length": 10, "kind": SkewedAddrs(8, 0.5, 2.0)},
     "GenSpec(seed=1, length=10, kind=SkewedAddrs(working_set_lines=8, hot_fraction=0.5, "
     "hot_weight=2.0, line_bytes=64))", {"length": 11}),
    (CacheConfig, {"name": "L1", "sets": 64, "ways": 8, "line_bytes": 64,
                   "rotation_period": 100, "write_allocate": False},
     "CacheConfig(name='L1', sets=64, ways=8, line_bytes=64, rotation_period=100, "
     "write_allocate=False)", {"ways": 4}),
    (SimConfig, {"structures": ("alu", "cache"), "alu_units": 4,
                 "alu_policy": "counter-rotate", "regfile_preset": "fp32",
                 "rotation_period": 500, "count_rotation_shifts": True,
                 "cache_overrides": None, "charge_rotation_writebacks": False},
     "SimConfig(structures=('alu', 'cache'), alu_units=4, alu_policy='counter-rotate', "
     "regfile_preset='fp32', rotation_period=500, count_rotation_shifts=True, "
     "cache_overrides=None, charge_rotation_writebacks=False)", {"alu_units": 5}),
    (TechParams, {"scale_A": 2.0, "exponent_n": 1.5, "activation_energy_ea": 0.7,
                  "temperature_t": 350.0},
     "TechParams(scale_A=2.0, exponent_n=1.5, activation_energy_ea=0.7, temperature_t=350.0)",
     {"temperature_t": 351.0}),
    (WireGeometry, {"width_w": 1e-7, "height_h": 2e-7},
     "WireGeometry(width_w=1e-07, height_h=2e-07)", {"height_h": 3e-7}),
    (SignalElectricals, {"capacitance_c": 1e-15, "supply_vdd": 1.1, "frequency_f": 3e9,
                         "toggle_p": 0.25, "rise_tr": 2e-11, "fall_tf": 3e-11},
     "SignalElectricals(capacitance_c=1e-15, supply_vdd=1.1, frequency_f=3000000000.0, "
     "toggle_p=0.25, rise_tr=2e-11, fall_tf=3e-11)", {"toggle_p": 0.5}),
    (RmsLimit, {"i_rms_max": 2e-3, "mtf_technology": 7.0},
     "RmsLimit(i_rms_max=0.002, mtf_technology=7.0)", {"i_rms_max": 1e-3}),
]
RECORD_IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls,fields,text,changed", RECORDS, ids=RECORD_IDS)
def test_repr(cls, fields, text, changed):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls,fields,text,changed", RECORDS, ids=RECORD_IDS)
def test_positional_and_keyword_construction_agree(cls, fields, text, changed):
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert by_position == by_keyword
    assert {name: getattr(by_position, name) for name in fields} == fields


@pytest.mark.parametrize("cls,fields,text,changed", RECORDS, ids=RECORD_IDS)
def test_equal_records_hash_alike_and_one_changed_field_differs(cls, fields, text, changed):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    other = cls(**{**fields, **changed})
    assert other != a and not other == a


@pytest.mark.parametrize("cls,fields,text,changed", RECORDS, ids=RECORD_IDS)
def test_assignment_raises_attribute_error(cls, fields, text, changed):
    record = cls(**fields)
    (name, value), = changed.items()
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    assert getattr(record, name) == fields[name]


def test_generator_kinds_keep_their_kind_name():
    assert (ZipfRegWrites.KIND, SkewedAddrs.KIND, AluBursts.KIND) == (
        "zipf-reg-writes", "skewed-addrs", "alu-bursts")
    assert ZIPF.KIND == "zipf-reg-writes"


# class, the required fields, every default
DEFAULTS = [
    (SkewedAddrs, {"working_set_lines": 8, "hot_fraction": 0.5, "hot_weight": 2.0},
     {"line_bytes": 64}),
    (StructureReport, {"structure": "alu", "num_entries": 3, "histogram_baseline": HIST,
                       "histogram_aware": HIST, "avg_to_max_baseline": 0.5,
                       "avg_to_max_aware": 0.25, "mtf_improvement": 1.0},
     {"counts_baseline": None, "counts_aware": None}),
    (CacheConfig, {"name": "L1", "sets": 64, "ways": 8, "line_bytes": 64},
     {"rotation_period": None, "write_allocate": True}),
    (SimConfig, {}, {"structures": ("alu", "regfile", "cache"), "alu_units": 3,
                     "alu_policy": "toggle-balance", "regfile_preset": "gpr16",
                     "rotation_period": 10_000_000, "count_rotation_shifts": False,
                     "cache_overrides": None, "charge_rotation_writebacks": True}),
    (TechParams, {}, {"scale_A": 1.0, "exponent_n": 2.0, "activation_energy_ea": 0.0,
                      "temperature_t": 378.15}),
    (SignalElectricals, {"capacitance_c": 1e-15, "supply_vdd": 1.1, "frequency_f": 3e9,
                         "toggle_p": 0.25}, {"rise_tr": 1e-10, "fall_tf": 1e-10}),
    (RmsLimit, {"i_rms_max": 2e-3}, {"mtf_technology": 10.0}),
]


@pytest.mark.parametrize("cls,required,defaults", DEFAULTS,
                         ids=[cls.__name__ for cls, *_ in DEFAULTS])
def test_defaults(cls, required, defaults):
    record = cls(**required)
    assert {name: getattr(record, name) for name in defaults} == defaults
    assert record == cls(*required.values(), *defaults.values())


def _spec(**kw):
    return lambda: GenSpec(**{"seed": 1, "length": 10, "kind": ZIPF, **kw})


def _kind(kind):
    return _spec(kind=kind)


def _cache(**kw):
    return lambda: CacheConfig(**{"name": "L1", "sets": 64, "ways": 8, "line_bytes": 64, **kw})


def _sim(**kw):
    return lambda: SimConfig(**kw)


def _tech(**kw):
    return lambda: TechParams(**kw)


def _signal(**kw):
    return lambda: SignalElectricals(**{"capacitance_c": 1e-15, "supply_vdd": 1.1,
                                        "frequency_f": 3e9, "toggle_p": 0.25, **kw})


# one bad value per check: the construction, the exception type, its message
CHECKS = [
    (_spec(seed=-1), ConfigError, "seed must fit in 64 bits"),
    (_spec(seed=1 << 64), ConfigError, "seed must fit in 64 bits"),
    (_spec(length=-1), ConfigError, "length must be >= 0"),
    (_spec(seed=1.5), ConfigError, "seed must be an integer, got 1.5"),
    (_spec(seed=True), ConfigError, "seed must be an integer, got True"),
    (_spec(length=2.5), ConfigError, "length must be an integer, got 2.5"),
    (_kind(ZipfRegWrites(4.0, 1.0)), ConfigError, "num_regs must be an integer, got 4.0"),
    (_kind(SkewedAddrs(8.0, 0.5, 2.0)), ConfigError,
     "working_set_lines must be an integer, got 8.0"),
    (_kind(SkewedAddrs(8, 0.5, 2.0, True)), ConfigError,
     "line_bytes must be an integer, got True"),
    (_kind(AluBursts(2.0, (1.0, 1.0, 1.0))), ConfigError,
     "max_width must be an integer, got 2.0"),
    (_kind(ZipfRegWrites(4, "x")), ConfigError, "zipf_s must be a finite number, got 'x'"),
    (_kind(ZipfRegWrites(4, math.inf)), ConfigError, "zipf_s must be a finite number, got inf"),
    (_kind(ZipfRegWrites(4, True)), ConfigError, "zipf_s must be a finite number, got True"),
    (_kind(ZipfRegWrites(4, 1 << 1024)), ConfigError,
     f"zipf_s must be a finite number, got {1 << 1024}"),
    (_kind(SkewedAddrs(8, True, 2.0)), ConfigError,
     "hot_fraction must be a finite number, got True"),
    (_kind(SkewedAddrs(8, 0.5, "2")), ConfigError, "hot_weight must be a finite number, got '2'"),
    (_kind(AluBursts(2, (1, True, 1))), ConfigError,
     "width_distribution must be a list of finite numbers, got (1, True, 1)"),
    (_kind(AluBursts(2, None)), ConfigError,
     "width_distribution must be a list of finite numbers, got None"),
    (_kind(ZipfRegWrites(0, 1.0)), ConfigError, "num_regs must be >= 1"),
    (_kind(ZipfRegWrites((1 << 20) + 1, 1.0)), ConfigError, "num_regs must be <= 1048576"),
    (_kind(ZipfRegWrites(4, 0.0)), ConfigError, "zipf_s must be > 0"),
    (_kind(SkewedAddrs(0, 0.5, 2.0)), ConfigError, "working_set_lines must be >= 1"),
    (_kind(SkewedAddrs((1 << 20) + 1, 0.5, 2.0)), ConfigError,
     "working_set_lines must be <= 1048576"),
    (_kind(SkewedAddrs(8, 0.0, 2.0)), ConfigError, "hot_fraction must be in (0, 1]"),
    (_kind(SkewedAddrs(8, 0.5, 0.5)), ConfigError, "hot_weight must be >= 1"),
    (_kind(SkewedAddrs(8, 0.5, 2.0, 0)), ConfigError, "line_bytes must be >= 1"),
    (_kind(AluBursts(0, (1.0,))), ConfigError, "max_width must be >= 1"),
    (_kind(AluBursts(2, (1.0, 1.0))), ConfigError,
     "width_distribution needs max_width + 1 weights"),
    (_kind(AluBursts(1, (1.0, -1.0))), ConfigError, "width weights must be non-negative"),
    (_kind(AluBursts(1, (0.0, 0.0))), ConfigError, "width weights must not all be zero"),
    (_kind(AluBursts(2, (1e308, 1e308, 1e308))), ConfigError,
     "alu-bursts weights must have a finite total above 2**-1022, got inf"),
    (_kind(SkewedAddrs(4, 1.0, 1e308)), ConfigError,
     "skewed-addrs weights must have a finite total above 2**-1022, got inf"),
    (_kind(AluBursts(1, (0.0, 5e-324))), ConfigError,
     "alu-bursts weights must have a finite total above 2**-1022, got 5e-324"),
    (_kind(AluBursts(1, (2.0 ** -1023, 2.0 ** -1023))), ConfigError,
     "alu-bursts weights must have a finite total above 2**-1022, got 2.2250738585072014e-308"),
    (_kind("zipf"), ConfigError, "unknown generator kind 'zipf'"),
    (_cache(sets="4"), ConfigError, "L1: sets must be an integer, got '4'"),
    (_cache(ways=2.0), ConfigError, "L1: ways must be an integer, got 2.0"),
    (_cache(line_bytes=None), ConfigError, "L1: line_bytes must be an integer, got None"),
    (_cache(rotation_period=1.5), ConfigError, "L1: rotation_period must be an integer, got 1.5"),
    (_cache(write_allocate=1), ConfigError, "L1: write_allocate must be a boolean, got 1"),
    (_cache(sets=3), ConfigError, "L1: sets must be a power of two, got 3"),
    (_cache(sets=1 << 21), ConfigError, "L1: sets must be <= 1048576, got 2097152"),
    (_cache(line_bytes=48), ConfigError, "L1: line_bytes must be a power of two"),
    (_cache(ways=0), ConfigError, "L1: ways must be >= 1"),
    (_cache(sets=1 << 20, ways=17), ConfigError,
     "L1: sets * ways must be <= 16777216, got 17825792"),
    (_cache(rotation_period=0), ConfigError, "L1: rotation_period must be >= 1 or None"),
    (_sim(structures=("alu", "tlb")), ConfigError, "unknown structures: ['tlb']"),
    (_sim(structures=()), ConfigError, "at least one structure must be selected"),
    (_sim(structures=("alu", "alu")), ConfigError,
     "structures must not repeat, got ['alu', 'alu']"),
    (_sim(alu_policy="fixed-priority"), ConfigError,
     "aware ALU policy must be one of ('counter-rotate', 'toggle-balance'), "
     "got 'fixed-priority'"),
    (_sim(regfile_preset="gpr99"), ConfigError,
     "unknown ring preset 'gpr99'; expected one of ('gpr16', 'gpr-flags-sp', 'fp32')"),
    (_sim(rotation_period=None), ConfigError,
     'the aware run needs a finite rotation period; use a per-level "never" to pin '
     'individual cache levels'),
    (_sim(alu_units=2.0), ConfigError, "alu_units must be an integer, got 2.0"),
    (_sim(rotation_period="5"), ConfigError, "rotation_period must be an integer, got '5'"),
    (_sim(alu_units=0), ConfigError, "alu_units must be >= 1"),
    (_sim(alu_units=257), ConfigError, "alu_units must be <= 256"),
    (_sim(rotation_period=0), ConfigError, "rotation_period must be >= 1"),
    (_sim(count_rotation_shifts=1), ConfigError, "count_rotation_shifts must be a boolean"),
    (_sim(charge_rotation_writebacks="yes"), ConfigError,
     "count_rotation_writebacks must be a boolean"),
    (_sim(cache_overrides={"L9": {}}), ConfigError, "unknown hierarchy levels: ['L9']"),
    (_sim(cache_overrides={"L1D": {"sets": 3}}), ConfigError,
     "L1D: sets must be a power of two, got 3"),
    (_tech(scale_A=0.0), ValueError, "scale_A must be > 0"),
    (_tech(exponent_n=-1.0), ValueError, "exponent_n must be > 0"),
    (_tech(activation_energy_ea=-0.1), ValueError, "activation_energy_ea must be >= 0"),
    (_tech(temperature_t=0.0), ValueError, "temperature_t must be > 0 (kelvin)"),
    (lambda: WireGeometry(0.0, 2e-7), ValueError, "wire width and height must be > 0"),
    (lambda: WireGeometry(1e-7, -2e-7), ValueError, "wire width and height must be > 0"),
    (_signal(capacitance_c=-1e-15), ValueError, "capacitance_c must be >= 0"),
    (_signal(supply_vdd=0.0), ValueError, "supply_vdd must be > 0"),
    (_signal(frequency_f=0.0), ValueError, "frequency_f must be > 0"),
    (_signal(toggle_p=1.5), ValueError, "toggle_p must be within [0, 1]"),
    (_signal(rise_tr=0.0), ValueError, "rise/fall times must be > 0"),
    (_signal(fall_tf=-1e-11), ValueError, "rise/fall times must be > 0"),
    (lambda: RmsLimit(0.0), ValueError, "RMS limit fields must be > 0"),
    (lambda: RmsLimit(2e-3, 0.0), ValueError, "RMS limit fields must be > 0"),
]


@pytest.mark.parametrize("build,exc_type,message", CHECKS)
def test_checked_records_reject_bad_values(build, exc_type, message):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert excinfo.type is exc_type
    assert str(excinfo.value) == message


def test_the_size_bounds_themselves_are_legal():
    # built only, never allocated: a 2**20-set, 16-way L3 and the largest tables
    assert CacheConfig("L3", 1 << 20, 16, 64).sets * 16 == 1 << 24
    assert SimConfig(alu_units=256).alu_units == 256
    assert GenSpec(1, 10, ZipfRegWrites(1 << 20, 1.0)).kind.num_regs == 1 << 20
    assert GenSpec(1, 10, SkewedAddrs(1 << 20, 0.5, 2.0)).kind.working_set_lines == 1 << 20
    # an int passes where a float does, up to the largest float
    assert GenSpec(1, 10, ZipfRegWrites(4, int(sys.float_info.max))).kind.zipf_s > 1e308
    assert GenSpec(1, 10, AluBursts(2, [1, 2, 1])).kind.width_distribution == [1, 2, 1]
    # every lowest bound is legal
    assert GenSpec(1, 10, ZipfRegWrites(1, 1.0)).kind.num_regs == 1
    assert GenSpec(1, 10, SkewedAddrs(1, 1.0, 1.0, 1)).kind.line_bytes == 1
    assert GenSpec(1, 10, AluBursts(1, (1.0, 1.0))).kind.max_width == 1
    assert GenSpec(1, 0, ZIPF).length == 0
    cfg = SimConfig(alu_units=1, rotation_period=1)
    assert (cfg.alu_units, cfg.rotation_period) == (1, 1)
    # an open highest bound takes any int, past a float's exact range too
    assert GenSpec(1, 10, SkewedAddrs(8, 0.5, 2.0, 1 << 70)).kind.line_bytes == 1 << 70
    assert SimConfig(rotation_period=1 << 70).rotation_period == 1 << 70
    # fields are checked in order, each for its type, then its bounds: the
    # first field's bound is reported before the second field's type
    with pytest.raises(ConfigError, match=r"^alu_units must be >= 1$"):
        SimConfig(alu_units=0, rotation_period="5")


# a valid checked record, one field made bad, the exception type, its message
REPLACED = [
    (GenSpec(1, 10, ZIPF), {"length": -1}, ConfigError, "length must be >= 0"),
    (CacheConfig("L1", 64, 8, 64), {"sets": 3}, ConfigError,
     "L1: sets must be a power of two, got 3"),
    (SimConfig(), {"alu_units": 0}, ConfigError, "alu_units must be >= 1"),
    (TechParams(), {"temperature_t": 0.0}, ValueError, "temperature_t must be > 0 (kelvin)"),
    (WireGeometry(1e-7, 2e-7), {"height_h": 0.0}, ValueError,
     "wire width and height must be > 0"),
    (SignalElectricals(1e-15, 1.1, 3e9, 0.25), {"toggle_p": 1.5}, ValueError,
     "toggle_p must be within [0, 1]"),
    (RmsLimit(2e-3), {"mtf_technology": 0.0}, ValueError, "RMS limit fields must be > 0"),
]


@pytest.mark.parametrize("record,bad,exc_type,message", REPLACED,
                         ids=[type(r).__name__ for r, *_ in REPLACED])
def test_replace_and_make_check_as_the_constructor_does(record, bad, exc_type, message):
    cls = type(record)
    for build in (lambda: record._replace(**bad),
                  lambda: cls._make({**record._asdict(), **bad}.values())):
        with pytest.raises(ValueError) as excinfo:
            build()
        assert excinfo.type is exc_type
        assert str(excinfo.value) == message
    # a good copy still builds, as the record's own type
    copy = record._replace()
    assert copy == record and type(copy) is cls
    assert cls._make(iter(record)) == record and type(cls._make(record)) is cls
    with pytest.raises(TypeError, match=f"Expected {len(record)} arguments, got 0"):
        cls._make(())


# each checked record, its defining module and the start of its docstring
CHECKED = {
    GenSpec: ("emsim.workload", "A generator run"),
    CacheConfig: ("emsim.cache", "One level's geometry"),
    SimConfig: ("emsim.simulate", "A simulate run's settings"),
    TechParams: ("emsim.em_models", "Process/fit constants"),
    WireGeometry: ("emsim.em_models", "Metal cross-section"),
    SignalElectricals: ("emsim.em_models", "Electrical parameters"),
    RmsLimit: ("emsim.em_models", "Foundry RMS-current limit"),
}
CHECKED_RECORDS = [(cls, fields) for cls, fields, *_ in RECORDS if cls in CHECKED]


def test_checked_records_are_the_checked_subclasses_in_records():
    assert {cls for cls, _ in CHECKED_RECORDS} == set(CHECKED)
    assert {cls for cls, *_ in RECORDS if issubclass(cls, Checked)} == set(CHECKED)


@pytest.mark.parametrize("cls,fields", CHECKED_RECORDS, ids=[c.__name__ for c, _ in CHECKED_RECORDS])
def test_checked_records_survive_pickle_and_deepcopy(cls, fields):
    record = cls(**fields)
    copies = [pickle.loads(pickle.dumps(record, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in [*copies, copy.deepcopy(record), copy.copy(record)]:
        assert copied == record and type(copied) is cls


@pytest.mark.parametrize("cls", CHECKED, ids=[c.__name__ for c in CHECKED])
def test_checked_records_keep_their_module_name_and_docstring(cls):
    module, doc = CHECKED[cls]
    assert cls.__module__ == module
    assert getattr(sys.modules[module], cls.__qualname__) is cls  # where pickle looks
    assert cls.__doc__.startswith(doc)
    assert cls.__mro__[:2] == (cls, Checked) and cls.__slots__ == ()


def namedtuple_twins(namespaces: dict) -> list:
    """(module, name) of every module-level class in namespaces that a
    Checked subclass in them inherits directly: the NamedTuple half of a
    record written as two classes instead of one under records.checked."""
    bound = {id(value): (module, name) for module, names in namespaces.items()
             for name, value in names.items() if isinstance(value, type)}
    return sorted(bound[id(base)] for names in namespaces.values() for value in names.values()
                  if isinstance(value, type) and issubclass(value, Checked)
                  for base in value.__bases__ if base is not Checked and id(base) in bound)


def test_no_module_binds_a_namedtuple_twin():
    modules = [importlib.import_module(f"emsim.{info.name}")
               for info in pkgutil.iter_modules(emsim.__path__)]
    assert len(modules) >= 10
    assert namedtuple_twins({m.__name__: vars(m) for m in modules}) == []


def test_twin_scan_sees_what_it_must():
    class _Pair(NamedTuple):
        x: int

    class Pair(Checked, _Pair):
        __slots__ = ()

        def _check(self):
            pass

    assert namedtuple_twins({"m": {"_Pair": _Pair}, "n": {"Pair": Pair, "C": Checked}}) == [
        ("m", "_Pair")]
    assert namedtuple_twins({"n": {"Pair": Pair, "C": Checked}}) == []


# --- Trace ----------------------------------------------------------------------

EVENTS = [Event(0, AluIssue(2)), Event(0, RegWrite("GPR", 3)),
          Event(1, MemAccess("WRITE", 128, "INSTR")), Event(4, RegWrite("FP", 1))]


def columns(trace):
    return trace.alu, trace.reg_keys, trace.reg_cycles, trace.mem


def test_trace_defaults_are_fresh_empty_columns():
    a, b = Trace(), Trace()
    assert len(a) == 0 and a.cycles == 0
    assert columns(a) == ([], [], array("Q"), [])
    assert all(x is not y for x, y in zip(columns(a), columns(b)))


def test_trace_equality_compares_the_columns():
    trace = Trace.from_events(EVENTS)
    assert len(trace) == 4 and trace.cycles == 5
    assert columns(trace) == ([2], [("GPR", 3), ("FP", 1)], array("Q", [0, 4]),
                              [128 << 2 | 3])
    assert Trace(*columns(trace), 5) == trace
    alu, reg_keys, reg_cycles, mem = columns(trace)
    assert Trace(alu=alu, reg_keys=reg_keys, reg_cycles=reg_cycles, mem=mem,
                 cycles=5) == trace
    assert Trace(*columns(trace), 6) != trace
    assert Trace.from_events(EVENTS) == trace and not Trace.from_events(EVENTS) != trace
    assert Trace.from_events(EVENTS[:3]) != trace
    assert Trace.from_events([*EVENTS[:3], Event(5, RegWrite("FP", 1))]) != trace
    assert Trace.from_events([*EVENTS[:3], Event(4, RegWrite("FP", 2))]) != trace
    assert Trace() == Trace() and Trace() != trace
    assert trace != columns(trace)
    with pytest.raises(TypeError):
        hash(trace)
