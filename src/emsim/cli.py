"""Command-line front end: trace generation, side-by-side simulation,
wire-lifetime arithmetic, and cross-run report merging.

Exit codes: 0 success, 2 configuration/input-file problem (an unreadable
file, or one that is not UTF-8 text), 3 malformed trace, 4 domain error (a
model precondition was violated).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import em_models as em
from .cache import rotation_period_from_json
from .simulate import (
    AWARE_ALU_POLICIES,
    DEFAULT_ROTATION_PERIOD,
    STRUCTURES,
    SimConfig,
    run_simulation,
    write_report_files,
)
from .wear_stats import (
    geo_mean,
    improvement_display,
    improvement_from_json,
    improvement_to_json,
    write_outputs,
)
from .workload import (
    ConfigError,
    Trace,
    TraceParseError,
    _finite as _finite_number,
    genspec_from_json,
    iter_events,
    load_trace,
    save_trace,
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, TraceParseError):
            return 3
        # an unreadable file, or one that is not UTF-8 text, is an input-file
        # problem; any other ValueError, or a model's arithmetic leaving the
        # float range, is a domain error
        return 2 if isinstance(exc, (ConfigError, OSError, UnicodeDecodeError)) else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emsim",
        description="wear-aware microarchitecture simulator and "
                    "wire-lifetime calculator")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_simulate(sub)
    _add_gen_trace(sub)
    _add_em_calc(sub)
    _add_report_merge(sub)
    return parser


# --- simulate -----------------------------------------------------------------

# The sections of a --config file, the fields each takes, and the SimConfig
# field each one sets
CONFIG_FIELDS = {
    "alu": {"units": "alu_units", "policy": "alu_policy"},
    "regfile": {"preset": "regfile_preset"},
    "cache": {"rotation_period": "rotation_period",
              "count_rotation_writebacks": "charge_rotation_writebacks",
              "levels": "cache_overrides"},
}


def _add_simulate(sub) -> None:
    p = sub.add_parser("simulate", help="replay a trace through baseline and "
                                        "wear-aware structure variants")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--trace", help="trace file to replay")
    src.add_argument("--gen", metavar="SPEC",
                     help="generator spec: a JSON file path, or inline JSON "
                          "starting with '{'")
    p.add_argument("--structure", default="all",
                   choices=[*STRUCTURES, "all"])
    p.add_argument("--policy", default=None,
                   choices=AWARE_ALU_POLICIES,
                   help="aware ALU policy (default toggle-balance)")
    p.add_argument("--config", help="JSON config file with the sections "
                                    f"{', '.join(CONFIG_FIELDS)} (see README)")
    p.add_argument("--out", required=True, help="output directory for reports")
    p.add_argument("--seed", type=int, default=None,
                   help="override the generator spec seed (--gen only)")
    p.add_argument("--rotation-period", type=int, default=None,
                   help=f"rotation interval N of the aware variants: the "
                        f"register file rotates every N cycles, each cache "
                        f"level after every N accesses to that level "
                        f"(default {DEFAULT_ROTATION_PERIOD})")
    p.add_argument("--count-rotation-shifts", action="store_true",
                   help="charge register-file rotation shifts as writes")
    p.set_defaults(func=cmd_simulate)


def _read_json(arg: str, what: str, inline: bool = False):
    """The JSON document in the file arg names, or, when inline and arg
    starts with '{', in arg itself. Text that is not JSON raises
    ConfigError("<what> is not valid JSON: why"); any other ValueError of
    the parse, such as an integer past the digit limit, ConfigError("<what>: why")."""
    if inline and arg.lstrip().startswith("{"):
        text = arg
    else:
        with open(arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _load_genspec(arg: str, seed_override):
    doc = _read_json(arg, "generator spec", inline=True)
    if isinstance(doc, dict) and seed_override is not None:
        doc["seed"] = seed_override
    return genspec_from_json(doc)


def _sim_config(args) -> SimConfig:
    """The checked SimConfig of the flags and the --config file; reads no trace."""
    if args.seed is not None and not args.gen:
        raise ConfigError("--seed only applies to --gen runs")
    settings = {}
    if args.config is not None:
        doc = _read_json(args.config, "config file")
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(doc) - set(CONFIG_FIELDS)
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        for section, fields in doc.items():
            if not isinstance(fields, dict):
                raise ConfigError("hierarchy config must be a JSON object"
                                  if section == "cache" else
                                  f"config section {section!r} must be an object")
            unknown = set(fields) - set(CONFIG_FIELDS[section])
            if unknown:
                noun = "hierarchy" if section == "cache" else section
                raise ConfigError(f"unknown {noun} config fields: {sorted(unknown)}")
            settings.update((CONFIG_FIELDS[section][k], v) for k, v in fields.items())
        if "rotation_period" in settings:  # checked even when the flag wins
            settings["rotation_period"] = rotation_period_from_json(
                settings["rotation_period"])
    # flags beat the config file, which beats SimConfig's defaults
    if args.policy is not None:
        settings["alu_policy"] = args.policy
    if args.rotation_period is not None:
        settings["rotation_period"] = args.rotation_period
    return SimConfig(
        structures=STRUCTURES if args.structure == "all" else (args.structure,),
        count_rotation_shifts=args.count_rotation_shifts, **settings)


def cmd_simulate(args) -> int:
    cfg = _sim_config(args)
    if args.trace:
        trace = load_trace(args.trace)
    else:
        trace = Trace.from_events(iter_events(_load_genspec(args.gen, args.seed)))
    reports, summary = run_simulation(trace, cfg)
    csv_path, json_path = write_report_files(reports, summary, args.out)
    _print_summary(reports, summary)
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _print_summary(reports, summary) -> None:
    print(f"{'structure':<24}{'entries':>9}{'max_base':>10}"
          f"{'max_aware':>11}{'improvement':>13}")
    for r in reports:
        print(f"{r.structure:<24}{r.num_entries:>9}"
              f"{r.histogram_baseline.max_writes:>10}"
              f"{r.histogram_aware.max_writes:>11}"
              f"{improvement_display(r.mtf_improvement):>13}")
    agg = summary["geo_mean_improvement"]
    shown = ("n/a (no structure saw writes)" if agg is None
             else improvement_display(improvement_from_json(agg)))
    print(f"geo-mean improvement: {shown}")


# --- gen-trace ------------------------------------------------------------

def _add_gen_trace(sub) -> None:
    p = sub.add_parser("gen-trace", help="write a deterministic synthetic trace")
    p.add_argument("--gen", metavar="SPEC", required=True,
                   help="generator spec (JSON file path or inline JSON)")
    p.add_argument("--out", required=True, help="output trace file")
    p.add_argument("--seed", type=int, default=None,
                   help="override the spec seed")
    p.set_defaults(func=cmd_gen_trace)


def cmd_gen_trace(args) -> int:
    spec = _load_genspec(args.gen, args.seed)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    save_trace(args.out, iter_events(spec))
    print(f"wrote {spec.length} events to {args.out}")
    return 0


# --- em-calc --------------------------------------------------------------

def _finite(text: str) -> float:
    """argparse type of every em-calc number: a float, but not inf or nan."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _float_arg(*names, **kwargs):
    return lambda p: p.add_argument(*names, type=_finite, **kwargs)


def _add_tech_flags(p) -> None:
    tech = em.TechParams()
    p.add_argument("--scale-a", type=_finite, default=tech.scale_A)
    p.add_argument("--exponent-n", type=_finite, default=tech.exponent_n)
    p.add_argument("--activation-ea", type=_finite, default=tech.activation_energy_ea,
                   help="activation energy in eV")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--temp-c", type=_finite, default=None,
                   help=f"temperature in Celsius (default "
                   f"{tech.temperature_t - em.celsius_to_kelvin(0):g})")
    g.add_argument("--temp-k", type=_finite, default=tech.temperature_t,
                   help="temperature in kelvin")


_GEOM_FLAGS = (_float_arg("--width", required=True, help="wire width, m"),
               _float_arg("--height", required=True, help="wire height, m"))
_SIGNAL_FLAGS = (
    _float_arg("--capacitance", required=True, help="farads"),
    _float_arg("--vdd", required=True, help="supply, V"),
    _float_arg("--freq", required=True, help="clock, Hz"),
    _float_arg("--toggle", required=True, help="switching probability in [0, 1]"),
    _float_arg("--rise", default=em.SignalElectricals._field_defaults["rise_tr"], help="rise time, s"),
    _float_arg("--fall", default=em.SignalElectricals._field_defaults["fall_tf"], help="fall time, s"),
)


def _tech(a) -> em.TechParams:
    return em.TechParams(scale_A=a.scale_a, exponent_n=a.exponent_n,
                         activation_energy_ea=a.activation_ea,
                         temperature_t=a.temp_k if a.temp_c is None
                         else em.celsius_to_kelvin(a.temp_c))


def _geom(a) -> em.WireGeometry:
    return em.WireGeometry(a.width, a.height)


def _signal(a) -> em.SignalElectricals:
    return em.SignalElectricals(capacitance_c=a.capacitance, supply_vdd=a.vdd,
                                frequency_f=a.freq, toggle_p=a.toggle,
                                rise_tr=a.rise, fall_tf=a.fall)


# subcommand -> (help, argument adders, computation, unit after the value;
# the unit is a format string given the value)
EM_CALC = {
    "black-mtf": (
        "median time to failure at a given current density",
        (_add_tech_flags, _float_arg("--current-density", required=True, help="A/m^2")),
        lambda a: em.black_mtf(_tech(a), a.current_density),
        "time-units"),
    "current-density": (
        "average density of the switching current",
        (*_SIGNAL_FLAGS, *_GEOM_FLAGS),
        lambda a: em.current_density(_signal(a), _geom(a)),
        "A/m^2"),
    "reduced-irms": (
        "allowed RMS current for a longer target lifetime",
        (_float_arg("--i-max", required=True, help="sign-off RMS current limit, A"),
         _float_arg("--mtf-tech", default=em.RmsLimit._field_defaults["mtf_technology"],
                    help="lifetime the limit is specified for"),
         _float_arg("--mtf-reduced", required=True, help="target lifetime")),
        lambda a: em.reduced_rms_current(
            em.RmsLimit(i_rms_max=a.i_max, mtf_technology=a.mtf_tech), a.mtf_reduced),
        "A"),
    "lifetime-extension": (
        "lifetime factor from an RMS-current ratio",
        (_float_arg("ratio", help="reduced/original RMS current"),),
        lambda a: em.lifetime_extension_from_current_ratio(a.ratio),
        "x"),
    "k1": (
        "technology/geometry constant",
        (_add_tech_flags, *_GEOM_FLAGS),
        lambda a: em.k1(_tech(a), _geom(a)),
        "(tech composite)"),
    "k2": (
        "edge-rate constant",
        (_float_arg("--rise", required=True, help="rise time, s"),
         _float_arg("--fall", required=True, help="fall time, s")),
        lambda a: em.k2(em.SignalElectricals(capacitance_c=1.0, supply_vdd=1.0,
                                             frequency_f=1.0, toggle_p=0.5,
                                             rise_tr=a.rise, fall_tf=a.fall)),
        "s^-1/2"),
    "rms-mtf": (
        "RMS-heating lifetime of a signal wire",
        (_add_tech_flags, *_GEOM_FLAGS, *_SIGNAL_FLAGS),
        lambda a: em.rms_em_mtf(_tech(a), _geom(a), _signal(a)),
        "time-units"),
    "improvement": (
        "hotspot lifetime improvement from two toggle maxima",
        (_float_arg("p_original"), _float_arg("p_aware")),
        lambda a: em.mtf_improvement(a.p_original, a.p_aware),
        "({:.2%})"),
}


def _add_em_calc(sub) -> None:
    p = sub.add_parser("em-calc", help="wire-lifetime model arithmetic")
    calc = p.add_subparsers(dest="calc", required=True)
    for name, (help_text, adders, _, _) in EM_CALC.items():
        c = calc.add_parser(name, help=help_text)
        for add in adders:
            add(c)
    p.set_defaults(func=cmd_em_calc)


def cmd_em_calc(args) -> int:
    _, _, compute, unit = EM_CALC[args.calc]
    try:  # the model's arithmetic may overflow, divide by zero or return inf
        value = compute(args)
        if value is not em.UNBOUNDED and not math.isfinite(value):
            raise OverflowError(repr(value))
    except (OverflowError, ZeroDivisionError) as exc:
        raise OverflowError(f"{args.calc} result out of the float range: {exc}") from exc
    if value is em.UNBOUNDED:  # rms-mtf of a wire that never toggles
        print(f"{args.calc} = unbounded (zero toggle probability)")
    else:
        print(f"{args.calc} = {value!r} {unit.format(value)}")
    return 0


# --- report-merge -----------------------------------------------------------

def _add_report_merge(sub) -> None:
    p = sub.add_parser("report-merge",
                       help="geo-mean improvements across runs' report.json files")
    p.add_argument("reports", nargs="+", help="report.json files to merge")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_report_merge)


def cmd_report_merge(args) -> int:
    runs = []
    for path in args.reports:
        doc = _read_json(path, path)
        if not isinstance(doc, dict) or not isinstance(doc.get("reports"), list):
            raise ConfigError(f"{path}: not a simulation report")
        run = {}
        for i, row in enumerate(doc["reports"]):
            where = f"{path}: report row {i}"
            if not isinstance(row, dict):
                raise ConfigError(f"{where} is not an object")
            structure, value = row.get("structure"), improvement_from_json(row.get("mtf_improvement"))
            if not isinstance(structure, str):
                raise ConfigError(f"{where}: structure must be a string, got {structure!r}")
            if value is not em.UNBOUNDED and not _finite_number(value):
                raise ConfigError(f"{where}: mtf_improvement must be a finite number or "
                                  f'"unbounded", got {value!r}')
            if structure in run:
                raise ConfigError(f"{where}: structure {structure!r} appears twice")
            run[structure] = value
        runs.append(run)

    merged = []  # (merged.json row, display form of its mean) per structure
    for structure in dict.fromkeys(s for run in runs for s in run):
        missing = [p for p, run in zip(args.reports, runs) if structure not in run]
        if missing:
            raise ConfigError(f"structure {structure!r} missing from "
                              f"{missing[0]}; merge needs matching runs")
        agg = geo_mean([run[structure] for run in runs])
        merged.append(({"structure": structure, "runs": len(runs),
                        "geo_mean_improvement": improvement_to_json(agg)},
                       improvement_display(agg)))

    csv_path, json_path = write_outputs(
        args.out, "merged",
        ("structure", "runs", "geo_mean_improvement", "geo_mean_display"),
        ([*row.values(), shown] for row, shown in merged),
        {"sources": list(args.reports), "merged": [row for row, _ in merged]})
    for row, shown in merged:
        print(f"{row['structure']:<24}{row['runs']:>5} runs  {shown:>12}")
    print(f"wrote {csv_path} and {json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
