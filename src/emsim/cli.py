"""Command-line front end: trace generation, side-by-side simulation,
wire-lifetime arithmetic, and cross-run report merging.

Exit codes: 0 success, 2 configuration/input-file problem, 3 malformed
trace, 4 domain error (a model precondition was violated).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .alu_alloc import COUNTER_ROTATE, TOGGLE_BALANCE
from .em_models import (
    UNBOUNDED,
    RmsLimit,
    SignalElectricals,
    TechParams,
    WireGeometry,
    black_mtf,
    celsius_to_kelvin,
    current_density,
    k1,
    k2,
    lifetime_extension_from_current_ratio,
    mtf_improvement,
    reduced_rms_current,
    rms_em_mtf,
)
from .cache import hierarchy_overrides_from_json
from .simulate import (
    DEFAULT_ROTATION_PERIOD,
    STRUCTURES,
    SimConfig,
    run_simulation,
    write_report_files,
)
from .wear_stats import geo_mean
from .workload import (
    ConfigError,
    TraceParseError,
    generate,
    genspec_from_json,
    load_trace,
    save_trace,
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TraceParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


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
                   choices=[COUNTER_ROTATE, TOGGLE_BALANCE],
                   help="aware ALU policy (default toggle-balance)")
    p.add_argument("--config", help="JSON config file: "
                                    '{"alu": {"units", "policy"}, '
                                    '"regfile": {"preset"}, "cache": {...}}')
    p.add_argument("--out", required=True, help="output directory for reports")
    p.add_argument("--seed", type=int, default=None,
                   help="override the generator spec seed (--gen only)")
    p.add_argument("--rotation-period", type=int, default=None,
                   help=f"rotation interval for the aware variants "
                        f"(default {DEFAULT_ROTATION_PERIOD})")
    p.add_argument("--count-rotation-shifts", action="store_true",
                   help="charge register-file rotation shifts as writes")
    p.set_defaults(func=cmd_simulate)


def _load_genspec(arg: str, seed_override):
    if arg.lstrip().startswith("{"):
        text = arg
    else:
        with open(arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"generator spec is not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and seed_override is not None:
        doc["seed"] = seed_override
    return genspec_from_json(doc)


def _load_run_config(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(doc) - {"alu", "regfile", "cache"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for section in ("alu", "regfile"):
        if section in doc and not isinstance(doc[section], dict):
            raise ConfigError(f"config section {section!r} must be an object")
    alu = doc.get("alu", {})
    if set(alu) - {"units", "policy"}:
        raise ConfigError(f"unknown alu config fields: "
                          f"{sorted(set(alu) - {'units', 'policy'})}")
    reg = doc.get("regfile", {})
    if set(reg) - {"preset"}:
        raise ConfigError(f"unknown regfile config fields: "
                          f"{sorted(set(reg) - {'preset'})}")
    cache = hierarchy_overrides_from_json(doc["cache"]) if "cache" in doc else {}
    return {"alu": alu, "regfile": reg, "cache": cache}


def cmd_simulate(args) -> int:
    if args.seed is not None and not args.gen:
        raise ConfigError("--seed only applies to --gen runs")
    conf = _load_run_config(args.config)

    if args.trace:
        events = load_trace(args.trace)
    else:
        events = generate(_load_genspec(args.gen, args.seed))

    # flags beat the config file; the config's cache-global period beats
    # the built-in default
    period = args.rotation_period
    if period is None:
        cache_conf = conf.get("cache", {})
        if "rotation_period" in cache_conf:
            period = cache_conf["rotation_period"]
            if period is None:
                raise ConfigError(
                    'the aware run needs a finite rotation period; use a '
                    'per-level "never" to pin individual cache levels')
        else:
            period = DEFAULT_ROTATION_PERIOD
    policy = args.policy or conf.get("alu", {}).get("policy") or TOGGLE_BALANCE

    cfg = SimConfig(
        structures=STRUCTURES if args.structure == "all" else (args.structure,),
        alu_units=conf.get("alu", {}).get("units", 3),
        alu_policy=policy,
        regfile_preset=conf.get("regfile", {}).get("preset", "gpr16"),
        rotation_period=period,
        count_rotation_shifts=args.count_rotation_shifts,
        cache_overrides=conf.get("cache", {}).get("levels"),
        charge_rotation_writebacks=conf.get("cache", {}).get(
            "count_rotation_writebacks", True),
    )
    reports, summary = run_simulation(events, cfg)
    csv_path, json_path = write_report_files(reports, summary, args.out)
    _print_summary(reports, summary)
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _print_summary(reports, summary) -> None:
    print(f"{'structure':<24}{'entries':>9}{'max_base':>10}"
          f"{'max_aware':>11}{'improvement':>13}")
    for r in reports:
        imp = r.mtf_improvement
        shown = "unbounded" if imp is UNBOUNDED else f"{imp * 100:.2f}%"
        print(f"{r.structure:<24}{r.num_entries:>9}"
              f"{r.histogram_baseline.max_writes:>10}"
              f"{r.histogram_aware.max_writes:>11}{shown:>13}")
    agg = summary["geo_mean_improvement"]
    if agg is None:
        print("geo-mean improvement: n/a (no structure saw writes)")
    elif agg == "unbounded":
        print("geo-mean improvement: unbounded")
    else:
        print(f"geo-mean improvement: {agg * 100:.2f}%")


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
    events = generate(spec)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    save_trace(args.out, events)
    print(f"wrote {len(events)} events to {args.out}")
    return 0


# --- em-calc --------------------------------------------------------------

def _temp_kelvin(args) -> float:
    if args.temp_c is not None:
        return celsius_to_kelvin(args.temp_c)
    if args.temp_k is not None:
        return args.temp_k
    return 378.15  # 105 C


def _add_tech_flags(p) -> None:
    p.add_argument("--scale-a", type=float, default=1.0)
    p.add_argument("--exponent-n", type=float, default=2.0)
    p.add_argument("--activation-ea", type=float, default=0.0,
                   help="activation energy in eV")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--temp-c", type=float, default=None,
                   help="temperature in Celsius (default 105)")
    g.add_argument("--temp-k", type=float, default=None,
                   help="temperature in kelvin")


def _add_geom_flags(p) -> None:
    p.add_argument("--width", type=float, required=True, help="wire width, m")
    p.add_argument("--height", type=float, required=True, help="wire height, m")


def _add_signal_flags(p) -> None:
    p.add_argument("--capacitance", type=float, required=True, help="farads")
    p.add_argument("--vdd", type=float, required=True, help="supply, V")
    p.add_argument("--freq", type=float, required=True, help="clock, Hz")
    p.add_argument("--toggle", type=float, required=True,
                   help="switching probability in [0, 1]")
    p.add_argument("--rise", type=float, default=1e-10, help="rise time, s")
    p.add_argument("--fall", type=float, default=1e-10, help="fall time, s")


def _tech(args) -> TechParams:
    return TechParams(scale_A=args.scale_a, exponent_n=args.exponent_n,
                      activation_energy_ea=args.activation_ea,
                      temperature_t=_temp_kelvin(args))


def _signal(args) -> SignalElectricals:
    return SignalElectricals(capacitance_c=args.capacitance, supply_vdd=args.vdd,
                             frequency_f=args.freq, toggle_p=args.toggle,
                             rise_tr=args.rise, fall_tf=args.fall)


def _add_em_calc(sub) -> None:
    p = sub.add_parser("em-calc", help="wire-lifetime model arithmetic")
    calc = p.add_subparsers(dest="calc", required=True)

    b = calc.add_parser("black-mtf", help="median time to failure at a "
                                          "given current density")
    _add_tech_flags(b)
    b.add_argument("--current-density", type=float, required=True, help="A/m^2")
    b.set_defaults(func=cmd_black_mtf)

    c = calc.add_parser("current-density", help="average density of the "
                                                "switching current")
    _add_signal_flags(c)
    _add_geom_flags(c)
    c.set_defaults(func=cmd_current_density)

    r = calc.add_parser("reduced-irms", help="allowed RMS current for a "
                                             "longer target lifetime")
    r.add_argument("--i-max", type=float, required=True,
                   help="sign-off RMS current limit, A")
    r.add_argument("--mtf-tech", type=float, default=10.0,
                   help="lifetime the limit is specified for")
    r.add_argument("--mtf-reduced", type=float, required=True,
                   help="target lifetime")
    r.set_defaults(func=cmd_reduced_irms)

    e = calc.add_parser("lifetime-extension", help="lifetime factor from an "
                                                   "RMS-current ratio")
    e.add_argument("ratio", type=float, help="reduced/original RMS current")
    e.set_defaults(func=cmd_lifetime_extension)

    one = calc.add_parser("k1", help="technology/geometry constant")
    _add_tech_flags(one)
    _add_geom_flags(one)
    one.set_defaults(func=cmd_k1)

    two = calc.add_parser("k2", help="edge-rate constant")
    two.add_argument("--rise", type=float, required=True, help="rise time, s")
    two.add_argument("--fall", type=float, required=True, help="fall time, s")
    two.set_defaults(func=cmd_k2)

    m = calc.add_parser("rms-mtf", help="RMS-heating lifetime of a signal wire")
    _add_tech_flags(m)
    _add_geom_flags(m)
    _add_signal_flags(m)
    m.set_defaults(func=cmd_rms_mtf)

    i = calc.add_parser("improvement", help="hotspot lifetime improvement "
                                            "from two toggle maxima")
    i.add_argument("p_original", type=float)
    i.add_argument("p_aware", type=float)
    i.set_defaults(func=cmd_improvement)


def cmd_black_mtf(args) -> int:
    value = black_mtf(_tech(args), args.current_density)
    print(f"black-mtf = {value!r} time-units")
    return 0


def cmd_current_density(args) -> int:
    value = current_density(_signal(args), WireGeometry(args.width, args.height))
    print(f"current-density = {value!r} A/m^2")
    return 0


def cmd_reduced_irms(args) -> int:
    value = reduced_rms_current(
        RmsLimit(i_rms_max=args.i_max, mtf_technology=args.mtf_tech),
        args.mtf_reduced)
    print(f"reduced-irms = {value!r} A")
    return 0


def cmd_lifetime_extension(args) -> int:
    value = lifetime_extension_from_current_ratio(args.ratio)
    print(f"lifetime-extension = {value!r} x")
    return 0


def cmd_k1(args) -> int:
    value = k1(_tech(args), WireGeometry(args.width, args.height))
    print(f"k1 = {value!r} (tech composite)")
    return 0


def cmd_k2(args) -> int:
    value = k2(SignalElectricals(capacitance_c=1.0, supply_vdd=1.0,
                                 frequency_f=1.0, toggle_p=0.5,
                                 rise_tr=args.rise, fall_tf=args.fall))
    print(f"k2 = {value!r} s^-1/2")
    return 0


def cmd_rms_mtf(args) -> int:
    value = rms_em_mtf(_tech(args), WireGeometry(args.width, args.height),
                       _signal(args))
    if value is UNBOUNDED:
        print("rms-mtf = unbounded (zero toggle probability)")
    else:
        print(f"rms-mtf = {value!r} time-units")
    return 0


def cmd_improvement(args) -> int:
    value = mtf_improvement(args.p_original, args.p_aware)
    print(f"improvement = {value!r} ({value * 100:.2f}%)")
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
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or "reports" not in doc:
            raise ConfigError(f"{path}: not a simulation report")
        runs.append({row["structure"]: row["mtf_improvement"]
                     for row in doc["reports"]})

    order = []
    for path, run in zip(args.reports, runs):
        for structure in run:
            if structure not in order:
                order.append(structure)
    merged = []
    for structure in order:
        missing = [p for p, run in zip(args.reports, runs) if structure not in run]
        if missing:
            raise ConfigError(f"structure {structure!r} missing from "
                              f"{missing[0]}; merge needs matching runs")
        vals = [UNBOUNDED if run[structure] == "unbounded" else run[structure]
                for run in runs]
        agg = geo_mean(vals)
        merged.append((structure, len(vals), agg))

    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "merged.csv")
    json_path = os.path.join(args.out, "merged.json")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("structure,runs,geo_mean_improvement,geo_mean_display\n")
        for structure, n, agg in merged:
            cell = "unbounded" if agg is UNBOUNDED else repr(agg)
            shown = "unbounded" if agg is UNBOUNDED else f"{agg * 100:.2f}%"
            fh.write(f"{structure},{n},{cell},{shown}\n")
    doc = {"sources": list(args.reports),
           "merged": [{"structure": s, "runs": n,
                       "geo_mean_improvement":
                           "unbounded" if agg is UNBOUNDED else agg}
                      for s, n, agg in merged]}
    with open(json_path, "w", encoding="utf-8", newline="") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")

    for structure, n, agg in merged:
        shown = "unbounded" if agg is UNBOUNDED else f"{agg * 100:.2f}%"
        print(f"{structure:<24}{n:>5} runs  {shown:>12}")
    print(f"wrote {csv_path} and {json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
