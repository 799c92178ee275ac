"""Batch command line emitting plot-ready sweep data files.

Subcommands mirror the library modules: fbl, access, framesync, mimo,
multiconn, ratesel.  Every CSV starts with '#' comment lines recording the
regenerating command and the resolved parameters; the body below the
comments is byte-identical across reruns with the same seed, for any
--workers count.  Exit codes: 0 success, 1 validation error (nothing
written), 2 when the model reports an infeasible operating point (the
condition is also recorded in the output).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import shlex
import sys
from pathlib import Path

import numpy as np

from . import access, fbl, framesync, mimo, multiconn, ratesel
from .scenario import (
    Field,
    apply_schema,
    bool_field,
    choice_field,
    float_field,
    int_field,
    list_field,
    parse_kv_file,
)
from .simcore import MonteCarloConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # infeasible results here, so route errors through an exception
    def error(self, message):
        raise _CliError(message)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".12g")
    return str(v)


def _write_csv(path, comments, header, rows) -> None:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _command_comment(argv) -> str:
    return "command: urllckit " + shlex.join(str(a) for a in argv)


# strict bounds at -inf and inf let through every finite float and no other;
# at 0 and inf, every positive finite float
_finite_float = float_field(-math.inf, math.inf, strict=True)
_positive_float = float_field(0.0, math.inf, strict=True)


# ---- fbl -------------------------------------------------------------------

def _cmd_fbl_sweep(args, argv) -> int:
    gammas_db = np.linspace(args.gamma0_db_min, args.gamma0_db_max, args.points)
    pkt = fbl.PacketSpec.from_bytes(args.data_bytes, args.metadata_bytes)
    # 10^(dB/10) point by point: numpy's vectorized power may differ from the
    # scalar one in the last bit.  An overflow to inf is rejected by LinkBudget.
    with np.errstate(over="ignore"):
        gamma0 = np.array([10.0 ** (g_db / 10.0) for g_db in gammas_db])
    budget = fbl.LinkBudget(gamma0, args.b0_hz, args.latency_s)
    b_joint = fbl.min_bandwidth(budget, pkt, args.eps, "joint")
    b_sep = fbl.min_bandwidth(budget, pkt, args.eps, "separate")
    feas_j = np.isfinite(b_joint)
    feas_s = np.isfinite(b_sep)
    any_infeasible = not (feas_j.all() and feas_s.all())
    rows = [[g_db, bj, bs, bool(fj), bool(fs)]
            for g_db, bj, bs, fj, fs in zip(gammas_db, b_joint, b_sep, feas_j, feas_s)]
    comments = [
        _command_comment(argv),
        f"seed = {args.seed}",
        f"b0_hz = {_fmt(args.b0_hz)}, latency_s = {_fmt(args.latency_s)}, "
        f"data_bytes = {args.data_bytes}, metadata_bytes = {args.metadata_bytes}, "
        f"eps = {_fmt(args.eps)}",
    ]
    if any_infeasible:
        comments.append("infeasible points present (bandwidth = inf, feasible = 0)")
    _write_csv(args.out, comments,
               ["gamma0_dB", "B_joint_Hz", "B_separate_Hz",
                "feasible_joint", "feasible_separate"], rows)
    return EXIT_INFEASIBLE if any_infeasible else EXIT_OK


# ---- access ----------------------------------------------------------------

def _cmd_access(args, argv) -> int:
    profile = access.AccessErrorProfile(
        eps_sync=args.eps_sync,
        eps_request=args.eps_request,
        eps_grant=args.eps_grant,
        eps_data=args.eps_data,
        eps_ack=args.eps_ack,
    )
    err = access.scheme_error(args.scheme, profile)
    # built before any output, so a rejected model leaves no file behind
    model = access.RetransmissionModel(
        eps_attempt=err,
        attempt_latency_s=args.attempt_latency_s,
        max_attempts=args.max_attempts,
    )
    doc = {
        "scheme": args.scheme,
        "overall_error": err,
        "params": profile.as_dict(),
        "command": "urllckit " + shlex.join(str(a) for a in argv),
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.cdf_out:
        rows = [
            [k + 1, t, r]
            for k, (t, r) in enumerate(zip(model.attempt_times,
                                           model.attempt_reliabilities))
        ]
        comments = [
            _command_comment(argv),
            f"scheme = {args.scheme}, eps_attempt = {_fmt(model.eps_attempt)}, "
            f"attempt_latency_s = {_fmt(args.attempt_latency_s)}, "
            f"max_attempts = {args.max_attempts}",
            f"residual_error = {_fmt(model.residual_error)}",
        ]
        _write_csv(args.cdf_out, comments,
                   ["attempt", "deadline_s", "reliability"], rows)
    return EXIT_OK


# ---- framesync -------------------------------------------------------------

def _cmd_framesync_sweep(args, argv) -> int:
    if args.nm_max < args.nm_min:
        raise _CliError("--nm-max must be >= --nm-min")
    # longest first, so a length the search refuses fails before the rest
    # run; each search draws its own stream, keyed by its length, so the
    # order changes no result
    dists = {nm: framesync.search_marker(nm, args.payload_bits, budget=args.budget,
                                         seed=args.seed, count_cap=args.count_cap)
             for nm in range(args.nm_max, args.nm_min - 1, -1)}
    rows = []
    marker_notes = []
    for nm in range(args.nm_min, args.nm_max + 1):
        dist = dists[nm]
        marker_notes.append(f"N_m = {nm}: marker {dist.marker.as_string()}")
        for l in args.list_lengths:
            rows.append([nm, l, framesync.p_ub_list(dist, l)])
    comments = [
        _command_comment(argv),
        f"seed = {args.seed}, payload_bits = {args.payload_bits}, "
        f"budget = {args.budget}, count_cap = {args.count_cap}",
        *marker_notes,
    ]
    _write_csv(args.out, comments, ["N_m", "l", "P_UB"], rows)
    return EXIT_OK


# ---- mimo ------------------------------------------------------------------

_MIMO_SCHEMA = {
    "tx_antennas": Field(int_field(1), 100),
    "rx_antennas": Field(int_field(1), 1),
    "paths": Field(int_field(1), 10),
    "spread_deg": Field(float_field(0.0), 10.0),
    "arrival_spread_deg": Field(float_field(0.0), None),
    "span_db": Field(float_field(0.0), 20.0),
    "departure_centers_deg": Field(list_field(_finite_float, 2), (-6.0, 6.0)),
    "arrival_centers_deg": Field(list_field(_finite_float, 2), (-30.0, 30.0)),
    "normalize_power": Field(bool_field(), True),
    "rho_db": Field(float_field(), 0.0),
    "multiplexing": Field(choice_field(("space", "time")), "space"),
    "payload_bits": Field(int_field(1), 100),
    "slots": Field(int_field(1), 10),
    "methods": Field(list_field(choice_field(mimo.METHODS)), tuple(mimo.METHODS)),
    "angle_seed": Field(int_field(0), 1),
    "estimation_noise_std": Field(float_field(0.0), 0.0),
}

_SINR_PCTS = (5, 25, 50, 75, 95)


def _db(v) -> float:
    # 10*log10(v) of an SINR, -inf for a zero one
    return 10.0 * math.log10(v) if v > 0 else -math.inf


def _cmd_mimo(args, argv) -> int:
    raw = parse_kv_file(args.scenario)
    cfg = apply_schema(raw, _MIMO_SCHEMA, source=str(args.scenario))
    spec = mimo.random_cluster_spec(
        cfg["tx_antennas"], cfg["rx_antennas"],
        paths=cfg["paths"], spread_deg=cfg["spread_deg"],
        arrival_spread_deg=cfg["arrival_spread_deg"], span_db=cfg["span_db"],
        departure_centers_deg=cfg["departure_centers_deg"],
        arrival_centers_deg=cfg["arrival_centers_deg"],
        normalize_power=cfg["normalize_power"], seed=cfg["angle_seed"])
    mc = MonteCarloConfig(args.trials, args.seed)
    ev = mimo.evaluate(
        spec, cfg["methods"], cfg["rho_db"], cfg["multiplexing"], mc,
        payload_bits=cfg["payload_bits"], slots=cfg["slots"],
        estimation_noise_std=cfg["estimation_noise_std"])

    comments = [
        _command_comment(argv),
        f"seed = {args.seed}, trials = {args.trials}",
        f"scenario = {args.scenario}",
        *(f"{key} = {_fmt(cfg[key]) if not isinstance(cfg[key], tuple) else ','.join(_fmt(v) for v in cfg[key])}"
          for key in _MIMO_SCHEMA),
    ]
    n_rx = cfg["rx_antennas"]
    per_rows = []
    sinr_rows = []
    for method in cfg["methods"]:
        res = ev.results[method]
        for slot_idx, per in enumerate(res.per_slot, start=1):
            per_rows.append([method, n_rx, slot_idx, float(per)])
        # sorted first: the same order statistics, found faster
        pct = np.percentile(np.sort(res.sinr), _SINR_PCTS)
        sinr_rows.append([method, n_rx, *map(_db, pct), _db(res.sinr_mean.mean)])
    _write_csv(args.out, comments, ["method", "N", "slot", "PER"], per_rows)
    sinr_out = args.sinr_out
    if sinr_out is None:
        p = Path(args.out)
        sinr_out = p.with_name(p.stem + "_sinr" + (p.suffix or ".csv"))
    sinr_header = ["method", "N"] + [f"sinr_db_p{p:02d}" for p in _SINR_PCTS] \
        + ["mean_sinr_db"]
    _write_csv(sinr_out, comments, sinr_header, sinr_rows)
    return EXIT_OK


# ---- multiconn -------------------------------------------------------------

def _cmd_multiconn_sweep(args, argv) -> int:
    if len(args.link_rels) != len(args.core_rels):
        raise _CliError("--link-rels and --core-rels must have the same length")
    chain = multiconn.ReliabilityChain(
        tuple(multiconn.Interface(rl, rc)
              for rl, rc in zip(args.link_rels, args.core_rels)),
        r_far=args.far_rel,
    )
    grid = np.geomspace(args.outage_min, args.outage_max, args.grid_points)
    rows = multiconn.outage_sweep(chain, grid, archs=args.archs,
                                  vary_index=args.vary_interface)
    comments = [
        _command_comment(argv),
        f"link_rels = {','.join(_fmt(v) for v in args.link_rels)}, "
        f"core_rels = {','.join(_fmt(v) for v in args.core_rels)}, "
        f"far_rel = {_fmt(args.far_rel)}, vary_interface = {args.vary_interface}",
    ]
    _write_csv(args.out, comments, ["link_outage", "arch", "e2e_outage"], rows)
    return EXIT_OK


# ---- ratesel ---------------------------------------------------------------

def _cmd_ratesel_sweep(args, argv) -> int:
    scenario = ratesel.RayleighScenario(args.theta)
    mc = MonteCarloConfig(args.trials, args.seed)
    rows = []
    for kind in args.constraints:
        policy = ratesel.BackoffPolicy(
            kind, args.eps, args.xi if kind == "pcr" else None)
        for n in args.n_values:
            res = ratesel.throughput_ratio(scenario, policy, n, mc,
                                           workers=args.workers)
            rows.append([
                kind, n, args.eps,
                args.xi if kind == "pcr" else "",
                res.ratio.mean, *res.ratio.ci(),
            ])
    comments = [
        _command_comment(argv),
        f"seed = {args.seed}, trials = {args.trials}, theta = {_fmt(args.theta)}, "
        f"eps = {_fmt(args.eps)}, xi = {_fmt(args.xi)}",
    ]
    _write_csv(args.out, comments,
               ["constraint", "n", "eps", "xi", "lambda", "ci_lo", "ci_hi"], rows)
    return EXIT_OK


# ---- wiring ----------------------------------------------------------------

# argparse construction costs milliseconds; build the parser once per process
# for callers that invoke run() repeatedly (parsing leaves it unchanged)
@functools.cache
def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int_field(0), default=0,
                        help="master seed for every random stream (default 0)")
    common.add_argument("--trials", type=int_field(1), default=100_000,
                        help="Monte-Carlo trial count where applicable")
    common.add_argument("--workers", type=int_field(1), default=1,
                        help="Monte-Carlo fan-out; never changes results "
                             "(mimo ignores it: it runs on one thread, "
                             "BLAS included)")
    outp = argparse.ArgumentParser(add_help=False)
    outp.add_argument("--out", required=True, help="output CSV path")

    top = _Parser(prog="urllckit",
                  description="reliability analysis toolkit, batch interface")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    fblp = sub.add_parser("fbl", help="finite-blocklength bandwidth analysis")
    fbl_sub = fblp.add_subparsers(dest="subcommand", required=True,
                                  parser_class=_Parser)
    p = fbl_sub.add_parser("sweep", parents=[common, outp],
                           help="minimum bandwidth vs reference SNR")
    p.add_argument("--gamma0-db-min", type=_finite_float, default=5.0)
    p.add_argument("--gamma0-db-max", type=_finite_float, default=40.0)
    p.add_argument("--points", type=int_field(1), default=20)
    p.add_argument("--b0-hz", type=_positive_float, default=1e5)
    p.add_argument("--latency-s", type=_positive_float, default=1e-3)
    p.add_argument("--data-bytes", type=int_field(1), default=16)
    p.add_argument("--metadata-bytes", type=int_field(0), default=16)
    p.add_argument("--eps", type=float_field(0.0, 1.0, strict=True), default=1e-5)
    p.set_defaults(handler=_cmd_fbl_sweep)

    p = sub.add_parser("access", parents=[common],
                       help="access-scheme error budget")
    p.add_argument("--scheme", required=True, choices=access.SCHEMES)
    p.add_argument("--eps-sync", type=float_field(0.0, 1.0), default=0.0)
    p.add_argument("--eps-request", type=float_field(0.0, 1.0), default=0.0)
    p.add_argument("--eps-grant", type=float_field(0.0, 1.0), default=0.0)
    p.add_argument("--eps-data", type=float_field(0.0, 1.0), default=0.0)
    p.add_argument("--eps-ack", type=float_field(0.0, 1.0), default=0.0)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.add_argument("--cdf-out", help="also write the latency-CDF staircase CSV")
    p.add_argument("--attempt-latency-s", type=_positive_float, default=1e-3)
    p.add_argument("--max-attempts", type=int_field(1), default=10)
    p.set_defaults(handler=_cmd_access)

    fsp = sub.add_parser("framesync", help="marker self-reproduction bounds")
    fs_sub = fsp.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)
    p = fs_sub.add_parser("sweep", parents=[common, outp],
                          help="sync bound vs marker length")
    p.add_argument("--nm-min", type=int_field(1), default=16)
    p.add_argument("--nm-max", type=int_field(1), default=32)
    p.add_argument("--payload-bits", type=int_field(0), default=256)
    p.add_argument("--list-lengths", type=list_field(int_field(1)),
                   default=(1, 2, 4, 8))
    p.add_argument("--budget", type=int_field(1), default=400,
                   help="marker-search evaluation budget per length")
    p.add_argument("--count-cap", type=int_field(1), default=32)
    p.set_defaults(handler=_cmd_framesync_sweep)

    p = sub.add_parser("mimo", parents=[common, outp],
                       help="two-terminal beamforming evaluation")
    p.add_argument("--scenario", required=True,
                   help="key = value scenario file")
    p.add_argument("--sinr-out", default=None,
                   help="SINR percentile CSV (default: <out>_sinr.csv)")
    p.set_defaults(handler=_cmd_mimo)

    mcp = sub.add_parser("multiconn", help="multi-connectivity reliability")
    mc_sub = mcp.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)
    p = mc_sub.add_parser("sweep", parents=[common, outp],
                          help="end-to-end outage vs link outage")
    p.add_argument("--link-rels", type=list_field(float), default=(0.99, 0.9))
    p.add_argument("--core-rels", type=list_field(float), default=(0.999, 0.99))
    p.add_argument("--far-rel", type=float_field(0.0, 1.0), default=0.9999)
    p.add_argument("--outage-min", type=float_field(0.0, strict=True), default=1e-4)
    # beyond ~10% link outage an unequal-core chain can invert the
    # dc/ifd ordering; the default stays in the regime of interest
    p.add_argument("--outage-max", type=float_field(0.0, strict=True), default=0.05)
    p.add_argument("--grid-points", type=int_field(1), default=50)
    p.add_argument("--vary-interface", type=int_field(0), default=0)
    p.add_argument("--archs", type=list_field(choice_field(multiconn.ARCHITECTURES)),
                   default=multiconn.ARCHITECTURES)
    p.set_defaults(handler=_cmd_multiconn_sweep)

    rsp = sub.add_parser("ratesel", help="statistical rate selection")
    rs_sub = rsp.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)
    p = rs_sub.add_parser("sweep", parents=[common, outp],
                          help="throughput ratio vs training length")
    p.add_argument("--theta", type=_positive_float, default=10.0)
    p.add_argument("--eps", type=float_field(0.0, 1.0, strict=True), default=1e-3)
    p.add_argument("--xi", type=float_field(0.0, 1.0, strict=True), default=1e-3)
    p.add_argument("--n-values", type=list_field(int_field(1)),
                   default=(10, 100, 1000, 10000))
    p.add_argument("--constraints", type=list_field(choice_field(("ar", "pcr"))),
                   default=("ar", "pcr"))
    p.set_defaults(handler=_cmd_ratesel_sweep)

    return top


def run(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.handler(args, argv)
    except (_CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
