"""Batch CLI: argument handling, output files, exit codes, determinism."""

from __future__ import annotations

import json

import pytest

from urllckit import access, framesync
from urllckit.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, run


def rows_of(body: str) -> list:
    lines = body.splitlines()
    return [ln.split(",") for ln in lines[1:]]


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_help_exits_clean(capsys):
    assert run(["--help"]) == 0
    assert "urllckit" in capsys.readouterr().out


def test_unknown_flag_writes_nothing(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = run(["multiconn", "sweep", "--out", str(out), "--bogus", "1"])
    assert code == EXIT_USAGE
    assert not out.exists()
    capsys.readouterr()


def test_invalid_value_rejected(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = run(["fbl", "sweep", "--out", str(out), "--eps", "2.0"])
    assert code == EXIT_USAGE
    assert not out.exists()
    capsys.readouterr()


@pytest.mark.parametrize("command,flag", [
    # --trials is read only by mimo and ratesel sweep
    ("fbl sweep", "--trials"),
    ("framesync sweep", "--trials"),
    ("multiconn sweep", "--trials"),
    ("framesync sweep", "--count-cap"),
])
def test_flag_no_subcommand_reads_is_unknown(tmp_path, capsys, command, flag):
    out = tmp_path / "x.csv"
    assert run([*command.split(), "--out", str(out), flag, "5"]) == EXIT_USAGE
    assert not out.exists()
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,value", [
    ("fbl sweep", "--seed", "-1"),
    ("fbl sweep", "--eps", "0"),
    ("fbl sweep", "--eps", "1"),
    ("fbl sweep", "--eps", "nan"),
    ("fbl sweep", "--b0-hz", "0"),
    ("fbl sweep", "--b0-hz", "inf"),
    ("fbl sweep", "--latency-s", "inf"),
    ("fbl sweep", "--gamma0-db-min", "nan"),
    ("fbl sweep", "--gamma0-db-max", "inf"),
    ("ratesel sweep", "--trials", "0"),
    ("ratesel sweep", "--eps", "0"),
    ("ratesel sweep", "--eps", "1"),
    ("ratesel sweep", "--eps", "nan"),
    ("ratesel sweep", "--xi", "1"),
    ("ratesel sweep", "--constraints", "bogus"),
    ("ratesel sweep", "--n-values", ""),
    ("ratesel sweep", "--theta", "inf"),
    ("access --scheme static", "--attempt-latency-s", "inf"),
    ("multiconn sweep", "--far-rel", "1.5"),
    ("multiconn sweep", "--archs", "bogus"),
])
def test_out_of_range_flag_writes_nothing(tmp_path, capsys, command, flag, value):
    out = tmp_path / "x.csv"
    assert run([*command.split(), "--out", str(out), flag, value]) == EXIT_USAGE
    assert not out.exists()
    err = capsys.readouterr().err
    assert flag in err
    # the converter's reason reaches the user, not just the rejected value
    assert _FLAG_REASONS[(flag, value)] in err


_FLAG_REASONS = {
    ("--trials", "0"): "must be >= 1, got 0",
    ("--seed", "-1"): "must be >= 0, got -1",
    ("--eps", "0"): "must be > 0.0, got 0.0",
    ("--eps", "1"): "must be < 1.0, got 1.0",
    ("--eps", "nan"): "must be > 0.0, got nan",
    ("--b0-hz", "0"): "must be > 0.0, got 0.0",
    ("--b0-hz", "inf"): "must be < inf, got inf",
    ("--latency-s", "inf"): "must be < inf, got inf",
    ("--gamma0-db-min", "nan"): "must be > -inf, got nan",
    ("--gamma0-db-max", "inf"): "must be < inf, got inf",
    ("--xi", "1"): "must be < 1.0, got 1.0",
    ("--constraints", "bogus"): "must be one of ('ar', 'pcr'), got 'bogus'",
    ("--n-values", ""): "empty list",
    ("--theta", "inf"): "must be < inf, got inf",
    ("--attempt-latency-s", "inf"): "must be < inf, got inf",
    ("--far-rel", "1.5"): "must be <= 1.0, got 1.5",
    ("--archs", "bogus"): "must be one of ('single', 'dc', 'ifd'), got 'bogus'",
}


@pytest.mark.parametrize("flag,value,reason", [
    # 1e4 * 1e5 * 1e300 overflows the capacity ceiling, which then never fires
    ("--latency-s", "1e300", "asymptotic_bits = inf"),
    # 10^(4000/10) overflows the reference SNR itself
    ("--gamma0-db-max", "4000", "gamma0 must be finite, got inf"),
])
def test_fbl_sweep_overflowing_budget_writes_nothing(tmp_path, capsys, recwarn,
                                                     flag, value, reason):
    out = tmp_path / "x.csv"
    assert run(["fbl", "sweep", "--out", str(out), flag, value]) == EXIT_USAGE
    assert not out.exists()
    assert reason in capsys.readouterr().err
    assert not recwarn.list


def test_fbl_sweep_at_3000_db_warns_nothing(tmp_path, capsys, recwarn, csv_body):
    # a reference SNR of 1e300 is a valid budget; the dispersion at its
    # per-use SNRs must not overflow on the way to the smallest bandwidth
    out = tmp_path / "fbl.csv"
    assert run(["fbl", "sweep", "--gamma0-db-min", "3000", "--gamma0-db-max", "3000",
                "--points", "1", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert not recwarn.list
    assert rows_of(csv_body(out)) == [["3000", "1000", "1000", "1", "1"]]


def test_fbl_sweep_reports_infeasible_points(tmp_path, csv_body):
    out = tmp_path / "fbl.csv"
    # the default range starts at 5 dB where separate encoding cannot fit
    assert run(["fbl", "sweep", "--out", str(out)]) == EXIT_INFEASIBLE
    body = csv_body(out)
    assert body.splitlines()[0] == \
        "gamma0_dB,B_joint_Hz,B_separate_Hz,feasible_joint,feasible_separate"
    rows = rows_of(body)
    assert len(rows) == 20
    assert rows[0][2] == "inf"
    assert rows[0][4] == "0"
    assert "infeasible" in out.read_text()


def test_fbl_sweep_feasible_range(tmp_path, csv_body):
    out = tmp_path / "fbl.csv"
    code = run(["fbl", "sweep", "--out", str(out),
                "--gamma0-db-min", "10", "--gamma0-db-max", "40",
                "--points", "7"])
    assert code == EXIT_OK
    rows = rows_of(csv_body(out))
    assert len(rows) == 7
    assert all(r[3] == "1" and r[4] == "1" for r in rows)
    # bandwidth shrinks as the reference SNR grows
    joint = [float(r[1]) for r in rows]
    assert all(a >= b for a, b in zip(joint, joint[1:]))


def test_fbl_sweep_rerun_identical(tmp_path, csv_body):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["--gamma0-db-min", "10", "--gamma0-db-max", "30", "--points", "5"]
    run(["fbl", "sweep", "--out", str(a)] + args)
    run(["fbl", "sweep", "--out", str(b)] + args)
    assert csv_body(a) == csv_body(b)


def test_access_json_to_stdout(capsys):
    assert run(["access", "--scheme", "four_step", "--eps-data", "1e-4",
                "--eps-sync", "1e-5"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["scheme"] == "four_step"
    profile = access.AccessErrorProfile(eps_sync=1e-5, eps_data=1e-4)
    assert doc["overall_error"] == pytest.approx(
        access.scheme_error("four_step", profile), rel=1e-12)
    assert doc["params"]["data"] == 1e-4
    assert "command" in doc


def test_access_files_and_cdf(tmp_path, csv_body):
    out = tmp_path / "access.json"
    cdf = tmp_path / "cdf.csv"
    code = run(["access", "--scheme", "grant_free", "--eps-data", "0.1",
                "--out", str(out), "--cdf-out", str(cdf),
                "--max-attempts", "6", "--attempt-latency-s", "2e-3"])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["overall_error"] == pytest.approx(0.1, rel=1e-12)
    body = csv_body(cdf)
    assert body.splitlines()[0] == "attempt,deadline_s,reliability"
    rows = rows_of(body)
    assert len(rows) == 6
    assert float(rows[0][1]) == pytest.approx(2e-3)
    assert float(rows[0][2]) == pytest.approx(0.9, rel=1e-12)
    assert "residual_error" in cdf.read_text()


def test_access_keeps_errors_below_double_spacing(tmp_path, capsys):
    cdf = tmp_path / "cdf.csv"
    assert run(["access", "--scheme", "static", "--eps-data", "1e-17",
                "--cdf-out", str(cdf)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["overall_error"] == 1e-17
    residual = next(ln for ln in cdf.read_text().splitlines()
                    if ln.startswith("# residual_error"))
    assert float(residual.split("=")[1]) == pytest.approx(1e-170, rel=1e-12, abs=0)


def test_access_rejects_bad_probability(capsys):
    assert run(["access", "--scheme", "static", "--eps-data", "1.5"]) == \
        EXIT_USAGE
    capsys.readouterr()


def test_framesync_sweep_small(tmp_path, csv_body):
    out = tmp_path / "fs.csv"
    code = run(["framesync", "sweep", "--out", str(out),
                "--nm-min", "4", "--nm-max", "6", "--payload-bits", "16",
                "--budget", "16", "--list-lengths", "1,2"])
    assert code == EXIT_OK
    body = csv_body(out)
    assert body.splitlines()[0] == "N_m,l,P_UB"
    rows = rows_of(body)
    assert len(rows) == 3 * 2
    by_nm = {}
    for nm, l, p in rows:
        assert 0.0 <= float(p) <= 1.0
        by_nm.setdefault(nm, []).append(float(p))
    for vals in by_nm.values():
        assert vals[0] <= vals[1]
    # the chosen markers are recorded in the header comments
    assert "marker" in out.read_text()


def test_framesync_sweep_prints_the_full_law_of_a_short_marker(tmp_path, csv_body):
    # 0000 reproduces about 64 times in 1024 bits; a law cut at 32 counts
    # read P_UB 4.66158132847e-05 here
    out = tmp_path / "fs.csv"
    assert run(["framesync", "sweep", "--out", str(out), "--nm-min", "4",
                "--nm-max", "4", "--payload-bits", "1024", "--budget", "16"]) == EXIT_OK
    assert rows_of(csv_body(out))[0] == ["4", "1", "0.0157813262669"]


def test_framesync_sweep_range_check(tmp_path, capsys):
    out = tmp_path / "fs.csv"
    assert run(["framesync", "sweep", "--out", str(out),
                "--nm-min", "8", "--nm-max", "4"]) == EXIT_USAGE
    assert not out.exists()
    capsys.readouterr()


def test_framesync_sweep_refuses_a_long_marker_after_one_search(tmp_path, capsys,
                                                              monkeypatch):
    # the searches run longest first, so the 65-bit climb, which the
    # search refuses, fails before the 25 shorter ones run
    lengths = []
    search = framesync.search_marker

    def counted(n_bits, *args, **kwargs):
        lengths.append(n_bits)
        return search(n_bits, *args, **kwargs)

    monkeypatch.setattr(framesync, "search_marker", counted)
    out = tmp_path / "fs.csv"
    assert run(["framesync", "sweep", "--out", str(out),
                "--nm-min", "40", "--nm-max", "65"]) == EXIT_USAGE
    assert lengths == [65] and not out.exists()
    assert "at most 64" in capsys.readouterr().err


def test_framesync_sweep_rows_do_not_depend_on_the_search_order(tmp_path, csv_body):
    # each length's search draws its own stream, so a 23-24 sweep is the
    # 23 sweep followed by the 24 sweep, rows and markers alike
    paths = {}
    for lo, hi in ((23, 24), (23, 23), (24, 24)):
        paths[lo, hi] = tmp_path / f"fs{lo}_{hi}.csv"
        assert run(["framesync", "sweep", "--out", str(paths[lo, hi]),
                    "--nm-min", str(lo), "--nm-max", str(hi)]) == EXIT_OK
    both = csv_body(paths[23, 24]).splitlines()
    one, two = (csv_body(paths[k]).splitlines() for k in ((23, 23), (24, 24)))
    assert both == one + two[1:]

    def markers(path):
        return [ln for ln in path.read_text().splitlines() if ln.startswith("# N_m")]

    assert markers(paths[23, 24]) == markers(paths[23, 23]) + markers(paths[24, 24])


def test_multiconn_sweep_default(tmp_path, csv_body):
    out = tmp_path / "mc.csv"
    assert run(["multiconn", "sweep", "--out", str(out)]) == EXIT_OK
    rows = rows_of(csv_body(out))
    assert len(rows) == 50 * 3
    outage = {}
    for q, arch, e2e in rows:
        outage[(q, arch)] = float(e2e)
    for (q, arch) in list(outage):
        if arch == "ifd":
            assert outage[(q, "ifd")] <= outage[(q, "dc")] + 1e-15


def test_multiconn_sweep_list_length_mismatch(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    assert run(["multiconn", "sweep", "--out", str(out),
                "--link-rels", "0.9,0.9,0.9",
                "--core-rels", "0.99,0.99"]) == EXIT_USAGE
    assert not out.exists()
    capsys.readouterr()


def test_ratesel_sweep_small(tmp_path, csv_body):
    out = tmp_path / "rs.csv"
    code = run(["ratesel", "sweep", "--out", str(out),
                "--trials", "5000", "--n-values", "1,2",
                "--constraints", "ar,pcr"])
    assert code == EXIT_OK
    body = csv_body(out)
    assert body.splitlines()[0] == "constraint,n,eps,xi,lambda,ci_lo,ci_hi"
    rows = rows_of(body)
    assert len(rows) == 4
    for r in rows:
        if r[0] == "ar":
            assert r[3] == ""
        else:
            assert float(r[3]) > 0.0
        assert 0.0 < float(r[4]) < 1.2


def test_ratesel_sweep_backs_off_below_1e_15(tmp_path, csv_body):
    # the pcr back-off at eps = 1e-17 is about 1e-18: a closed form, so no
    # bracket floor makes the sweep infeasible
    out = tmp_path / "rs.csv"
    assert run(["ratesel", "sweep", "--out", str(out), "--eps", "1e-17",
                "--trials", "2000", "--n-values", "1,10"]) == EXIT_OK
    rows = rows_of(csv_body(out))
    assert [r[0] for r in rows] == ["ar", "ar", "pcr", "pcr"]
    assert all(0.0 < float(r[4]) < 1.2 for r in rows)


def test_ratesel_sweep_worker_invariant_body(tmp_path, csv_body):
    args = ["--trials", "8000", "--n-values", "1,3", "--constraints", "ar"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["ratesel", "sweep", "--out", str(a), "--workers", "1"] + args)
    run(["ratesel", "sweep", "--out", str(b), "--workers", "4"] + args)
    assert csv_body(a) == csv_body(b)


_SCENARIO = """\
rx_antennas = 2
paths = 4
rho_db = 5
slots = 3
"""


def test_mimo_outputs_two_tables(tmp_path, csv_body):
    scn = tmp_path / "scn.txt"
    scn.write_text(_SCENARIO)
    out = tmp_path / "mimo.csv"
    code = run(["mimo", "--scenario", str(scn), "--out", str(out),
                "--trials", "2000"])
    assert code == EXIT_OK
    sinr = tmp_path / "mimo_sinr.csv"
    assert sinr.exists()
    per_rows = rows_of(csv_body(out))
    # five methods, three slots each, N column echoing rx antennas
    assert len(per_rows) == 5 * 3
    assert all(r[1] == "2" for r in per_rows)
    assert all(0.0 <= float(r[3]) <= 1.0 for r in per_rows)
    sinr_rows = rows_of(csv_body(sinr))
    assert len(sinr_rows) == 5
    header = csv_body(sinr).splitlines()[0].split(",")
    assert header[:2] == ["method", "N"]
    assert header[-1] == "mean_sinr_db"


def test_mimo_explicit_sinr_path(tmp_path):
    scn = tmp_path / "scn.txt"
    scn.write_text(_SCENARIO)
    out = tmp_path / "m.csv"
    sinr = tmp_path / "deep" "-percentiles.csv"
    code = run(["mimo", "--scenario", str(scn), "--out", str(out),
                "--sinr-out", str(sinr), "--trials", "1000"])
    assert code == EXIT_OK
    assert sinr.exists()


def test_mimo_unknown_scenario_key(tmp_path, capsys):
    # path powers always sum to 1 per cluster; no key switches that off
    for key in ("bogus", "normalize_power"):
        scn = tmp_path / "scn.txt"
        scn.write_text(f"{key} = 1\n")
        out = tmp_path / "m.csv"
        assert run(["mimo", "--scenario", str(scn), "--out", str(out)]) == \
            EXIT_USAGE
        assert not out.exists()
        assert f"unknown keys: {key}" in capsys.readouterr().err


def test_mimo_nan_scenario_value_writes_nothing(tmp_path, capsys):
    # rho_db has no bounds, so only the NaN check itself stops it; the
    # cluster centers must be finite, or the SVD fails naming no key
    for key, value in (("spread_deg", "nan"), ("rho_db", "nan"),
                       ("departure_centers_deg", "nan, 6"),
                       ("departure_centers_deg", "-6, -inf"),
                       ("arrival_centers_deg", "inf, 30"),
                       ("arrival_centers_deg", "-30, nan")):
        scn = tmp_path / "scn.txt"
        scn.write_text(f"{key} = {value}\n")
        out = tmp_path / "m.csv"
        assert run(["mimo", "--scenario", str(scn), "--out", str(out),
                    "--trials", "100"]) == EXIT_USAGE
        assert not out.exists()
        assert key in capsys.readouterr().err


def test_mimo_repeated_method_writes_nothing(tmp_path, capsys):
    scn = tmp_path / "scn.txt"
    scn.write_text("methods = all_sv_coh, strongest_sv_av, all_sv_coh\n")
    out = tmp_path / "m.csv"
    assert run(["mimo", "--scenario", str(scn), "--out", str(out),
                "--trials", "100"]) == EXIT_USAGE
    assert not out.exists() and not (tmp_path / "m_sinr.csv").exists()
    assert "'all_sv_coh' twice" in capsys.readouterr().err


def test_mimo_worker_invariant_body(tmp_path, csv_body):
    scn = tmp_path / "scn.txt"
    scn.write_text(_SCENARIO)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["mimo", "--scenario", str(scn), "--out", str(a),
         "--trials", "5000", "--workers", "1"])
    run(["mimo", "--scenario", str(scn), "--out", str(b),
         "--trials", "5000", "--workers", "3"])
    assert csv_body(a) == csv_body(b)
    assert csv_body(tmp_path / "a_sinr.csv") == csv_body(tmp_path / "b_sinr.csv")


def test_mimo_sinr_in_db_below_the_smallest_normal_float(tmp_path, csv_body):
    # at -3000 dB the SINRs lie near 1e-300 and below; each must print its
    # own dB value, 30 dB below the same row at -2970 dB, not a clamp
    sinr = {}
    for rho_db in (-3000, -2970):
        scn = tmp_path / f"rich4_{rho_db}.txt"
        scn.write_text("rx_antennas = 4\npaths = 4\nspread_deg = 1.0\n"
                       f"arrival_spread_deg = 120.0\nspan_db = 3.0\nrho_db = {rho_db}\n")
        out = tmp_path / f"m{rho_db}.csv"
        assert run(["mimo", "--scenario", str(scn), "--out", str(out),
                    "--trials", "2000"]) == EXIT_OK
        sinr[rho_db] = rows_of(csv_body(tmp_path / f"m{rho_db}_sinr.csv"))
    assert len(sinr[-3000]) == 5
    for low, high in zip(sinr[-3000], sinr[-2970]):
        assert low[:2] == high[:2]
        for a, b in zip(low[2:], high[2:]):
            assert float(a) == pytest.approx(float(b) - 30.0, abs=0.01)
