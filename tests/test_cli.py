import itertools
import json
import multiprocessing
import multiprocessing.pool
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import siegelvec
from siegelvec import __version__
from siegelvec import chars, cli, finitegrp, models, numerics, padic
from siegelvec.cli import main
from siegelvec.finitegrp import build_field
from siegelvec.support import (COSET_TAGS, stratum_count, total_count,
                               base_count, al_fixed_cosets, coset_R_type)

from reference import induced_projector_ref


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_table_json_matches_counts(capsys):
    rc, out = run(capsys, ["table", "--q", "2", "--n-max", "10",
                           "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["version"] == __version__
    assert payload["config"]["q"] == 2
    assert len(payload["rows"]) == 11
    for row in payload["rows"]:
        n = row["n"]
        for tag in COSET_TAGS:
            assert row[tag] == stratum_count(tag, 2, n)
        assert row["total"] == total_count(2, n)
        assert row["base"] == base_count(2, n)


def test_table_json_byte_stable(capsys):
    _, first = run(capsys, ["table", "--q", "4", "--n-max", "6",
                            "--format", "json"])
    _, second = run(capsys, ["table", "--q", "4", "--n-max", "6",
                             "--format", "json"])
    assert first == second


def test_table_csv_layout(capsys):
    rc, out = run(capsys, ["table", "--q", "3", "--n-max", "4",
                           "--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n,I,II,IIIa,IIIb,IV,total,base"
    assert len(lines) == 6
    assert lines[4] == "3,1,0,0,0,0,1,1"


def test_support_listing(capsys):
    rc, out = run(capsys, ["support", "--q", "2", "--n", "7",
                           "--format", "json"])
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == total_count(2, 7)
    fq = build_field(2, 1)
    fixed = {(p.tag, p.i, p.j, p.u) for p in al_fixed_cosets(fq, 7)}
    got_fixed = {(r["tag"], r["i"], r["j"], r["u"]) for r in rows if r["fixed"]}
    assert got_fixed == fixed
    for r in rows:
        assert r["group"] == coset_R_type(r["tag"])


def test_verify_counts_passes(capsys):
    rc, out = run(capsys, ["verify", "--suite", "counts", "--q", "4",
                           "--n-max", "15", "--format", "json"])
    assert rc == 0
    checks = json.loads(out)["checks"]
    assert checks and all(c["ok"] for c in checks)


def test_verify_fixed_dims_passes(capsys):
    for q in ("2", "3"):
        rc, out = run(capsys, ["verify", "--suite", "fixed-dims", "--q", q,
                               "--format", "json"])
        assert rc == 0
        assert all(c["ok"] for c in json.loads(out)["checks"])


# check name, row key and whether a full label (else a constituent) is
# compared, for each case of chars.fixed_dim_closed
_FIXED_DIM_CHECKS = {
    "a": ("full label on torus matches closed value", "torus", True),
    "b": ("constituent on torus matches closed value", "torus", False),
    "c": ("full label on unipotent family matches closed value", "unip", True),
    "d": ("full label on Artin-Schreier family matches closed value", "artin",
          True),
}


@pytest.mark.parametrize("q,cases", [(2, "acd"), (3, "b"), (4, "acd"), (5, "ac"),
                                     (7, "abc"), (8, "acd"), (9, "ac")])
def test_fixed_dims_checks_only_the_cases_a_label_reached(capsys, q, cases):
    # at q=3 the only omega-trivial labels are one Plus/Minus pair: a check
    # on a full label there would compare nothing
    rc, out = run(capsys, ["verify", "--suite", "fixed-dims", "--q", str(q),
                           "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert [c["name"] for c in payload["checks"]] == [
        _FIXED_DIM_CHECKS[c][0] for c in cases]
    for case in cases:
        _, key, full = _FIXED_DIM_CHECKS[case]
        assert any(key in r and r["sigma"].endswith(",Full") == full
                   for r in payload["rows"]), case


@pytest.mark.parametrize("q", [2, 4, 8])
def test_stratum_weights_are_the_closed_fixed_dims_of_their_kind(q):
    _, checks = cli.suite_counts(q=q, n_max=0)
    detail = {c["name"]: c["detail"] for c in checks}[
        "weighted counts aggregate to closed base"]
    case = {"Torus": "a", "Unip": "c", "ArtinUnip": "d"}
    want = [chars.fixed_dim_closed(case[coset_R_type(tag)], q) for tag in COSET_TAGS]
    assert detail == f"weights ({','.join(map(str, want))})"


@pytest.mark.parametrize("q", [3, 4, 5])
def test_induced_projector_matches_the_per_element_mean(q):
    # the suite's traces are 0 whatever P holds; it reads P only through the
    # normalization certificate of models.twisted_trace
    ctx = build_field(*cli.FIELDS[q])
    sigma = next(s for s in cli._full_labels(ctx)
                 if not chars.self_twist_presentations(ctx, s))
    tm = models.model_for_sigma(ctx, sigma)
    for R in cli._standard_groups(ctx):
        got = cli._induced_projector(tm, R)
        assert np.abs(got - induced_projector_ref(tm, R)).max() < 1e-12, R.label
        assert np.abs(got @ got - got).max() < 1e-9, R.label


def test_induced_fails_a_coset_operator_that_moves_the_fixed_space(capsys,
                                                                    monkeypatch):
    # the first rows of GL22(4) in place of the normalizers: every trace is
    # still 0, so only the normalization certificate can see it
    ctx = build_field(*cli.FIELDS[4])
    wrong = itertools.cycle(finitegrp.gl22_elems(finitegrp.gl22_codes(ctx)[:32]))
    real = cli._induced_coset
    monkeypatch.setattr(cli, "_induced_coset", lambda tm, x: real(tm, next(wrong)))
    rc, out = run(capsys, ["verify", "--suite", "induced", "--q", "4",
                           "--format", "json"])
    payload = json.loads(out)
    assert rc == 2
    assert [c["ok"] for c in payload["checks"]] == [False, True]
    assert None in [r["max_abs_trace"] for r in payload["rows"]]


def test_verify_twists_covers_both_branches(capsys):
    rc, out = run(capsys, ["verify", "--suite", "twists", "--q", "3",
                           "--format", "json"])
    assert rc == 0
    rows = json.loads(out)["rows"]
    swaps = {r["closed"] for r in rows if r["operator"] == "swap"}
    assert swaps == {0, 2}
    for r in rows:
        assert r["model"] == r["closed"]


def test_verify_dims_passes(capsys):
    rc, out = run(capsys, ["verify", "--suite", "dims", "--q", "2",
                           "--n-max", "8", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert all(c["ok"] for c in payload["checks"])
    assert all(r["assembled"] == r["closed"] for r in payload["rows"])


def test_verify_signatures_passes(capsys):
    rc, out = run(capsys, ["verify", "--suite", "signatures", "--q", "2",
                           "--n-max", "9", "--format", "json"])
    assert rc == 0
    assert all(c["ok"] for c in json.loads(out)["checks"])


# the 22 identity tags, sorted: the rows name exactly these, so a dropped or
# renamed tag fails here and not only in a benchmark run
IDENTITY_TAGS = [
    "al-diag", "al-normalizes", "al-square", "al-x", "al-xyz", "al-yz",
    "det-torus", "levi-lower", "levi-x", "levi-xyz", "levi-yz", "lower-corner",
    "reduce-hom", "row-shear", "scale-x", "scale-y", "scale-z", "shear",
    "torus-unit", "u1-cert", "u1-conj", "upper-shear",
]


def test_verify_identities_small_draws(capsys):
    rc, out = run(capsys, ["verify", "--suite", "identities", "--q", "2",
                           "--draws", "3", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["seed"] == 0
    assert [r["identity"] for r in payload["rows"]] == IDENTITY_TAGS
    assert all(r["draws"] == 3 for r in payload["rows"])


def test_rg_rows_and_checks_do_not_depend_on_the_seed():
    # the seed moves every per-coset draw count, never a row or a check
    runs = [cli.suite_rg(q=2, seed=seed, n_max=6, precision=32) for seed in (0, 1, 2)]
    rows, checks = runs[0]
    assert len(rows) == 24 and all(c["ok"] for c in checks)
    assert all(run == runs[0] for run in runs[1:])


def test_text_format_reports_checks(capsys):
    rc, out = run(capsys, ["verify", "--suite", "counts", "--q", "2"])
    assert rc == 0
    assert "check enumeration matches closed stratum counts: pass" in out


def test_exit_code_on_failed_check(capsys, monkeypatch):
    def broken(**_):
        return [], [{"name": "forced", "ok": False, "detail": ""}]
    monkeypatch.setitem(cli.SUITES, "counts", broken)
    rc, out = run(capsys, ["verify", "--suite", "counts", "--q", "2"])
    assert rc == 2
    assert "FAIL" in out


def test_a_suite_that_emits_no_check_fails(capsys, monkeypatch):
    monkeypatch.setitem(cli.SUITES, "counts", lambda **_: ([], []))
    rc, out = run(capsys, ["verify", "--suite", "counts", "--q", "2",
                           "--format", "json"])
    assert rc == 2
    assert json.loads(out)["checks"] == [
        {"name": "counts suite emitted a check", "ok": False, "detail": ""}]


def test_exit_code_on_bad_field(capsys):
    assert main(["table", "--q", "6"]) == 3
    assert main(["verify", "--suite", "rg", "--q", "3"]) == 3
    assert main(["verify", "--suite", "identities", "--q", "6"]) == 3
    capsys.readouterr()


def test_exit_code_on_numerical_refusal(capsys, monkeypatch):
    def refuse(*_):
        raise models.UncertifiedNullity("no spectral gap")
    monkeypatch.setattr(models, "_nullspace", refuse)
    assert main(["verify", "--suite", "oracle", "--q", "3"]) == 3
    err = capsys.readouterr().err
    assert err == "siegel: no spectral gap\n"


def test_exit_code_on_an_ambiguous_t_condition(capsys, monkeypatch):
    # a phase of 1e-3 on the conjugation by t moves the fixed eigenvalues
    # of the t-condition Gram from 0 to about 4e-6, inside the gap band
    real = models._conjugation_action
    monkeypatch.setattr(models, "_conjugation_action",
                        lambda C, T: np.exp(1e-3j) * real(C, T))
    with pytest.raises(models.UncertifiedNullity, match="no spectral gap"):
        models.commutant_dim(models.TensorModel(build_field(3, 1), 2, 6))
    assert main(["verify", "--suite", "oracle", "--q", "3"]) == 3
    assert capsys.readouterr().err.startswith("siegel: no spectral gap")


def test_exit_code_on_sampling_budget(capsys, monkeypatch):
    def exhausted(g, n, seed=0):
        raise padic.StabilizationFailure("no stable window")
    monkeypatch.setattr(padic, "compute_Rg", exhausted)
    assert main(["verify", "--suite", "rg", "--q", "2", "--n-max", "3"]) == 3
    assert capsys.readouterr().err == "siegel: no stable window\n"


@pytest.mark.parametrize("module,name,exc,argv", [
    (chars, "_average_dim", numerics.NotAnInteger("0.5 is not an integer"),
     ["fixed-dims", "--q", "3"]),
    (chars, "_average_dim", chars.OracleRequired("needs the oracle"),
     ["fixed-dims", "--q", "3"]),
    (padic, "witness_Rg", padic.NotInK("pattern violation"),
     ["rg", "--q", "2", "--n-max", "3"]),
], ids=["NotAnInteger", "OracleRequired", "NotInK"])
def test_exit_code_on_library_refusal(capsys, monkeypatch, module, name, exc, argv):
    def refuse(*_, **__):
        raise exc
    monkeypatch.setattr(module, name, refuse)
    assert main(["verify", "--suite"] + argv) == 3
    assert capsys.readouterr().err == f"siegel: {exc}\n"


# the first identity draw each run cannot decide, and how many of its
# comparisons are undecided; a faster product must not move either
PRECISION_EXITS = [
    ("4", "16", "0", "row-shear draw 61 (seed 0): 1 of 16"),
    ("4", "16", "2", "row-shear draw 40 (seed 2): 1 of 16"),
    ("2", "8", "0", "det-torus draw 6 (seed 0): 2 of 16"),
    ("3", "8", "0", "det-torus draw 53 (seed 0): 1 of 16"),
    ("3", "8", "2", "levi-lower draw 0 (seed 2): 2 of 16"),
]


def test_precision_exit_names_the_identity_and_draw(capsys):
    for q, prec, seed, where in PRECISION_EXITS:
        rc = main(["verify", "--suite", "identities", "--q", q, "--precision", prec,
                   "--seed", seed])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"siegel: {where} comparisons undecided at the working precision\n")


# Runs one command and reports, on its stdout, the command's exit code,
# wall time and peak RSS.  ru_maxrss of a child includes the high-water mark
# of the process that spawned it (vfork keeps that process's memory until
# exec, and exec records its peak), so the command is spawned from this
# small process and not from the test process, whose own peak it would read.
_TRAMPOLINE = """\
import os, subprocess, sys, time
start = time.perf_counter()
with open(sys.argv[1], "w") as out:
    child = subprocess.Popen(sys.argv[2:], stdout=out)
    _, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), time.perf_counter() - start,
      usage.ru_maxrss / 1024)  # ru_maxrss is in KiB on Linux
"""


def _fresh_child(tmp_path, argv: list) -> tuple[int, float, float]:
    """(exit code, wall s, peak RSS MB) of `siegel argv --format json` in a
    fresh process, its output in tmp_path / "out.json"."""
    src = os.path.dirname(os.path.dirname(siegelvec.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _TRAMPOLINE, str(tmp_path / "out.json"),
         sys.executable, "-m", "siegelvec.cli", *argv, "--format", "json"],
        env=env, capture_output=True, text=True, check=True)
    code, wall, peak = done.stdout.split()
    return int(code), float(wall), float(peak)


def test_oracle_q5_peak_memory(tmp_path):
    code, _, peak = _fresh_child(tmp_path, ["verify", "--suite", "oracle", "--q", "5"])
    assert code == 0
    assert peak < 150


def test_induced_q9_scans_gl22_within_a_minute_and_200_mb(tmp_path):
    # GL22(9) has 4,147,200 elements; the scan holds them as one uint8 code
    # array and tests them in chunks, so the run needs no gate
    code, wall, peak = _fresh_child(tmp_path,
                                    ["verify", "--suite", "induced", "--q", "9"])
    assert code == 0
    assert wall < 60
    assert peak < 200
    rows = json.loads((tmp_path / "out.json").read_text())["rows"]
    # |N(T)| = 4 (q-1)^3 for the torus, 2 q^2 (q-1)^2 for the diagonal
    # unipotent family; the radical lines have no normalizing coset element
    assert [r["normalizers"] for r in rows] == [2048, 10368, 0, 0]
    assert all(r["normalizers"] + r["rejected"] == 4147200 for r in rows)


def test_oracle_q9_passes_within_a_minute_and_100_mb(tmp_path):
    # the commutant is solved factor by factor, on Grams of side (q-1)^2 =
    # 64, where one Gram over the whole pair would have side 4096; the
    # averages hold the 36 second-factor stacks of one group (19 MB for
    # the torus) and one first-factor stack at a time
    code, wall, peak = _fresh_child(tmp_path,
                                    ["verify", "--suite", "oracle", "--q", "9"])
    assert code == 0
    assert wall < 60
    assert peak < 100
    checks = json.loads((tmp_path / "out.json").read_text())["checks"]
    assert len(checks) == 3 and all(c["ok"] for c in checks)


@pytest.mark.parametrize("argv,line", [
    (["support", "--q", "9", "--n", "100000"],
     "siegel: more than 300000 cosets at level 100000, q=9\n"),
    (["table", "--q", "2", "--n-max", "100000000"],
     "siegel: more than 300000 rows in a table to level 100000000\n"),
    (["verify", "--suite", "counts", "--q", "9", "--n-max", "100000"],
     "siegel: more than 300000 cosets at levels 0..100000, q=9\n"),
    (["verify", "--suite", "dims", "--q", "9", "--n-max", "100000"],
     "siegel: more than 300000 rows in dims to level 100000, q=9\n"),
    (["verify", "--suite", "signatures", "--q", "2", "--n-max", "1000000"],
     "siegel: more than 300000 rows in signatures to level 1000000, q=2\n"),
    (["verify", "--suite", "rg", "--q", "2", "--n-max", "40"],
     "siegel: more than 10000 cosets at levels 3..40, q=2\n"),
])
def test_oversized_enumerations_are_refused_at_once(capsys, argv, line):
    # each would build billions of cosets, millions of rows or, for rg,
    # 25,762 sampled cosets; the closed counts refuse it before the first
    # is built
    t0 = time.perf_counter()
    rc = main(argv)
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert rc == 3 and captured.err == line and captured.out == ""


def test_the_row_limit_admits_the_largest_enumeration_in_use():
    # counts --q 8 --n-max 60 (tests and benchmark) walks the most cosets
    assert sum(total_count(8, n) for n in range(61)) == 269_112 <= cli.MAX_ROWS


def _stop_at_sampling(monkeypatch):
    class Sampling(Exception):
        pass

    def stop(*args, **kwargs):
        raise Sampling
    monkeypatch.setattr(padic, "witness_Rg", stop)
    monkeypatch.setattr(padic, "compute_Rg", stop)
    return Sampling


def test_rg_weighs_exact_path_cosets_before_sampling(capsys, monkeypatch):
    # at precision 16, 6,660 of the 9,023 cosets of levels 3..29 have a
    # representative RgKernel cannot decide, each some 70 ms on the exact
    # path: about 8 minutes, refused before the first draw
    _stop_at_sampling(monkeypatch)
    rc = main(["verify", "--suite", "rg", "--q", "2", "--n-max", "29",
               "--precision", "16"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert captured.err == (
        "siegel: more than 10000 cost-weighted cosets to sample at levels 3..29,"
        " precision 16 (6660 on the exact path, each weighing 12)\n")


def test_rg_admits_every_default_precision_run_below_the_coset_cap(monkeypatch):
    # levels 3..28 hold 8,032 cosets and none on the exact path
    sampling = _stop_at_sampling(monkeypatch)
    with pytest.raises(sampling):
        cli.suite_rg(q=2, seed=0, n_max=28, precision=32)


def test_rg_passes_at_low_precision_on_the_exact_path():
    # 14 of the 24 cosets of levels 3..6 reduce every draw exactly
    rows, checks = cli.suite_rg(q=2, seed=0, n_max=6, precision=8)
    assert len(rows) == 24 and all(c["ok"] for c in checks)


NEGATIVE_SEED_RG = ["verify", "--suite", "rg", "--q", "2", "--n-max", "3",
                    "--seed", "-1"]
NEGATIVE_SEED_IDENTITIES = ["verify", "--suite", "identities", "--q", "2",
                            "--seed", "-1", "--draws", "2"]


def test_exit_code_on_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense", "--q", "2"])
    assert exc.value.code == 4
    with pytest.raises(SystemExit) as exc:
        main(["table"])
    assert exc.value.code == 4
    for argv in (["support", "--q", "2", "--n", "-3"],
                 ["table", "--q", "2", "--n-max", "-1"],
                 ["verify", "--suite", "dims", "--q", "2", "--n-max", "-1"],
                 ["verify", "--suite", "identities", "--q", "2",
                  "--precision", "3"],
                 ["verify", "--suite", "identities", "--q", "2", "--draws", "0"],
                 ["verify", "--suite", "identities", "--q", "2", "--draws", "-3"],
                 NEGATIVE_SEED_RG, NEGATIVE_SEED_IDENTITIES):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 4


@pytest.mark.parametrize("argv,error", [
    (["support", "--q", "2", "--n", "-3"],
     "siegel support: error: argument --n: level must be non-negative, got -3"),
    (["table", "--q", "2", "--n-max", "x"],
     "siegel table: error: argument --n-max: invalid _level value: 'x'"),
    (["verify", "--suite", "rg", "--q", "2", "--seed", "-1"],
     "siegel verify: error: argument --seed: seed must be non-negative, got -1"),
    (["verify", "--suite", "identities", "--q", "2", "--draws", "0"],
     "siegel verify: error: argument --draws: draws must be at least 1, got 0"),
])
def test_integer_option_error_texts(capsys, argv, error):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 4
    assert capsys.readouterr().err.splitlines()[-1] == error


def test_exit_code_when_a_check_compares_nothing(capsys):
    # below level 3 there are no signature triples, no sampled cosets and
    # no off-support triples
    for argv, failed in (
            (["verify", "--suite", "signatures", "--q", "2", "--n-max", "2"],
             ["assembled involution traces match the closed formula"]),
            (["verify", "--suite", "rg", "--q", "2", "--n-max", "2"],
             ["witness subgroups conjugate to table kinds",
              "sampled subgroups equal witnessed subgroups",
              "off-support cosets show a radical obstruction"])):
        rc, out = run(capsys, argv + ["--format", "json"])
        assert rc == 2
        payload = json.loads(out)
        assert payload["rows"] == []
        assert [c["name"] for c in payload["checks"] if not c["ok"]] == failed


GRID = [["verify", "--suite", "identities", "--q", q, "--precision", prec,
         "--draws", "3"]
        for q in ("2", "3", "4", "6") for prec in ("4", "5", "8", "12")]
GRID += [["verify", "--suite", suite, "--q", q, "--n-max", "2", "--draws", "2"]
         for suite in sorted(cli.SUITES) for q in ("2", "3", "4")]
GRID += [[cmd, "--q", q, flag, n]
         for cmd, flag in (("table", "--n-max"), ("support", "--n"))
         for q in ("2", "3", "4") for n in ("0", "1", "2")]
GRID += [NEGATIVE_SEED_RG, NEGATIVE_SEED_IDENTITIES]


@pytest.mark.parametrize("argv", GRID, ids=" ".join)
def test_cli_grid_ends_in_a_documented_exit_code(capsys, argv):
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    err = capsys.readouterr().err
    assert rc in (0, 2, 3, 4)
    assert "Traceback" not in err
    if rc == 3:
        assert err.count("\n") == 1 and err.startswith("siegel: ")


def test_identity_failure_fails_the_check(capsys, monkeypatch):
    def broken(ctx, rng):
        padic._expect("shear", False, "i=1 j=2")
    monkeypatch.setitem(padic.IDENTITY_TAGS, "shear", broken)
    rc, out = run(capsys, ["verify", "--suite", "identities", "--q", "2",
                           "--draws", "3", "--format", "json"])
    assert rc == 2
    payload = json.loads(out)
    assert {"identity": "shear", "draws": 0} in payload["rows"]
    (check,) = payload["checks"]
    assert not check["ok"] and "shear failed (shear: i=1 j=2)" in check["detail"]


# the identity tags run in forked workers, one per CPU in the affinity
# mask; a mask of one CPU runs them in this process

def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1])
def test_identities_are_the_same_on_one_and_two_cpus(monkeypatch, q, seed):
    runs = []
    for n in (1, 2):
        _cpus(monkeypatch, n)
        runs.append(cli.suite_identities(q=q, seed=seed, draws=10, precision=32))
        assert multiprocessing.active_children() == []
    assert runs[0] == runs[1]
    rows, checks = runs[0]
    assert len(rows) == 22 and all(c["ok"] for c in checks)


@pytest.mark.parametrize("cpus", [1, 2])
def test_identity_failures_are_listed_in_tag_order(monkeypatch, cpus):
    # the failure text carries the pid of the process that ran the tag
    def broken(ctx, rng):
        padic._expect("broken", False, f"pid {os.getpid()}")
    _cpus(monkeypatch, cpus)
    monkeypatch.setitem(padic.IDENTITY_TAGS, "shear", broken)
    monkeypatch.setitem(padic.IDENTITY_TAGS, "al-x", broken)
    rows, (check,) = cli.suite_identities(q=2, seed=0, draws=3, precision=32)
    assert multiprocessing.active_children() == []
    assert not check["ok"]
    failed = check["detail"].split("; ")[1:]
    assert [f.split(" ")[0] for f in failed] == ["al-x", "shear"]
    pids = {f.rsplit(" ", 1)[1].rstrip(")") for f in failed}
    assert (pids == {str(os.getpid())}) == (cpus == 1)
    assert {r["identity"]: r["draws"] for r in rows if r["draws"] != 3} == {
        "al-x": 0, "shear": 0}


@pytest.mark.parametrize("cpus", [1, 2])
def test_first_precision_exit_in_tag_order_wins(capsys, monkeypatch, cpus):
    # levi-x sorts before levi-xyz, and the two run side by side on two
    # CPUs; levi-x raises last, but its message is the one reported
    def slow(ctx, rng):
        time.sleep(0.2)
        raise padic.PrecisionExhausted("slow")

    def fast(ctx, rng):
        raise padic.PrecisionExhausted("fast")
    _cpus(monkeypatch, cpus)
    monkeypatch.setitem(padic.IDENTITY_TAGS, "levi-x", slow)
    monkeypatch.setitem(padic.IDENTITY_TAGS, "levi-xyz", fast)
    assert main(["verify", "--suite", "identities", "--q", "2"]) == 3
    assert multiprocessing.active_children() == []
    assert capsys.readouterr().err == "siegel: levi-x draw 0 (seed 0): slow\n"


def test_a_refusing_worker_closes_the_pool_before_it_is_torn_down(
        capsys, monkeypatch):
    # a worker's exception that left the pool's `with` block would make
    # Pool.__exit__ terminate a running pool, whose task handler can block
    # on a full queue and hang the call; closed first, terminate only reaps
    states = []
    real = multiprocessing.pool.Pool.terminate

    def terminate(self):
        states.append(self._state)
        real(self)
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(multiprocessing.pool.Pool, "terminate", terminate)
    assert main(["verify", "--suite", "identities", "--q", "2", "--precision", "8",
                 "--seed", "0"]) == 3
    assert capsys.readouterr().err == (
        "siegel: det-torus draw 6 (seed 0): 2 of 16 comparisons undecided at "
        "the working precision\n")
    assert states and all(s == multiprocessing.pool.CLOSE for s in states)
    assert multiprocessing.active_children() == []


def test_identities_leave_no_process_behind(tmp_path):
    # the command is the leader of its own process group: once it is reaped,
    # any worker still alive would keep the group in existence
    src = os.path.dirname(os.path.dirname(siegelvec.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    with open(tmp_path / "out.json", "w") as out:
        child = subprocess.Popen(
            [sys.executable, "-m", "siegelvec.cli", "verify", "--suite",
             "identities", "--q", "2", "--format", "json"],
            stdout=out, env=env, start_new_session=True)
        _, status, _ = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    assert child.returncode == 0
    with pytest.raises(ProcessLookupError):
        os.killpg(child.pid, 0)
    assert len(json.loads((tmp_path / "out.json").read_text())["rows"]) == 22


def test_importing_the_cli_does_not_import_multiprocessing():
    src = os.path.dirname(os.path.dirname(siegelvec.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, siegelvec.cli; print('multiprocessing' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0 and child.stdout == "False\n"


_LOADED = """\
import contextlib, io, json, sys
from siegelvec.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""


def _loaded_modules(argv: list, code: int = 0) -> set:
    """The modules a fresh process has imported after `siegel argv`, which
    must exit with the given code."""
    src = os.path.dirname(os.path.dirname(siegelvec.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.run([sys.executable, "-c", _LOADED, *argv], env=env,
                           capture_output=True, text=True, timeout=120, check=True)
    got, modules = json.loads(child.stdout)
    assert got == code
    return set(modules)


@pytest.mark.parametrize("argv", [
    ["table", "--q", "8", "--n-max", "60"],
    ["support", "--q", "8", "--n", "20"],
    ["verify", "--suite", "counts", "--q", "8", "--n-max", "60"],
    ["--version"],
], ids=["table", "support", "counts", "version"])
def test_closed_count_commands_never_import_numpy(argv):
    assert "numpy" not in _loaded_modules(argv)


@pytest.mark.parametrize("argv", [
    ["table", "--q", "6"],
    ["support", "--q", "9", "--n", "100000"],
    ["verify", "--suite", "rg", "--q", "3"],
    ["verify", "--suite", "rg", "--q", "2", "--precision", str(cli.MAX_PRECISION + 1)],
    ["verify", "--suite", "identities", "--q", "2",
     "--draws", str(cli.MAX_IDENTITY_DRAWS + 1)],
], ids=["table-field", "support-budget", "rg-field", "rg-precision", "identities-draws"])
def test_refusals_decided_from_the_arguments_never_import_numpy(argv):
    assert "numpy" not in _loaded_modules(argv, code=3)


REFUSALS = [
    (cli.ConfigError, Exception),
    (numerics.NotAnInteger, ArithmeticError),
    (chars.BadCase, ValueError),
    (chars.OracleRequired, RuntimeError),
    (models.UncertifiedNullity, ArithmeticError),
    (models.ProjectorRankMismatch, ArithmeticError),
    (models.NoIntertwiner, ArithmeticError),
    (padic.NotInK, ValueError),
    (padic.PrecisionExhausted, ArithmeticError),
    (padic.StabilizationFailure, RuntimeError),
]


@pytest.mark.parametrize("exc,base", REFUSALS, ids=[e.__name__ for e, _ in REFUSALS])
def test_exit_3_refusals_keep_their_bases(exc, base):
    assert issubclass(exc, numerics.Refusal) and issubclass(exc, base)


@pytest.mark.parametrize("exc", [
    padic.NotSymplectic, padic.IdentityFailure, chars.HypothesisViolated,
    models.NotNormalizing, finitegrp.BadKind, numerics.UnsupportedSize,
], ids=lambda e: e.__name__)
def test_defects_are_not_refusals(capsys, monkeypatch, exc):
    # a defect ends in a traceback (exit 1), never in a quiet exit 3
    assert not issubclass(exc, numerics.Refusal)

    def broken(**_):
        raise exc("defect")
    monkeypatch.setitem(cli.SUITES, "counts", broken)
    with pytest.raises(exc):
        main(["verify", "--suite", "counts", "--q", "2"])


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "fixed-dims", "--q", "4"],
    ["verify", "--suite", "dims", "--q", "4", "--n-max", "12"],
], ids=["fixed-dims", "dims"])
def test_closed_dimension_suites_never_import_the_models(argv):
    assert "siegelvec.models" not in _loaded_modules(argv)


def test_oracle_never_imports_the_padic_layer():
    loaded = _loaded_modules(["verify", "--suite", "oracle", "--q", "3"])
    assert "siegelvec.models" in loaded and "siegelvec.padic" not in loaded


def test_oracle_never_imports_numpy_random():
    # the constituent split's two generic coefficients are written out
    assert "numpy.random" not in _loaded_modules(
        ["verify", "--suite", "oracle", "--q", "3"])


def test_oracle_refuses_a_model_with_true_traces_that_is_no_representation(
        capsys, monkeypatch):
    # conjugating each matrix by a diagonal phase of its own element keeps
    # every trace, so the character check at build time still passes, and
    # breaks multiplicativity, so no average over a subgroup is a projector
    mats = models.CuspidalModel.mats

    def mutant(self, elems):
        M = mats(self, elems)
        codes = np.asarray(elems, dtype=np.int64).reshape(len(M), 4)
        d = np.exp(2j * np.pi * np.outer(codes @ [1, 2, 3, 5],
                                         np.arange(1, self.dim + 1)) / 7)
        return d[:, :, None] * M * d.conj()[:, None, :]

    monkeypatch.setattr(models.CuspidalModel, "mats", mutant)
    monkeypatch.setattr(models, "_MODEL_CACHE", {})  # no mutant matrix outlives the test
    assert main(["verify", "--suite", "oracle", "--q", "5"]) == 3
    assert "not an orthogonal projector" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out
