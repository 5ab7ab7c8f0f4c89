import json
import os
import subprocess
import sys

import pytest

import siegelvec
from siegelvec import __version__
from siegelvec import chars, cli, models, numerics, padic
from siegelvec.cli import main
from siegelvec.finitegrp import build_field
from siegelvec.support import (COSET_TAGS, stratum_count, total_count,
                               base_count, al_fixed_cosets, coset_R_type)


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


def test_verify_identities_small_draws(capsys):
    rc, out = run(capsys, ["verify", "--suite", "identities", "--q", "2",
                           "--draws", "3", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["seed"] == 0
    assert len(payload["rows"]) == 22
    assert all(r["draws"] == 3 for r in payload["rows"])


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


def test_precision_exit_names_the_identity_and_draw(capsys):
    rc = main(["verify", "--suite", "identities", "--q", "4", "--precision", "16"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.count("\n") == 1
    assert err.startswith("siegel: row-shear draw ") and "(seed 0)" in err


def test_oracle_q5_peak_memory(tmp_path):
    src = os.path.dirname(os.path.dirname(siegelvec.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    with open(tmp_path / "out.json", "w") as out:
        child = subprocess.Popen(
            [sys.executable, "-m", "siegelvec.cli", "verify", "--suite",
             "oracle", "--q", "5", "--format", "json"], stdout=out, env=env)
        _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    assert child.returncode == 0
    assert usage.ru_maxrss / 1024 < 150  # ru_maxrss is in KiB on Linux


def test_oracle_q9_is_refused_before_any_model_is_built():
    # without the gate the run builds commutant Grams of side 4096 and
    # takes minutes; the refusal must come at once
    src = os.path.dirname(os.path.dirname(siegelvec.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.run(
        [sys.executable, "-m", "siegelvec.cli", "verify", "--suite", "oracle",
         "--q", "9"], env=env, capture_output=True, text=True, timeout=20)
    assert child.returncode == 3
    assert child.stdout == ""
    assert child.stderr.count("\n") == 1
    assert child.stderr.startswith("siegel: oracle runs up to q=8")


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out
