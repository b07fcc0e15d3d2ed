import json
import logging
import pathlib
import shlex

import pytest

from bgwf import harness
from bgwf.cli import build_parser, main


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # a flag the parser refuses
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_selftest(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_moment_theory_column(capsys):
    code, out, err = run_cli(
        ["moment", "--family", "catalan", "--n", "101", "--R", "5",
         "--alpha-prime", "2", "--beta", "0", "--seed", "42"], capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("mode,family,gamma")
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["theory"]) == pytest.approx(0.626657, abs=1e-6)
    assert cells["seed"] == "42"
    assert "# seed: 42" in err


def test_verbose_logs_size_snapping(capsys):
    # n=10 is off the Catalan span (odd sizes only)
    argv = ["moment", "--family", "catalan", "--n", "10", "--R", "2", "--seed", "1"]
    code, _, err = run_cli(argv + ["-v"], capsys)
    assert code == 0
    assert "# INFO size 10 not in the support; snapped to" in err
    code, _, err = run_cli(argv, capsys)
    assert code == 0 and "snapped" not in err


def test_verbose_does_not_repeat_through_root_handler(capsys):
    records = []
    root_handler = logging.Handler()
    root_handler.emit = records.append
    logging.getLogger().addHandler(root_handler)
    try:
        code, _, err = run_cli(["moment", "--family", "catalan", "--n", "10", "--R", "2",
                                "--seed", "1", "-v"], capsys)
    finally:
        logging.getLogger().removeHandler(root_handler)
    assert code == 0 and err.count("snapped to") == 1
    assert records == []
    assert logging.getLogger("bgwf").propagate


def test_llt_row(capsys):
    code, out, _ = run_cli(["llt", "--family", "catalan", "--n", "101"], capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["theory"]) == pytest.approx(0.398942, abs=1e-6)
    assert float(cells["estimate"]) == pytest.approx(0.396010, abs=1e-6)


def test_llt_acceptance_size(capsys):
    # the README's example: 10^4 snapped to the Catalan span
    code, out, _ = run_cli(["llt", "--family", "catalan", "--n", "10001"], capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["n"] == "10001"
    assert abs(float(cells["estimate"]) / float(cells["theory"]) - 1.0) <= 0.02


def test_llt_oversized_refused_before_any_work(monkeypatch, capsys):
    def no_convolution(*args):
        raise AssertionError("a convolution ran before the size check")

    monkeypatch.setattr(harness, "exact_walk_point_probability", no_convolution)
    code, out, err = run_cli(["llt", "--family", "catalan", "--n", "101", "3000001"], capsys)
    assert code == 64
    assert "n=3000001" in err and "multiply-adds" in err
    assert out == ""


def test_sample_dump(capsys):
    code, out, _ = run_cli(["sample", "--family", "geometric", "--n", "9", "--seed", "1"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,parent,degree,depth,subtree_size,subtree_height"
    assert len(lines) == 10
    assert lines[1].split(",")[4] == "9"  # root subtree size


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["moment", "--no-such-flag", "1"])
    assert err.value.code == 64


def test_invalid_range_usage_error(capsys):
    code, _, err = run_cli(
        ["moment", "--family", "stable", "--gamma", "3.0", "--c", "0.1",
         "--n", "11", "--R", "5", "--seed", "1"], capsys)
    assert code == 64
    assert "error" in err


@pytest.mark.parametrize("argv, names", [
    (["continuum", "--alpha", "-0.6"], "infinite"),
    (["continuum", "--levels", "0", "--m", "100"], "levels"),
    (["continuum", "--kappa", "0", "--m", "100"], "kappa"),
    (["continuum", "--kappa", "-1", "--m", "100"], "kappa"),
    (["moment", "--family", "pmf"], "--pmf"),
    (["phase-scan", "--n", "10", "11"], "distinct sizes"),  # 10 snaps onto 11 under the Catalan law
    (["phase-scan", "--n", "11"], "distinct sizes"),
    # a config file is the only way to give an empty size list
    (["moment", {"n": []}], "size list n"),
    (["tail", {"n": []}], "size list n"),
    (["height-moments", {"n": []}], "size list n"),
    (["phase-scan", {"n": []}], "size list n"),
    (["moment", "--family", "pmf", "--pmf", "1"], "k:p,..."),
    # an environment variable, which the test's --workers flag would override
    (["moment", "--n", "11", ("BGWF_WORKERS", "abc")], "BGWF_WORKERS"),
    # config values of the wrong type, checked even where a flag overrides them
    (["moment", "--n", "11", {"workers": "abc"}], "workers"),
    (["moment", "--n", "11", {"family": "pmf", "pmf": 5}], "pmf"),
    (["moment", {"n": 11.5}], "key n"),
    (["moment", "--n", "11", {"R": "7"}], "key R"),
    (["moment", "--n", "11", "--toll", "bogus"], "powerlog:A"),
    (["moment", "--n", "10001", "--alpha-prime", "100"], "n=10001"),
    (["moment", "--n", "10001", "--alpha-prime", "80", "--beta", "-5"], "n=10001"),
    # config keys the command has no option for, and flags it does not read
    (["moment", "--n", "11", {"replicates": 7}], "key replicates names no option of moment"),
    (["moment", "--n", "11", {"kappa": 0.5}], "key kappa names no option of moment"),
    (["moment", "--n", "11", {"family": "bogus"}], "key family takes one of"),
    (["llt", "--R", "5"], "unrecognized arguments: --R 5"),
    (["sample", "--workers", "2"], "unrecognized arguments: --workers 2"),
    (["continuum", "--n", "5"], "unrecognized arguments: --n 5"),
    (["moment", "--n", "11", "--alpha", "0.5"], "unrecognized arguments: --alpha 0.5"),
    # numbers that are not finite, as flags, in a config file and in --toll
    (["continuum", "--kappa", "nan", "--m", "100"], "--kappa"),
    (["continuum", "--kappa", "inf", "--m", "100"], "--kappa"),
    (["height-moments", "--n", "11", "--p", "nan"], "--p"),
    (["moment", "--n", "11", "--toll", "powerlog:inf"], "--toll"),
    (["continuum", "--m", "100", {"kappa": float("nan")}], "key kappa"),
    (["height-moments", "--n", "11", {"p": [1.0, float("inf")]}], "key p"),
], ids=["infinite-moment", "zero-levels", "zero-kappa", "negative-kappa", "pmf-without-table",
        "one-distinct-size", "one-size", "moment-no-sizes", "tail-no-sizes",
        "height-moments-no-sizes", "phase-scan-no-sizes", "pmf-not-pairs", "workers-env-not-integer",
        "config-workers-not-int", "config-pmf-not-str", "config-n-not-int", "config-R-not-int",
        "toll-not-powerlog", "sum-overflows", "sum-not-finite", "config-key-unknown",
        "config-key-of-another-command", "config-family-unknown", "llt-no-R", "sample-no-workers",
        "continuum-no-n", "no-abbreviated-flag", "nan-kappa", "inf-kappa", "nan-p", "powerlog-inf",
        "config-nan-kappa", "config-inf-p"])
def test_bad_request_is_usage_error(argv, names, capsys, tmp_path, monkeypatch):
    workers = ["--workers", "1"]
    if isinstance(argv[-1], dict):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + ["--config", str(path)]
    if isinstance(argv[-1], tuple):
        monkeypatch.setenv(*argv[-1])
        argv, workers = argv[:-1], []
    code, _, err = run_cli(argv + ["--R", "2", "--seed", "1"] + workers, capsys)
    assert code == 64
    last = err.splitlines()[-1]
    assert last.startswith("error: ") and names in last


@pytest.mark.parametrize("kappa, want", [("0", 64), ("0.5", 0)])
def test_excursion_dumped_only_for_an_accepted_request(kappa, want, tmp_path, capsys):
    dump = tmp_path / "exc.csv"
    code, _, _ = run_cli(["continuum", "--kappa", kappa, "--m", "100", "--R", "2", "--seed", "1",
                          "--dump-excursion", str(dump)], capsys)
    assert code == want
    assert dump.exists() == (want == 0)


_RUN = {"R": 8, "seed": 9, "workers": 1}


@pytest.mark.parametrize("command, cfg", [
    ("sample", {"family": "geometric", "n": 51, "seed": 9}),
    ("moment", {"family": "geometric", "n": [51], "alpha_prime": 1.0, "beta": 0.0, **_RUN}),
    ("phase-scan", {"family": "stable", "n": [51, 501], "alpha_prime": [0.5, 1.0], **_RUN}),
    ("llt", {"family": "pmf", "pmf": "0:0.5,2:0.5", "n": [51]}),
    ("height-moments", {"family": "geometric", "n": [51], "p": [1.0, 2.0], **_RUN}),
    ("tail", {"family": "catalan", "n": [51], **_RUN}),
    ("continuum", {"kappa": 0.25, "m": 100, "levels": 16, "alpha": 0.5, "beta": 1.0, **_RUN}),
], ids=["sample", "moment", "phase-scan", "llt", "height-moments", "tail", "continuum"])
def test_config_round_trip(command, cfg, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli([command, "--config", str(path), "--print-config"], capsys)
    assert code == 0
    resolved = json.loads(out)
    for key, val in cfg.items():
        assert resolved[key] == val
    # echoed config reparses to the identical resolved config, so it holds
    # no key the command refuses
    path2 = tmp_path / "cfg2.json"
    path2.write_text(out)
    code, out2, _ = run_cli([command, "--config", str(path2), "--print-config"], capsys)
    assert code == 0 and json.loads(out2) == resolved


def test_flags_override_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"family": "catalan", "n": [5], "R": 4, "seed": 2}))
    code, out, _ = run_cli(["moment", "--config", str(path), "--R", "6", "--print-config"], capsys)
    assert json.loads(out)["R"] == 6


def test_seed_reproducibility_and_workers(tmp_path, capsys):
    argv = ["moment", "--family", "geometric", "--n", "51", "--R", "12",
            "--alpha-prime", "1", "--beta", "0", "--seed", "77"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv + ["--workers", "2"], capsys)
    assert out1 == out2


def test_auto_seed_printed(capsys):
    code, _, err = run_cli(["sample", "--family", "catalan", "--n", "5"], capsys)
    assert code == 0
    assert "# seed:" in err


def test_continuum_command(capsys):
    # the default toll is x^0 u^0, with or without --alpha and --beta
    for toll_flags in (["--alpha", "0", "--beta", "0"], []):
        code, out, _ = run_cli(
            ["continuum", "--R", "30", "--m", "500", "--levels", "128", "--seed", "3"] + toll_flags,
            capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["theory"]) == pytest.approx(1.253314, abs=1e-5)


def test_csv_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["llt", "--family", "catalan", "--n", "9", "--out", str(out_path),
         "--json-out", str(json_path)], capsys)
    assert code == 0 and out == ""
    assert out_path.read_text().startswith("mode,family")
    assert json.loads(json_path.read_text())[0]["mode"] == "llt"


def test_power_log_row_and_warning(capsys):
    # |log x| x^-2 is finite exactly where x^-2 u^0 is: outside the global regime
    code, out, err = run_cli(["moment", "--toll", "powerlog:-2", "--n", "11", "--R", "2",
                              "--seed", "1"], capsys)
    assert code == 0
    assert "# WARNING toll |log x|*x^-2 is outside the global regime (margin -3)" in err
    header, row = out.strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert (cells["alpha_prime"], cells["beta"], cells["theory"]) == ("-1", "0", "")


def test_readme_cli_lines_parse():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("bgwf ")]
    assert len(lines) >= 8
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])
