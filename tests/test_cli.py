import hashlib
import json
import re
import subprocess
import sys

import pytest

from summatoria import cli, sieve
from summatoria.cli import main, parse_checkpoints


def run_cli(*argv, capsys):
    status = main(list(argv))
    out, err = capsys.readouterr()
    return status, out, err


def test_compute_mertens_csv(capsys):
    status, out, _ = run_cli("compute", "--function", "mu", "--N", "10",
                             "--checkpoints", "10", capsys=capsys)
    assert status == 0
    assert out == "n,S\n10,-1\n"


def test_compute_default_checkpoints(capsys):
    status, out, _ = run_cli("compute", "--function", "lambda", "--N", "100",
                             capsys=capsys)
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "n,S"
    assert [row.split(",")[0] for row in lines[1:]] == ["10", "20", "40", "80"]


def test_compute_to_file_and_repeatability(tmp_path, capsys):
    target = tmp_path / "trace.csv"
    args = ("compute", "--function", "mu-over-k", "--N", "50000",
            "--checkpoints", "geometric(10,4)", "--output", str(target))
    assert run_cli(*args, capsys=capsys)[0] == 0
    first = target.read_bytes()
    assert run_cli(*args, capsys=capsys)[0] == 0
    assert target.read_bytes() == first


def test_compute_thread_count_does_not_change_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ("compute", "--function", "mu-over-k", "--N", "200000",
            "--checkpoints", "geometric(10,2)")
    assert run_cli(*base, "--threads", "1", "--output", str(a), capsys=capsys)[0] == 0
    assert run_cli(*base, "--threads", "4", "--output", str(b), capsys=capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_verdict_log2_example(capsys):
    status, out, _ = run_cli("verdict", "--function", "synth:log2",
                             "--N", "1000000", "--checkpoints", "geometric(10,2)",
                             capsys=capsys)
    assert status == 0
    doc = json.loads(out)
    assert doc["conditions_met"] is True
    assert doc["mu0_hat"] == pytest.approx(0.5, abs=1e-3)
    assert list(doc) == ["function", "N", "checkpoints", "mu0_hat", "mean_rate",
                         "asymptotic_form", "ks_trace", "conditions_met", "notes"]


def test_verdict_rejects_csv_format(capsys):
    status, _, err = run_cli("verdict", "--function", "mu", "--N", "100",
                             "--format", "csv", capsys=capsys)
    assert status == 1
    assert "JSON" in err


def test_synth_csv_and_schedule_json(capsys):
    status, out, _ = run_cli("synth", "--function", "synth:log", "--N", "4",
                             capsys=capsys)
    assert status == 0
    assert out.splitlines()[0] == "k,f"
    assert len(out.splitlines()) == 5
    status, out, _ = run_cli("synth", "--function", "synth:log", "--N", "4",
                             "--format", "json", capsys=capsys)
    assert status == 0
    doc = json.loads(out)
    assert doc["perturbation"]["kind"] == "log"
    assert doc["values"] == [1.0, -1.0]


def test_synth_schedule_json_needs_no_n(capsys):
    status, out, _ = run_cli("synth", "--function", "synth:log", "--format", "json",
                             capsys=capsys)
    assert status == 0
    assert out == run_cli("synth", "--function", "synth:log", "--N", "9",
                          "--format", "json", capsys=capsys)[1]
    # the bytes of the pinned README-table golden
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "15b1ea91cf1f85d5b8e0a7f3e6fbef571f03efe6cbecb67a88fb0d737a0a4a5c")


def test_synth_csv_without_n_exits_one(capsys):
    status, out, err = run_cli("synth", "--function", "synth:log", capsys=capsys)
    assert status == 1
    assert out == ""
    assert "--N" in err


def test_file_sequence_round_trip(tmp_path, capsys):
    path = tmp_path / "seq.csv"
    status, out, _ = run_cli("synth", "--function", "synth:log2", "--N", "1000",
                             "--output", str(path), capsys=capsys)
    assert status == 0
    status, out, _ = run_cli("compute", "--function", f"file:{path}", "--N", "1000",
                             "--checkpoints", "10,1000", capsys=capsys)
    assert status == 0
    rows = out.splitlines()
    assert rows[1].startswith("10,") and rows[2].startswith("1000,")


def test_analyze_json_report(capsys):
    status, out, _ = run_cli("analyze", "--function", "mu", "--N", "10000",
                             "--lag", "1,2", capsys=capsys)
    assert status == 0
    doc = json.loads(out)
    assert doc["N"] == 10000
    assert [entry["h"] for entry in doc["independence"]] == [1, 2]
    assert doc["variance"] > 0
    status, out, _ = run_cli("analyze", "--function", "mu", "--N", "1000",
                             "--format", "csv", capsys=capsys)
    assert status == 0
    assert out.splitlines()[0] == "n,mean,variance,ks_normal_D,h,rho"


def test_selftest_passes(capsys):
    status, out, _ = run_cli("selftest", "--seed", "20260810", capsys=capsys)
    assert status == 0
    assert "0 failed" in out


def test_validation_errors_exit_one(capsys):
    assert run_cli("compute", "--function", "nosuch", "--N", "10", capsys=capsys)[0] == 1
    assert run_cli("compute", "--function", "mu", capsys=capsys)[0] == 1
    assert run_cli("compute", "--function", "mu", "--N", "10",
                   "--checkpoints", "20,30", capsys=capsys)[0] == 1
    assert run_cli("compute", "--function", "mu", "--N", "10",
                   "--checkpoints", "geometric(10,0.5)", capsys=capsys)[0] == 1
    assert run_cli("compute", "--function", "mu", "--N", "0", capsys=capsys)[0] == 1
    status, _, err = run_cli("compute", "--function", "mu", "--N", "10",
                             "--output", "/nonexistent-dir/x.csv", capsys=capsys)
    assert status == 1
    assert "cannot write" in err


def test_capacity_error_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("SUMMATORIA_BLOCK_SIZE", str(1 << 30))
    status, _, err = run_cli("compute", "--function", "mu", "--N", "100",
                             "--checkpoints", "100", capsys=capsys)
    assert status == 2
    assert "budget" in err


@pytest.mark.parametrize("value, status", [
    ("abc", 1), ("1e6", 1), ("0", 1), ("20000000", 2), ("1_000", 1), ("+64", 1),
])
def test_bad_block_size_env_var_is_named(value, status, capsys, monkeypatch):
    monkeypatch.setenv("SUMMATORIA_BLOCK_SIZE", value)
    code, _, err = run_cli("compute", "--function", "mu", "--N", "100", capsys=capsys)
    assert code == status
    assert "SUMMATORIA_BLOCK_SIZE" in err and value in err
    assert "Traceback" not in err


def test_analyze_streams_in_blocks_below_the_block_budget(capsys, monkeypatch):
    # The lag windows used to be sieved as single blocks of N entries.
    monkeypatch.setattr(sieve, "MAX_BLOCK_SIZE", 4096)
    monkeypatch.setenv("SUMMATORIA_BLOCK_SIZE", "1024")
    status, out, err = run_cli("analyze", "--function", "mu", "--N", "5000", capsys=capsys)
    assert status == 0, err
    assert json.loads(out)["N"] == 5000


def test_block_size_env_var_changes_blocking_not_results(capsys, monkeypatch):
    status, base, _ = run_cli("compute", "--function", "mu", "--N", "5000",
                              "--checkpoints", "geometric(10,3)", capsys=capsys)
    monkeypatch.setenv("SUMMATORIA_BLOCK_SIZE", "64")
    status2, small, _ = run_cli("compute", "--function", "mu", "--N", "5000",
                                "--checkpoints", "geometric(10,3)", capsys=capsys)
    assert status == status2 == 0
    assert base == small


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "function": "mu",
        "N": 100,
        "checkpoints": "10,100",
        "format": "csv",
    }))
    status, out, _ = run_cli("compute", "--config", str(config), capsys=capsys)
    assert status == 0
    assert out == "n,S\n10,-1\n100,1\n"
    # explicit flag wins over the config value
    status, out, _ = run_cli("compute", "--config", str(config),
                             "--checkpoints", "10", capsys=capsys)
    assert status == 0
    assert out == "n,S\n10,-1\n"


def test_parse_checkpoints_forms():
    assert parse_checkpoints("10,20,40", 100).tolist() == [10, 20, 40]
    assert parse_checkpoints("geometric(10,2)", 100).tolist() == [10, 20, 40, 80]
    with pytest.raises(Exception):
        parse_checkpoints("geometric(10,2) extra", 100)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "summatoria.cli", "compute", "--function", "mu",
         "--N", "10", "--checkpoints", "10"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "n,S\n10,-1\n"


def test_cli_import_leaves_scipy_special_and_integrate_unloaded(tmp_path):
    # No command imports scipy: the KS distance has its own Phi, and only the
    # library's quadrature fallback, which no command reaches, needs scipy.
    csv = tmp_path / "log2.csv"
    runs = [["synth", "--function", "synth:log2", "--N", "2000", "--output", str(csv)],
            ["compute", "--function", "mu-over-k", "--N", "1000"],
            ["analyze", "--function", "mu", "--N", "1000", "--lag", "1"],
            ["verdict", "--function", "mu", "--N", "1000"],
            ["verdict", "--function", f"file:{csv}", "--N", "2000"],
            ["selftest", "--seed", "1"]]
    script = ("import contextlib, io, sys\n"
              "from summatoria import cli\n"
              "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
              f"for argv in {runs!r}:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert cli.main(argv) == 0, argv\n"
              "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"


def test_non_finite_sum_exits_two(tmp_path, capsys):
    csv = tmp_path / "huge.csv"
    csv.write_text("k,f\n1,1e308\n2,1e308\n")
    status, _, err = run_cli("compute", "--function", f"file:{csv}", "--N", "2",
                             "--checkpoints", "2", capsys=capsys)
    assert status == 2
    assert "f(1..2) is not finite" in err and "Traceback" not in err


def test_explicit_flags_beat_config_values_equal_to_defaults(tmp_path, capsys, monkeypatch):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"function": "mu", "N": 100, "threads": 2,
                                  "checkpoints": "10,100"}))
    seen = []
    compute = cli._COMMANDS["compute"]
    monkeypatch.setitem(cli._COMMANDS, "compute", lambda args: seen.append(args) or compute(args))
    status, out, _ = run_cli("compute", "--config", str(config), "--threads", "1",
                             "--checkpoints", "geometric(10,2)", capsys=capsys)
    assert status == 0
    assert seen[0].threads == 1
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["10", "20", "40", "80"]


def test_config_values_pass_the_flag_converters(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"function": "mu", "N": "100", "lag": [1, 2]}))
    status, out, err = run_cli("analyze", "--config", str(config), capsys=capsys)
    assert status == 0, err
    doc = json.loads(out)
    assert doc["N"] == 100
    assert [entry["h"] for entry in doc["independence"]] == [1, 2]


# Every lag value, a null N and -3 pin earlier behaviour; the other N and
# threads values used to end in a TypeError traceback.
@pytest.mark.parametrize("key", ["N", "threads", "lag"])
@pytest.mark.parametrize("value", [100.5, True, None, {"a": 1}, [[1]], [], "ten", -3])
def test_bad_config_values_exit_one_without_traceback(tmp_path, capsys, key, value):
    config = tmp_path / "run.json"
    doc = {"function": "mu", "N": 100}
    doc[key] = value
    config.write_text(json.dumps(doc))
    status, _, err = run_cli("analyze", "--config", str(config), capsys=capsys)
    assert status == 1
    assert err.strip().splitlines()[-1].startswith("error:")


@pytest.mark.parametrize("argv", [
    ("synth", "--function", "synth:log2", "--N", "10", "--threads", "2"),
    ("selftest", "--output", "x.json"),
    ("verdict", "--function", "mu", "--N", "100", "--seed", "1"),
    # pins behaviour the parser already had: compute never took --lag
    ("compute", "--function", "mu", "--N", "10", "--lag", "1"),
])
def test_flags_a_subcommand_does_not_read_exit_one(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    status, out, err = run_cli(*argv, capsys=capsys)
    assert status == 1
    assert out == ""
    assert "unrecognized arguments" in err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("command, options", [
    ("compute", {"function", "N", "checkpoints", "threads", "output", "format"}),
    ("analyze", {"function", "N", "lag", "threads", "output", "format"}),
    ("synth", {"function", "N", "output", "format"}),
    ("verdict", {"function", "N", "checkpoints", "threads", "output", "format"}),
    ("selftest", {"seed"}),
])
def test_help_lists_only_the_options_a_subcommand_reads(command, options, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--([A-Za-z]+)", capsys.readouterr().out))
    assert listed == options | {"config", "help"}


# The exit statuses pin earlier behaviour; the fractional index, the comment
# and the non-finite value used to give errors that did not name the file.
@pytest.mark.parametrize("body, status", [
    ("k,v\n1,1\n2,0\n", 1),  # wrong header
    ("k,f\n1,1,0\n2,0,0\n", 1),  # three fields
    ("k,f\n1,1\n2\n", 1),  # short row
    ("k,f\n1,1\n3,0\n", 1),  # index gap
    ("k,f\n1,1\n1.5,0\n", 1),  # fractional index
    ("k,f\n", 1),  # no rows
    ("k,f\n1,1 # x\n2,0\n", 1),  # no comments
    ("k,f\n1,1\n2,inf\n", 1),  # non-finite value
    ("k,f\n1,1\n\n2,0\n", 0),  # a blank line is skipped
])
def test_malformed_file_sequences(tmp_path, capsys, body, status):
    path = tmp_path / "seq.csv"
    path.write_text(body)
    code, out, err = run_cli("compute", "--function", f"file:{path}", "--N", "2",
                             "--checkpoints", "2", capsys=capsys)
    assert code == status
    if status:
        assert str(path) in err
    else:
        assert out == "n,S\n2,1\n"
