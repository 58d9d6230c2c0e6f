import hashlib
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import ndtr

from summatoria import cli, empirical_cdf, ks_distance, sieve
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


@pytest.mark.parametrize("argv, digest", [
    (("--function", "mu", "--N", "100", "--checkpoints", "10,100"),
     "a0058f694bb018573d9bd4d72100afcc463e7afb25631f9a2331e21879e07b13"),
    (("--function", "mu-over-k", "--N", "3", "--checkpoints", "3"),
     "e4b5dd958d35ff924f645c59cc9942e2aea609f317a86f7b8933ca4384273f93"),
])
def test_compute_json_bytes_are_pinned(argv, digest, capsys):
    # an integer and a real trace: "accumulation_kind" reads exact-integer
    # and compensated-float
    status, out, _ = run_cli("compute", *argv, "--format", "json", capsys=capsys)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def rows_one_at_a_time(values, lo=1):
    """The row-at-a-time synth writer that ``cli.csv_rows`` replaced."""
    return "".join(f"{k},{format(float(f), '.17g')}\n" for k, f in enumerate(values, start=lo))


@pytest.mark.parametrize("function", ["synth:log", "synth:log2"])
@pytest.mark.parametrize("N", [1, 9, 10, 99, 100, 65535, 65536, 65537, 99999, 100001])
def test_synth_csv_bytes_match_the_row_writer(function, N, tmp_path, capsys):
    # N covers the 2**16-row chunks and the changes of digit count; synth:log
    # writes labels 1 and -1, of different lengths
    expected = "k,f\n" + rows_one_at_a_time(
        cli.schedules.realize_greedy(cli._SCHEDULES[function](), N).values(1, N))
    status, out, _ = run_cli("synth", "--function", function, "--N", str(N), capsys=capsys)
    assert status == 0
    assert out == expected
    path = tmp_path / "synth.csv"
    status, out, _ = run_cli("synth", "--function", function, "--N", str(N),
                             "--output", str(path), capsys=capsys)
    assert (status, out) == (0, "")
    assert path.read_bytes() == expected.encode("ascii")


def test_csv_rows_keys_values_on_their_bits():
    values = np.array([0.0, -0.0, 0.1, -2.5, -0.0, 0.1, 1e300, 5e-324])
    for lo in (1, 7, 99_995):
        assert cli.csv_rows(lo, values) == rows_one_at_a_time(values, lo)
    assert cli.csv_rows(1, values[:2]) == "1,0\n2,-0\n"


def test_overflowing_geometric_ratio_stops_the_schedule(capsys):
    # 10 * 1e308 is inf, beyond N: the schedule is [10], not a traceback
    status, out, err = run_cli("compute", "--function", "mu", "--N", "100",
                               "--checkpoints", f"geometric(10,1{'0' * 308})", capsys=capsys)
    assert (status, out, err) == (0, "n,S\n10,-1\n", "")


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


@pytest.mark.parametrize("argv, message", [
    (("--function", "mu", "--N", "100", "--checkpoints", "10,100000000000000000000"), "int64"),
    (("--function", "harmonic", "--N", "100000000000000000000", "--checkpoints", "10"), "2**53"),
    (("--function", "harmonic", "--N", "10000000000000000000", "--checkpoints", "10"), "2**53"),
])
def test_indices_past_int64_or_exact_floats_exit_one(argv, message, capsys):
    status, out, err = run_cli("compute", *argv, capsys=capsys)
    assert (status, out) == (1, "")
    assert message in err


def test_capacity_error_exits_two(capsys):
    # About 4.6e10 products: refused before the first one.
    status, _, err = run_cli("compute", "--function", "mu", "--N", "100",
                             "--checkpoints", "geometric(1,1.0000000001)", capsys=capsys)
    assert status == 2
    assert "budget of 16777216" in err


def test_ks_samples_beyond_their_budget_exit_two_before_any_block(capsys, monkeypatch):
    # geometric(1000000,1.01) to 1e9 needs about 3.3e8 KS sample points.
    def refuse(*args, **kwargs):
        raise AssertionError("a block was sieved before the sample budget was checked")

    monkeypatch.setattr(sieve, "sieve_block", refuse)
    status, out, err = run_cli("verdict", "--function", "mu", "--N", "1000000000",
                               "--checkpoints", "geometric(1000000,1.01)", capsys=capsys)
    assert (status, out) == (2, "")
    assert "budget of 134217728" in err


def test_analyze_streams_in_blocks_below_the_block_budget(capsys, monkeypatch):
    # The lag windows used to be sieved as single blocks of N entries.
    monkeypatch.setattr(sieve, "MAX_BLOCK_SIZE", 4096)
    monkeypatch.setattr(sieve, "DEFAULT_BLOCK_SIZE", 1024)
    status, out, err = run_cli("analyze", "--function", "mu", "--N", "5000", capsys=capsys)
    assert status == 0, err
    assert json.loads(out)["N"] == 5000


def test_block_size_changes_blocking_not_results(capsys, monkeypatch):
    status, base, _ = run_cli("compute", "--function", "mu", "--N", "5000",
                              "--checkpoints", "geometric(10,3)", capsys=capsys)
    monkeypatch.setattr(sieve, "DEFAULT_BLOCK_SIZE", 64)
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
    # No command imports scipy: the KS distance has its own Phi, and scipy is
    # only an oracle of the tests.
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


def test_commands_leave_numpy_ma_unloaded():
    # np.union1d, and np.unique without return_inverse, import numpy.ma
    # (13-44 ms a process) to ask whether their input is masked; the
    # package calls neither.
    runs = [["compute", "--function", "mu-over-k", "--N", "5000"],
            ["compute", "--function", "harmonic", "--N", "5000"],
            ["analyze", "--function", "mu", "--N", "1000", "--lag", "1"],
            ["verdict", "--function", "mu-over-k", "--N", "5000"],
            ["selftest"]]
    masked = "sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.'))"
    script = ("import contextlib, io, sys\n"
              "from summatoria import cli\n"
              f"print({masked})\n"
              f"for argv in {runs!r}:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert cli.main(argv) == 0, argv\n"
              f"    print({masked})\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n" * (1 + len(runs))


def test_non_finite_sum_exits_two(tmp_path, capsys):
    csv = tmp_path / "huge.csv"
    csv.write_text("k,f\n1,1e308\n2,1e308\n")
    status, _, err = run_cli("compute", "--function", f"file:{csv}", "--N", "2",
                             "--checkpoints", "2", capsys=capsys)
    assert status == 2
    assert "f(1..2) is not finite" in err and "Traceback" not in err


def _write_values(path, values) -> None:
    path.write_text("k,f\n" + "".join(f"{k},{v!r}\n" for k, v in enumerate(values, start=1)))


def scaled_ks(sample) -> float:
    """D of the sample scaled exactly by 2**k, k = -frexp(max|x|)[1], where
    np.var of the raw scaled sample neither underflows nor overflows."""
    x = np.asarray(sample, dtype=np.float64)
    dist = empirical_cdf(np.ldexp(x, -math.frexp(np.abs(x).max())[1]))
    assert 2.0**-900 < dist.variance < 1.0
    return ks_distance(dist)


@pytest.mark.parametrize("scale", [1e-160, 1e-165])
def test_analyze_ks_of_a_tiny_sample_is_that_of_the_scaled_sample(scale, tmp_path, capsys):
    # np.var of the raw sample is subnormal at 1e-160, which put D off in its
    # 4th digit, and 0 at 1e-165, which printed a null D with exit status 0.
    values = np.random.default_rng(7).uniform(-1.0, 1.0, 4000) * scale
    path = tmp_path / "tiny.csv"
    _write_values(path, values.tolist())
    status, out, _ = run_cli("analyze", "--function", f"file:{path}", "--N", "3990",
                             capsys=capsys)
    assert status == 0
    assert json.loads(out)["ks_normal_D"] == scaled_ks(values[:3990])


def test_verdict_ks_of_tiny_partial_sums_is_that_of_the_scaled_samples(tmp_path, capsys):
    # Every D was null, with a note of degenerate samples, though none is constant.
    values = np.random.default_rng(8).uniform(-1.0, 1.0, 3000) * 1e-165
    path = tmp_path / "tiny.csv"
    _write_values(path, values.tolist())
    status, out, _ = run_cli("verdict", "--function", f"file:{path}", "--N", "3000",
                             "--checkpoints", "500,1000,2000,3000", capsys=capsys)
    assert status == 0
    doc = json.loads(out)
    assert [row["D"] for row in doc["ks_trace"]] == [scaled_ks(np.cumsum(values[:n]))
                                                     for n in (500, 1000, 2000, 3000)]
    assert "degenerate" not in doc["notes"]


@pytest.mark.parametrize("command, value", [("analyze", "1.2e154"), ("verdict", "1e200")])
def test_a_ks_sample_whose_variance_overflows_is_standardized_scaled(command, value, tmp_path,
                                                                     capsys):
    # np.var of the values (analyze) or of the partial sums (verdict)
    # overflows; z is that of the scaled sample, and D that of a two-point law.
    values = [float(value) * (1 if k % 2 else -1) for k in range(1, 2011)]
    path = tmp_path / "huge.csv"
    _write_values(path, values)
    status, out, _ = run_cli(command, "--function", f"file:{path}", "--N", "2000",
                             capsys=capsys)
    assert status == 0
    doc = json.loads(out)
    if command == "analyze":
        assert doc["ks_normal_D"] == scaled_ks(values[:2000])
        assert abs(doc["ks_normal_D"] - (ndtr(1.0) - 0.5)) < 1e-15
    else:
        assert [row["D"] for row in doc["ks_trace"]] == [
            scaled_ks(np.cumsum(values[: row["n"]])) for row in doc["ks_trace"]]


def test_a_ks_sample_holding_inf_exits_two(tmp_path, capsys):
    # Every exact S(n) is finite, but the float partial sums of the KS
    # sample pass DBL_MAX between checkpoints.
    path = tmp_path / "huge.csv"
    _write_values(path, [1e308, 1e308, -1e308, -1e308] * 500)
    with np.errstate(over="ignore"):
        status, out, err = run_cli("verdict", "--function", f"file:{path}", "--N", "2000",
                                   "--checkpoints", "400,800,1200,2000", capsys=capsys)
    assert (status, out) == (2, "")
    assert "variance of the KS sample is not finite" in err and "Traceback" not in err


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


def test_analyze_of_a_short_file_names_the_bound_it_needs(tmp_path, capsys):
    path = tmp_path / "seq.csv"
    path.write_text("k,f\n" + "".join(f"{k},{k % 3}\n" for k in range(1, 6)))
    status, out, err = run_cli("analyze", "--function", f"file:{path}", "--N", "5",
                               "--lag", "1", capsys=capsys)
    assert (status, out) == (1, "")
    assert "holds 5 values, fewer than N + max lag = 6" in err
    assert "N=6" not in err
    status, out, err = run_cli("compute", "--function", f"file:{path}", "--N", "6",
                               capsys=capsys)
    assert status == 1 and "holds 5 values, fewer than N=6" in err
