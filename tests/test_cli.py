"""CLI behaviour: reports, exit codes, config files, determinism, the
networked get path, and the registry's protocol table that the CLI reads."""

import hashlib
import os
import re
import select
import signal
import socket
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from pirlab import cli, sim, verify
from pirlab.cli import main
from pirlab.engine import ROW_CAP
from pirlab.errors import ParamError
from pirlab.protocols.cube import build_cgks
from pirlab.protocols import registry
from pirlab.protocols.registry import build_named
from pirlab.protocols.toy import broken_span_demo
from pirlab.sim import PirServer, ServerNode, Transcript, param_digest


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def servers_flag(endpoints) -> str:
    return ",".join(f"{host}:{port}" for host, port in endpoints)


class TestParams:
    def test_cgks(self, capsys):
        code, out, _ = run_cli(capsys, "params", "cgks", "--n", "8")
        assert code == 0
        assert "k = 2" in out and "t = 1" in out
        assert "raw_bits_total = 26" in out

    def test_efremenko_trivial_poly_server_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "params", "efremenko", "--m", "6", "--p", "7", "--n", "4"
        )
        assert code == 0
        assert "k = 4" in out

    def test_efremenko_sparse_k_zero_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "params", "efremenko", "--m", "6", "--p", "7", "--sparse-k", "0"
        )
        assert code == 2
        assert "k_target must be in [1, 2^2)" in err

    def test_efremenko_sparse_space_over_the_cap_exits_2_at_once(self):
        # C(209, 7) exponent sets: the search is refused before it starts,
        # where an unbounded one would still be running at the timeout.
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = subprocess.run(
            [sys.executable, "-m", "pirlab.cli", "params", "efremenko",
             "--m", "210", "--p", "211", "--sparse-k", "8", "--n", "2", "--h", "1"],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert out.returncode == 2
        assert "C(209,7) = 3122458801176 exponent sets" in out.stderr
        assert f"ROW_CAP = {ROW_CAP}" in out.stderr

    def test_efremenko_sparse_k_three(self, capsys):
        code, out, _ = run_cli(
            capsys, "params", "efremenko", "--m", "35", "--p", "71", "--sparse-k", "3"
        )
        assert code == 0
        assert "k = 3" in out.splitlines()
        assert "poly_exponents = (0, 1, 12)" in out.splitlines()

    def test_kr(self, capsys):
        code, out, _ = run_cli(capsys, "params", "kr", "--r", "3")
        assert code == 0
        assert "k_r = 8" in out

    def test_kr_requires_r(self, capsys):
        code, _, err = run_cli(capsys, "params", "kr")
        assert code == 2
        assert "--r" in err

    def test_unknown_protocol_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["params", "nonesuch"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["verify", "serve", "get", "bench"])
    @pytest.mark.parametrize("argv", [["kr"], ["toy", "--r", "3"]])
    def test_kr_and_r_belong_to_params_only(self, capsys, command, argv):
        with pytest.raises(SystemExit) as exc:
            main([command, *argv])
        assert exc.value.code == 2

    @pytest.mark.parametrize("h", ["-1", "0"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["dvir-gopi", "--m", "6"],
            ["gks", "--m", "2", "--p", "3"],
            ["yekhanin"],
            ["lagrange", "--n", "3", "--t", "1", "--k", "3", "--p", "5"],
            ["hermite", "--n", "3", "--t", "1", "--k", "2", "--p", "5"],
        ],
    )
    def test_nonpositive_h_is_usage_error(self, capsys, argv, h):
        code, _, err = run_cli(capsys, "params", *argv, "--h", h)
        assert code == 2
        assert "h must be >= 1" in err

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "params", "efremenko", "--m", "6", "--p", "7")
        _, out2, _ = run_cli(capsys, "params", "efremenko", "--m", "6", "--p", "7")
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.txt"
        code, out, _ = run_cli(
            capsys, "--out", str(out_path), "params", "cgks", "--n", "8"
        )
        assert code == 0
        assert out_path.read_text() == out

    def test_out_file_in_missing_directory_is_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "report.txt"
        code, out, err = run_cli(
            capsys, "--out", str(out_path), "params", "cgks", "--n", "8"
        )
        assert code == 2
        assert "k = 2" in out
        assert err.startswith("error: ") and str(out_path) in err

    # sha256 of ``params`` stdout.  The param digests in test_sim.py sort the
    # report keys; these pin the order and formatting that ``params`` prints.
    # The m = 511 pin takes n = 2, h = 1: the default Z_511^3 exceeds the
    # enumeration cap, and the budgeted search finds no 3-index family in
    # Z_511^2.
    @pytest.mark.parametrize("argv, sha", [
        ("toy", "3f27518d4f53f76c034eeebca25bc3aaac4eda2729d20a976cc818d932bde210"),
        ("cgks --n 8", "0f4b9c59075bceb37fff2504f0afdb897179c38a1cc3152a8fd981100edfa4f9"),
        ("lagrange --n 3 --t 1 --k 3 --p 5",
         "7cf57a3ce6061b65f7d740cdf5ee99c1433de490d25e0eba828e02a661f33be8"),
        ("hermite --n 4 --t 1 --k 2 --p 7",
         "5c58ffba7257073a1273595271b5d48a9e029b987bf6c9816eaaeb2f5d142e0d"),
        ("yekhanin", "6b88ba0a08de7f439fee8447ac3c2cc697d2d121c2f22bd3655ca27b36d76e16"),
        ("raghavendra",
         "4a50aa17dbb4cb2a8c59d23bf7baf7d6bebdcb89a4a21495ea9ff19f30e8f57a"),
        ("efremenko --m 6 --p 7",
         "65885dfb71a307fad1905a293c7124383b6e247cd60e39c2b61f4d8d46d597aa"),
        ("efremenko --m 511 --p 3067 --sparse-k 3 --n 2 --h 1",
         "64a784335369c39f991b7a5aeeede74167ff4905400c415372a7f51af6bc06a7"),
        ("dvir-gopi --m 6",
         "081d412aafaa57f386384886a1f90eaf3750e7ad288d76ab763febf8cca63451"),
        ("gks --m 2 --p 3",
         "9174905ec80f744ada809f817d3572c994cacc31975b6f5ba9cbad96019b6af1"),
        ("lagrange --n 20 --t 2 --k 5 --p 7",
         "897a25d4d13e47873730d1aa7d3614213b7a50ba20e5db75f3694fc518af08be"),
        ("hermite --n 10 --t 2 --k 4 --p 11",
         "6477bc515c7b9cb9850a3961d608702095768e276076dd3a2e0e31a1bb3a315a"),
    ])
    def test_pinned_output(self, capsys, argv, sha):
        code, out, _ = run_cli(capsys, "params", *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha

    def test_default_h_over_the_enumeration_cap_names_h(self, capsys):
        # The registry's default h = 3 puts Z_511^3 over the cap; the error
        # says which space and how to shrink it.
        code, out, err = run_cli(
            capsys, "params", "efremenko", "--m", "511", "--p", "3067",
            "--sparse-k", "3",
        )
        assert code == 2
        assert out == ""
        assert "511^3" in err and "smaller h" in err


class TestVerify:
    def test_lagrange_all_suites_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "lagrange",
            "--t", "1", "--k", "3", "--p", "5", "--n", "3",
        )
        assert code == 0
        assert "verdict: PASS" in out

    def test_broken_demo_fails(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "broken-demo")
        assert code == 1
        assert "verdict: FAIL" in out
        assert "counterexample" in out

    def test_comm_mismatch_is_a_fail_line(self, capsys, monkeypatch):
        real = sim.run_inprocess

        def doctored(*args, **kwargs):
            bit, transcript = real(*args, **kwargs)
            transcript.entries[0].answer_payload_bytes += 1
            return bit, transcript

        monkeypatch.setattr(sim, "run_inprocess", doctored)
        code, out, err = run_cli(capsys, "verify", "toy")
        assert code == 1
        assert "comm toy: FAIL (server 1: answer payload 2 bytes != 1)" in out
        assert out.endswith("verdict: FAIL\n")
        assert err == ""

    def test_cgks_n1(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "cgks", "--n", "1")
        assert code == 0
        assert "verdict: PASS" in out

    def test_single_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "toy", "--suite", "privacy"
        )
        assert code == 0
        assert "privacy toy" in out and "correctness" not in out

    def test_correctness_over_budget_exits_before_building_databases(self, capsys):
        # n + 2 structured databases of 4096 bits would take about 130 MB;
        # the suite builds only the one that already exceeds the budget.
        tracemalloc.start()
        try:
            code, _, err = run_cli(
                capsys, "verify", "lagrange", "--suite", "correctness",
                "--t", "1", "--k", "3", "--p", "13", "--n", "4096",
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "exceeds budget" in err
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("suite", ["privacy", "correctness"])
    def test_over_budget_error_prints_the_space_as_a_power(self, capsys, suite):
        # 13^92 draws: printed in full the count has 103 digits.
        code, _, err = run_cli(
            capsys, "verify", "lagrange", "--suite", suite,
            "--t", "1", "--k", "3", "--p", "13", "--n", "4096",
        )
        assert code == 2
        assert re.search(r"\b13\^92 (values|rows) exceeds", err)
        assert len(err) < 120

    # sha256 of ``verify`` stdout + stderr, and the exit code.  cgks-n15
    # takes the structured-database fallback; lagrange-n4096 is over the
    # budget even so.
    @pytest.mark.parametrize("argv, code, sha", [
        ("toy", 0, "bbb42cd58eaba340bd8ffa51c6b1175aa8cb3d40b6f9e2dfcf39ec7df69d00f9"),
        ("cgks --n 8", 0,
         "79252ee63fb1ebb45d435b9ed999fa97b57f810c3f10fb050e6a832f5691e30b"),
        ("lagrange --n 3 --t 1 --k 3 --p 5", 0,
         "34f51484aeed5accd70fc89fe7032cfb52f1e4f7833c7cf244c5b06eb79090ff"),
        ("yekhanin", 0,
         "0c775cb0a396f3a26e8dd366fb56d2455d10bacd784c627ae848e23f2a4a9368"),
        ("raghavendra", 0,
         "2023d3a2cc0a36bf63667b967fbcde8132990206d23dee57e8c010ea6fe0c685"),
        ("efremenko --m 6 --p 7", 0,
         "c10d5c4daad36c8b126551284b5f9f6a8b981d21491f8de06263f2a2e2b7ad38"),
        ("dvir-gopi --m 6", 0,
         "351508233cf0b2456369939405224ef96fca582fc3dd43d1a631ca2a1fa73961"),
        ("gks --m 2 --p 3", 0,
         "457b63b2f7d389a48b4aed2aee70ed57f9e667da6b4501ea82db4e2d43ad804e"),
        ("broken-demo", 1,
         "72b58858551b8c8d00d8883c8e70bfaad870f21bc9c024d0dd4fde9b800a58d3"),
        ("cgks --n 15 --suite correctness", 0,
         "c9c92231154f642ed33073fda6e948c610cd07368ca958ecc70f44876bf25e2f"),
        ("lagrange --n 4096 --t 1 --k 3 --p 13", 2,
         "d7252d660eda3bf176e240429ff8f9768e18c7f57bce15fc76bab9f8bffbef2e"),
        ("lagrange --n 3 --t 2 --k 3 --p 5 --suite privacy", 0,
         "891b12b966d1324cc51cf92d7cd7331cb373ce3c14b396f3bb153d00455e4253"),
        ("toy --suite comm --seed 5", 0,
         "a8b07259edff5e107ebc7d1a1d8b8c3cf17dc1c20a221f7312836fde697912d0"),
    ], ids=[
        "toy", "cgks", "lagrange", "yekhanin", "raghavendra", "efremenko",
        "dvir-gopi", "gks", "broken-demo", "cgks-n15-correctness",
        "lagrange-n4096-over-budget", "lagrange-t2-privacy", "toy-comm-seed5",
    ])
    def test_pinned_output(self, capsys, argv, code, sha):
        got, out, err = run_cli(capsys, "verify", *argv.split())
        assert got == code
        assert hashlib.sha256((out + err).encode()).hexdigest() == sha

    def test_suite_choices_are_the_verifier_suites(self):
        assert cli._SUITES == ("all", *verify.SUITES)

    def test_missing_params_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "lagrange")
        assert code == 2
        assert "missing parameter" in err


class TestConfigFile:
    def test_config_supplies_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 8\n# comment line\n")
        code, out, _ = run_cli(
            capsys, "--config", str(cfg), "params", "cgks"
        )
        assert code == 0
        assert "raw_bits_total = 26" in out

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 8\n")
        code, out, _ = run_cli(
            capsys, "--config", str(cfg), "params", "cgks", "--n", "27"
        )
        assert code == 0
        assert "raw_bits_total = 38" in out  # 12*3 + 2

    def test_keys_of_other_subcommands_skipped(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("timeout = 0.5\nport = 7001\nservers = :1,:2\nr = 3\n")
        code, out, _ = run_cli(
            capsys, "--config", str(cfg), "verify", "toy", "--suite", "span"
        )
        assert code == 0
        assert "span toy: PASS" in out

    def test_config_that_is_a_directory_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "--config", str(tmp_path), "params", "cgks")
        assert code == 2
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "params", "cgks")
        assert code == 2
        assert "bogus" in err

    def test_non_integer_value_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sizes\nn = abc\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "params", "cgks")
        assert code == 2
        assert f"{cfg}:2:" in err

    def test_timeout_is_a_float(self, capsys, tmp_path, monkeypatch):
        seen = {}

        def fake_retrieve(endpoints, scheme, i, seed, timeout):
            seen["timeout"] = timeout
            return 0, Transcript()

        monkeypatch.setattr(cli, "client_retrieve", fake_retrieve)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("timeout = 0.5\n")
        code, _, _ = run_cli(
            capsys, "--config", str(cfg),
            "get", "cgks", "--n", "8", "--index", "1", "--servers", ":1,:2",
        )
        assert code == 0
        assert seen["timeout"] == 0.5

    def test_config_fills_flags_with_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("suite = privacy\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "verify", "toy")
        assert code == 0
        assert "privacy toy" in out and "correctness" not in out
        code, out, _ = run_cli(
            capsys, "--config", str(cfg), "verify", "toy", "--suite", "span"
        )
        assert code == 0
        assert "span toy" in out and "privacy" not in out

    def test_every_default_is_named_in_its_help(self):
        # A switch defaults to off; every other flag with a default says it.
        _, flags = cli._build_parser()
        named = []
        for command, actions in flags.items():
            for key, action in actions.items():
                if key in cli._DEFAULTS and action.nargs != 0:
                    value = cli._DEFAULTS[key]
                    text = f"{value:g}" if isinstance(value, float) else str(value)
                    assert f"default: {text}" in action.help, (command, key)
                    named.append(key)
        assert sorted(named) == ["host", "suite", "timeout", "trials"]

    def test_makedb_from_config_alone(self, capsys, tmp_path):
        path = tmp_path / "db.bin"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 8\nbits = 10110010\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "makedb")
        assert code == 2
        assert "makedb requires --n and --db" in err and not path.exists()
        cfg.write_text(f"n = 8\ndb = {path}\nbits = 10110010\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "makedb")
        assert code == 0
        assert out == f"wrote 8 bits to {path}\n"
        from pirlab.sim import load_database

        assert load_database(path) == bytes((1, 0, 1, 1, 0, 0, 1, 0))

    def test_bench_grid_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 8,64\ntrials = 1\n")
        code, from_config, _ = run_cli(capsys, "--config", str(cfg), "bench", "cgks")
        assert code == 0
        _, typed, _ = run_cli(capsys, "bench", "cgks", "--n", "8,64", "--trials", "1")
        assert from_config == typed and len(typed.splitlines()) == 3

    @pytest.mark.parametrize("value, timed", [("true", True), ("0", False)])
    def test_switch_from_config(self, capsys, tmp_path, value, timed):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"timing = {value}\n")
        code, out, _ = run_cli(
            capsys, "--config", str(cfg), "bench", "cgks", "--n", "8", "--trials", "1"
        )
        assert code == 0
        assert ("server_time_s" in out.splitlines()[0]) == timed

    @pytest.mark.parametrize("line, argv, message", [
        ("suite = most", ["verify", "toy"],
         "bad suite 'most': expected one of all, correctness, privacy"),
        ("timing = yes", ["bench", "cgks", "--n", "8"],
         "bad timing 'yes': expected true, false, 1 or 0"),
        ("port = 7o01", ["serve", "cgks", "--n", "8"], "bad port '7o01': invalid"),
    ])
    def test_value_its_flag_refuses_is_usage_error(self, capsys, tmp_path, line, argv,
                                                   message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), *argv)
        assert code == 2 and out == ""
        assert f"{cfg}:1: {message}" in err

    @pytest.mark.parametrize("key", ["protocol", "command", "n_values"])
    def test_key_that_is_no_flag_rejected(self, capsys, tmp_path, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = toy\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "params", "cgks", "--n", "8")
        assert code == 2
        assert f"unknown key {key!r}" in err


class TestProtocolTable:
    """``registry.PROTOCOLS`` states each protocol's parameters; a key the
    protocol does not take, typed or from --config, is a usage error."""

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["params", "toy", "--n", "100"], "n"),
            (["params", "cgks", "--n", "8", "--t", "5"], "t"),
            (["params", "dvir-gopi", "--m", "6", "--p", "7"], "p"),
            (["params", "cgks", "--n", "8", "--r", "3"], "r"),
            (["params", "kr", "--r", "3", "--n", "8"], "n"),
        ],
        ids=["toy-n", "cgks-t", "dvir-gopi-p", "cgks-r", "kr-n"],
    )
    def test_typed_key_the_protocol_does_not_take(self, capsys, argv, key):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"does not take parameter(s) {key}" in err

    def test_config_key_the_protocol_does_not_take(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t = 1\n")
        code, out, err = run_cli(
            capsys, "--config", str(cfg), "verify", "cgks", "--n", "8"
        )
        assert code == 2 and out == ""
        assert "cgks does not take parameter(s) t" in err

    def test_serve_with_a_key_the_protocol_does_not_take_opens_no_listener(
        self, capsys, tmp_path, monkeypatch
    ):
        path = tmp_path / "db.bin"
        run_cli(capsys, "makedb", "--n", "8", "--db", str(path))
        started = []
        monkeypatch.setattr(cli, "PirServer", lambda *a, **kw: started.append(a))
        code, out, err = run_cli(
            capsys, "serve", "cgks", "--n", "8", "--t", "3", "--id", "1",
            "--db", str(path), "--port", "0",
        )
        assert code == 2 and out == "" and started == []
        assert "does not take parameter(s) t" in err

    @pytest.mark.parametrize(
        "name, config, shown",
        [
            ("cgks", {"n": 8.0}, "n=8.0"),
            ("lagrange", {"n": 3.0, "t": 1, "k": 3, "p": 5}, "n=3.0"),
            ("cgks", {"n": "8"}, "n='8'"),
            ("cgks", {"n": True}, "n=True"),
            ("lagrange", {"n": 3, "t": True, "k": 3, "p": 5}, "t=True"),
        ],
        ids=["cgks-float", "lagrange-float", "cgks-str", "cgks-bool",
             "lagrange-bool"],
    )
    def test_value_that_is_not_an_int(self, name, config, shown):
        # n = 8.0 or True would build a cgks scheme with a digest other than
        # n = 8's or 1's, so a server and a client read from one JSON config
        # would disagree.
        with pytest.raises(ParamError, match=re.escape(f"must be ints: {shown}")):
            build_named(name, config)

    def test_none_counts_as_absent(self):
        assert build_named("cgks", {"n": 8, "t": None}).n == 8

    def test_missing_key_and_unknown_name(self):
        with pytest.raises(ParamError, match=r"missing parameter\(s\): n, t, k, p"):
            build_named("lagrange", {"h": 2})
        with pytest.raises(ParamError, match="unknown protocol 'nonesuch'"):
            build_named("nonesuch", {"n": 8})

    def test_desk_schemes_are_the_pinned_configurations(self):
        # Names and parameter digests as the desk's configurations gave them
        # before the table held them.
        assert [(s.name, param_digest(s)) for s in registry.desk_schemes()] == [
            ("toy", "fa0a9550fc7004d0"),
            ("cgks", "4b5adb15b95ebaec"),
            ("lagrange", "192ac9c5a312bc28"),
            ("hermite", "d6bfb7e83a9b68e7"),
            ("yekhanin", "80725ddb2f6ad7f1"),
            ("raghavendra", "7432876131a598fa"),
            ("efremenko", "50f98001b0a4025e"),
            ("dvir-gopi", "f51a787961735340"),
            ("gks", "0ca7c7f01b7adf1d"),
        ]

    def test_desk_searches_each_family_once_and_keeps_none(self, monkeypatch):
        # yekhanin and raghavendra share one family in Z_7^3; efremenko,
        # dvir-gopi and gks (m * p = 6) share one in Z_6^3.  A build_named
        # call searches anew, so no family outlives its call.
        calls = []
        real = registry.search_matching_family

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(registry, "search_matching_family", counting)
        registry.desk_schemes()
        assert sorted(calls) == [(6, 3, (1, 3, 4), 3), (7, 3, (1, 2, 4), 3)]
        calls.clear()
        first = build_named("dvir-gopi", {"m": 6})
        second = build_named("dvir-gopi", {"m": 6})
        assert len(calls) == 2
        assert param_digest(first) == param_digest(second)

    def test_every_row_states_its_closed_form_cost(self):
        for name, row in registry.PROTOCOLS.items():
            assert callable(row.bits), name
        with pytest.raises(TypeError, match="bits"):
            registry.Protocol()  # no default

    def test_predicted_bits_needs_a_row(self):
        # The negative control has no row, so it has no closed form either.
        scheme = broken_span_demo()
        with pytest.raises(ParamError, match="no closed-form cost for 'broken-span"):
            registry.predicted_bits(scheme)

    def test_cli_flags_are_the_table_keys(self):
        rows = registry.PROTOCOLS.values()
        keys = {k for row in rows for k in (*row.required, *row.optional)}
        assert set(registry.PARAM_KEYS) == keys
        assert registry.PROTOCOL_NAMES == tuple(registry.PROTOCOLS)
        _, flags = cli._build_parser()
        protocol_flags = {
            "params": (*registry.PARAM_KEYS, "r"),
            "verify": registry.PARAM_KEYS,
            "serve": registry.PARAM_KEYS,
            "get": registry.PARAM_KEYS,
            "bench": tuple(k for k in registry.PARAM_KEYS if k != "n"),
        }
        for command, want in protocol_flags.items():
            assert tuple(flags[command])[: len(want)] == want, command


class TestNetworkCommands:
    def test_get_round_trip(self, capsys, tmp_path):
        scheme = build_cgks(8)
        x = (0, 1, 1, 0, 1, 0, 0, 1)
        servers = [
            PirServer(ServerNode(server_id=j + 1, scheme=scheme, database=x)).start()
            for j in range(2)
        ]
        try:
            endpoints = ",".join(f"{h}:{p}" for h, p in (s.endpoint for s in servers))
            code, out, _ = run_cli(
                capsys,
                "get", "cgks", "--n", "8",
                "--index", "4", "--servers", endpoints,
            )
            assert code == 0
            assert f"x_4 = {x[3]}" in out
            assert "payload: 4 bytes" in out
        finally:
            for s in servers:
                s.stop()

    def test_lying_server_is_a_transport_error_naming_all(self, capsys):
        # Server 3 holds another database.  At seed 1 the three answers to
        # x_1 combine to 2, neither 0 nor omega = 1; no single server can be
        # blamed, so the error names all three and get exits 3, not 2.
        scheme = build_named("lagrange", {"n": 16, "t": 1, "k": 3, "p": 7})
        honest = (1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0)
        liar = (0, 0, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1)
        servers = [
            PirServer(ServerNode(j, scheme, x)).start()
            for j, x in ((1, honest), (2, honest), (3, liar))
        ]
        try:
            names = [f"{h}:{p}" for h, p in (s.endpoint for s in servers)]
            code, out, err = run_cli(
                capsys,
                "get", "lagrange", "--n", "16", "--t", "1", "--k", "3", "--p", "7",
                "--index", "1", "--servers", ",".join(names), "--seed", "1",
            )
        finally:
            for s in servers:
                s.stop()
        assert code == 3 and "x_1" not in out
        assert err.startswith("transport error: servers ")
        assert all(name in err for name in names)
        assert "combined value 2 is neither 0 nor omega 1" in err

    def test_get_without_seed_sends_fresh_queries(self, capsys):
        received = []

        class RecordingNode(ServerNode):
            def answer_payload(self, query_payload):
                received.append(query_payload)
                return super().answer_payload(query_payload)

        scheme = build_cgks(512)  # server 1's query is 24 uniform bits
        x = tuple(j % 3 % 2 for j in range(512))
        servers = [
            PirServer(RecordingNode(server_id=1, scheme=scheme, database=x)).start(),
            PirServer(ServerNode(server_id=2, scheme=scheme, database=x)).start(),
        ]
        try:
            endpoints = ",".join(f"{h}:{p}" for h, p in (s.endpoint for s in servers))
            for _ in range(2):
                code, out, _ = run_cli(
                    capsys,
                    "get", "cgks", "--n", "512",
                    "--index", "7", "--servers", endpoints,
                )
                assert code == 0
                assert f"x_7 = {x[6]}" in out
        finally:
            for s in servers:
                s.stop()
        assert len(received) == 2
        assert received[0] != received[1]

    def test_get_wrong_endpoint_count(self, capsys):
        code, _, err = run_cli(
            capsys,
            "get", "cgks", "--n", "8", "--index", "1", "--servers", ":1",
        )
        assert code == 2
        assert "exactly 2" in err

    def test_get_wrong_endpoint_count_connects_to_nothing(self, capsys):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]
            code, _, err = run_cli(
                capsys,
                "get", "cgks", "--n", "8", "--index", "1", "--servers", f":{port}",
            )
            assert code == 2
            assert "exactly 2" in err
            listener.setblocking(False)
            with pytest.raises(BlockingIOError):
                listener.accept()

    @pytest.mark.parametrize("servers", [":70000,:1", ":1,:0", ":1,:-5"])
    def test_get_rejects_port_out_of_range(self, capsys, servers):
        code, _, err = run_cli(
            capsys, "get", "cgks", "--n", "8", "--index", "1", "--servers", servers,
        )
        assert code == 2
        assert "[1, 65535]" in err

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_serve_rejects_port_out_of_range(self, capsys, tmp_path, port):
        path = tmp_path / "db.bin"
        run_cli(capsys, "makedb", "--n", "8", "--db", str(path))
        code, _, err = run_cli(
            capsys, "serve", "cgks", "--n", "8", "--id", "1",
            "--db", str(path), "--port", port,
        )
        assert code == 2
        assert "[0, 65535]" in err

    def test_serve_db_that_is_a_directory_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "serve", "cgks", "--n", "8", "--id", "1",
            "--db", str(tmp_path), "--port", "0",
        )
        assert code == 2
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_serve_port_in_use_transport_error(self, capsys, tmp_path):
        path = tmp_path / "db.bin"
        run_cli(capsys, "makedb", "--n", "8", "--db", str(path))
        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]
            code, _, err = run_cli(
                capsys, "serve", "cgks", "--n", "8", "--id", "1",
                "--db", str(path), "--port", str(port),
            )
        assert code == 3
        assert err.startswith("transport error: cannot listen")

    @pytest.mark.parametrize("timeout", ["-1", "0", "nan", "inf", "1e300"])
    def test_get_bad_timeout_connects_to_nothing(self, capsys, timeout):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]
            code, _, err = run_cli(
                capsys,
                "get", "cgks", "--n", "8", "--index", "1",
                "--servers", f":{port},:{port}", "--timeout", timeout,
            )
            assert code == 2
            assert "timeout" in err
            listener.setblocking(False)
            with pytest.raises(BlockingIOError):
                listener.accept()

    def test_serve_processes_answer_get_and_exit_on_sigint(self, capsys, tmp_path):
        path = tmp_path / "db.bin"
        run_cli(capsys, "makedb", "--n", "8", "--bits", "01101001", "--db", str(path))
        # Without PYTHONUNBUFFERED, stdout on a pipe is block-buffered: the
        # banner arrives in time only if the server flushes it.
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        env.pop("PYTHONUNBUFFERED", None)
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "pirlab.cli", "serve", "cgks", "--n", "8",
                 "--id", str(j), "--db", str(path), "--port", "0"],
                stdout=subprocess.PIPE, text=True, env=env,
                # A shell may start background jobs with SIGINT ignored;
                # restore the default so the interpreter turns it into
                # KeyboardInterrupt.
                preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
            )
            for j in (1, 2)
        ]
        try:
            endpoints = []
            for proc in procs:
                assert select.select([proc.stdout], [], [], 30)[0], "no banner"
                banner = proc.stdout.readline()
                assert f"digest {param_digest(build_cgks(8))})" in banner
                endpoints.append(re.search(r" on (\S+:\d+) ", banner).group(1))
            code, out, _ = run_cli(
                capsys, "get", "cgks", "--n", "8", "--index", "3",
                "--servers", ",".join(endpoints),
            )
            assert code == 0
            assert "x_3 = 1" in out
            for proc in procs:
                proc.send_signal(signal.SIGINT)
            assert [proc.wait(timeout=10) for proc in procs] == [0, 0]
            # Read once the servers have exited, so a missing line is EOF,
            # not a wait: the line after the banner warns of plain TCP.
            for proc in procs:
                assert "no TLS" in proc.stdout.readline()
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()

    def test_get_dead_servers_transport_error(self, capsys):
        probes = [socket.socket(), socket.socket()]
        for probe in probes:
            probe.bind(("127.0.0.1", 0))
        ports = [probe.getsockname()[1] for probe in probes]
        for probe in probes:
            probe.close()
        code, _, err = run_cli(
            capsys,
            "get", "cgks", "--n", "8", "--index", "1",
            "--servers", f":{ports[0]},:{ports[1]}", "--timeout", "1",
        )
        assert code == 3
        assert "unreachable" in err

    def test_get_server_reset_transport_error(self, capsys, resetting_listeners):
        host, port = resetting_listeners[0]
        code, _, err = run_cli(
            capsys,
            "get", "cgks", "--n", "8", "--index", "1",
            "--servers", servers_flag(resetting_listeners), "--timeout", "2",
        )
        assert code == 3
        assert err.startswith(f"transport error: server {host}:{port}")

    def test_get_malformed_answer_transport_error(
        self, capsys, malformed_answer_listeners
    ):
        host, port = malformed_answer_listeners[0]
        code, _, err = run_cli(
            capsys,
            "get", "cgks", "--n", "8", "--index", "1",
            "--servers", servers_flag(malformed_answer_listeners), "--timeout", "2",
        )
        assert code == 3
        assert err.startswith(f"transport error: server {host}:{port}")
        assert "expected 1 bytes, got 5" in err

    def test_makedb_and_load(self, capsys, tmp_path):
        path = tmp_path / "db.bin"
        code, out, _ = run_cli(
            capsys, "makedb", "--n", "8", "--db", str(path), "--bits", "10110010"
        )
        assert code == 0
        from pirlab.sim import load_database

        assert load_database(path) == bytes((1, 0, 1, 1, 0, 0, 1, 0))

    @pytest.mark.parametrize("n", ["-1", "0"])
    def test_makedb_rejects_empty_database(self, capsys, tmp_path, n):
        path = tmp_path / "db.bin"
        code, out, err = run_cli(capsys, "makedb", "--n", n, "--db", str(path))
        assert code == 2
        assert "--n must be >= 1" in err and out == ""
        assert not path.exists()


class TestBenchCommand:
    def test_table_deterministic(self, capsys):
        code, out1, _ = run_cli(
            capsys, "bench", "cgks", "--n", "8,64", "--trials", "1"
        )
        assert code == 0
        _, out2, _ = run_cli(
            capsys, "bench", "cgks", "--n", "8,64", "--trials", "1"
        )
        assert out1 == out2
        header = out1.splitlines()[0].split("\t")
        assert "predicted_bits" in header and "lower_bound_bits" in header

    # sha256 of ``bench --trials 1`` stdout.  cgks's predicted_bits is the
    # report's float raw_bits, so it prints as 26.0, not 26.
    @pytest.mark.parametrize(
        "argv, sha",
        [
            ("cgks --n 8,64,512",
             "db7de119ca713e7646bf1d30634d106368b9535a9c360bf4b3f2593f93b3862b"),
            ("lagrange --t 1 --k 3 --p 5 --n 3,20,100",
             "f85b236dee192fbd556a7b0e9f2c447f75cb8faa31a868dd47445aa9209d609a"),
            ("hermite --t 1 --k 2 --p 7 --n 4,50",
             "4871adc63df1d67814680a92cd8e91f9529059621bf1a65ea218a6186e14af2c"),
            ("yekhanin --n 3,4",
             "9c4743558b86ed80fc0ed27d8510cedc6abc7585b96a3c6a7c4be115e3ec8607"),
            ("raghavendra --n 3,4",
             "2c9f1f73d7cbcb8e8f120b89ce89c24a82c58b367e3006396468741352558226"),
            ("efremenko --m 6 --p 7 --n 3,4",
             "a5211d3d537be7c723b888e7e3062999f2e36630234e3e35021bf631e446e15e"),
            ("dvir-gopi --m 6 --n 3,4",
             "d2153e4e0071883568303da99b0fc991033aef4493669fb0fea55a2df17c4d10"),
            ("gks --m 2 --p 3 --n 3",
             "0328adad2ae5232a1ee70dee0fec1408aedaf65da90dccd7cf018c7ce527f466"),
        ],
        ids=["cgks", "lagrange", "hermite", "yekhanin", "raghavendra", "efremenko",
             "dvir-gopi", "gks"],
    )
    def test_pinned_output(self, capsys, argv, sha):
        code, out, _ = run_cli(capsys, "bench", *argv.split(), "--trials", "1")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha

    @pytest.mark.parametrize("trials", ["0", "-1"])
    @pytest.mark.parametrize("timing", [(), ("--timing",)])
    def test_nonpositive_trials_is_usage_error(self, capsys, trials, timing):
        code, out, err = run_cli(
            capsys, "bench", "cgks", "--n", "8", "--trials", trials, *timing
        )
        assert code == 2
        assert f"trials must be >= 1, got {trials}" in err and out == ""

    def test_requires_grid(self, capsys):
        code, _, err = run_cli(capsys, "bench", "cgks")
        assert code == 2
        assert "--n" in err

    def test_non_integer_grid_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bench", "cgks", "--n", "8,abc")
        assert code == 2
        assert "'8,abc'" in err
