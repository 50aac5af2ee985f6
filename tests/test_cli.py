"""CLI behaviour: reports, exit codes, config files, determinism, and the
networked get path."""

import socket

import pytest

from pirlab import cli
from pirlab.cli import main
from pirlab.protocols.cube import build_cgks
from pirlab.sim import ServerNode, Transcript, serve


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
            return 0, Transcript(protocol=scheme.name)

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


class TestNetworkCommands:
    def test_get_round_trip(self, capsys, tmp_path):
        scheme = build_cgks(8)
        x = (0, 1, 1, 0, 1, 0, 0, 1)
        servers = [
            serve(ServerNode(server_id=j + 1, scheme=scheme, database=x))
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

    def test_get_without_seed_sends_fresh_queries(self, capsys):
        received = []

        class RecordingNode(ServerNode):
            def answer_payload(self, query_payload):
                received.append(query_payload)
                return super().answer_payload(query_payload)

        scheme = build_cgks(512)  # server 1's query is 24 uniform bits
        x = tuple(j % 3 % 2 for j in range(512))
        servers = [
            serve(RecordingNode(server_id=1, scheme=scheme, database=x)),
            serve(ServerNode(server_id=2, scheme=scheme, database=x)),
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

    @pytest.mark.parametrize("timeout", ["-1", "0", "nan", "inf"])
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

    def test_get_dead_servers_transport_error(self, capsys):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code, _, err = run_cli(
            capsys,
            "get", "cgks", "--n", "8", "--index", "1",
            "--servers", f":{port},:{port}", "--timeout", "1",
        )
        assert code == 3
        assert "unreachable" in err

    def test_makedb_and_load(self, capsys, tmp_path):
        path = tmp_path / "db.bin"
        code, out, _ = run_cli(
            capsys, "makedb", "--n", "8", "--db", str(path), "--bits", "10110010"
        )
        assert code == 0
        from pirlab.sim import load_database

        assert load_database(path) == (1, 0, 1, 1, 0, 0, 1, 0)


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

    def test_requires_grid(self, capsys):
        code, _, err = run_cli(capsys, "bench", "cgks")
        assert code == 2
        assert "--n" in err
