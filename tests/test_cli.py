"""Command line exit codes and printed output.

Each test drives ``minidds.cli.main`` directly with an argv list, so
stdout/stderr land in capsys and no subprocess is needed.
"""

import pathlib

import pytest

from minidds import cli
from minidds.bench import parse_csv
from minidds.cli import EXIT_CONFIG, EXIT_OK

DATA = pathlib.Path(__file__).parent / "data"


class TestIdlCheck:

    def test_valid_file_echoes_canonical_form(self, tmp_path, capsys):
        path = tmp_path / "pair.idl"
        path.write_text("struct Pair{long a;//@key\nlong b;};")
        assert cli.main(["idl", "check", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "struct Pair {" in out
        assert "//@key" in out

    def test_parse_error_names_file_and_position(self, tmp_path, capsys):
        path = tmp_path / "broken.idl"
        path.write_text("struct Broken { wat x; };")
        assert cli.main(["idl", "check", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"{path}:1:")

    def test_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.idl"
        assert cli.main(["idl", "check", str(missing)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error:")


class TestFomMap:

    def test_maps_model_to_topic_table(self, capsys):
        assert cli.main(["fom", "map", str(DATA / "federation.xml")]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("topic")
        assert lines[1].startswith("Vehicule.VehiculeATT")
        assert "RELIABLE" in lines[1] and "BY_RECEPTION_TIMESTAMP" in lines[1]
        assert lines[2].startswith("Global_Interaction.Global")
        assert "BY_SOURCE_TIMESTAMP" in lines[2]
        # Without an override file every topic carries the opaque type.
        assert lines[1].rstrip().endswith("HlaBlob")

    def test_type_overrides(self, tmp_path, capsys):
        overrides = tmp_path / "types.map"
        overrides.write_text("Vehicule.VehiculeATT=Pose\n")
        assert cli.main(["fom", "map", str(DATA / "federation.xml"),
                         "--types", str(overrides)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].rstrip().endswith("Pose")
        assert lines[2].rstrip().endswith("HlaBlob")

    def test_bad_document(self, tmp_path, capsys):
        path = tmp_path / "bad.xml"
        path.write_text("<notAModel/>")
        assert cli.main(["fom", "map", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error:")


class TestBenchLatency:

    def test_selftest_prints_summary(self, capsys):
        rc = cli.main(["bench", "latency", "--selftest", "--count", "8",
                       "--rate", "2000", "--payload", "16"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "latency mean (us)" in out
        assert "samples 8  lost 0" in out

    def test_selftest_writes_csv(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        rc = cli.main(["bench", "latency", "--selftest", "--count", "6",
                       "--rate", "2000", "--csv", str(trace_path)])
        assert rc == EXIT_OK
        capsys.readouterr()
        records, mode = parse_csv(trace_path.read_text())
        assert [r.sequence for r in records] == [1, 2, 3, 4, 5, 6]
        assert mode == "round-trip/2"

    def test_selftest_with_reference_table(self, capsys):
        rc = cli.main(["bench", "latency", "--selftest", "--count", "6",
                       "--rate", "2000", "--reference", "table1"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "154.87" in out and "126.60" in out
        assert "measured" in out and "vs DDS" in out

    def test_bad_rate(self, capsys):
        rc = cli.main(["bench", "latency", "--selftest", "--rate", "0"])
        assert rc == EXIT_CONFIG
        assert "rate must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("peers,fragment", [
        ("localhost", "not host:port"),
        ("localhost:http", "bad port"),
    ])
    def test_bad_peer_list(self, peers, fragment, capsys):
        rc = cli.main(["bench", "latency", "--role", "ping",
                       "--peers", peers])
        assert rc == EXIT_CONFIG
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize("line,fragment", [
        ("history.depth = 0", "HISTORY KEEP_LAST depth must be >= 1"),
        ("transport_priority.value = 5", "TRANSPORT_PRIORITY is not supported"),
    ])
    def test_invalid_qos_file_exits_2(self, tmp_path, line, fragment, capsys):
        qos_path = tmp_path / "bad.qos"
        qos_path.write_text(line + "\n")
        rc = cli.main(["bench", "latency", "--selftest", "--count", "5",
                       "--qos", str(qos_path)])
        assert rc == EXIT_CONFIG
        assert f"error: {fragment}" in capsys.readouterr().err

    def test_peer_list_parsing(self):
        assert cli._parse_peers(" a:1, b:2 ,") == [("a", 1), ("b", 2)]
        # rpartition keeps colons inside the host part.
        assert cli._parse_peers("::1:7400") == [("::1", 7400)]
        assert cli._parse_peers(None) == []


class TestBenchThroughput:

    def test_bad_sizes(self, capsys):
        rc = cli.main(["bench", "throughput", "--sizes", "10,abc"])
        assert rc == EXIT_CONFIG
        assert "must be integers" in capsys.readouterr().err

    def test_size_list_parsing(self):
        assert cli._parse_sizes("10, 100 ,1000") == [10, 100, 1000]
