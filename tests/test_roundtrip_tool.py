"""``tools/roundtrip.py`` at smoke size: both reliabilities complete
their round trips over UDP loopback and print one JSON object, and a
sample lost on the way makes it exit 1. The script is loaded by its
path, as it is no package module."""

import importlib.util
import json
from pathlib import Path

import pytest

from minidds.rtps import transport, wire

_PATH = Path(__file__).resolve().parent.parent / "tools" / "roundtrip.py"
_spec = importlib.util.spec_from_file_location("roundtrip", _PATH)
roundtrip = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(roundtrip)


def test_a_smoke_run_reports_both_reliabilities_against_the_floor(capsys):
    assert roundtrip.main(["--smoke"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["correct"] and (result["windows"], result["trips"]) == (2, 50)
    for name in ("best_effort", "reliable"):
        row = result[name]
        assert row["round_trip_us"] > 0 and row["floor_us"] > 0
        assert row["ratio"] == pytest.approx(row["round_trip_us"] / row["floor_us"], rel=0.01)
        assert [len(row["windows_us"][k]) for k in ("round_trip", "floor")] == [2, 2]


def test_a_lost_sample_fails_the_run(monkeypatch, capsys):
    """The 30th DATA sent, in the BEST_EFFORT run, is dropped: that run
    stops with the loss and the RELIABLE run after it still completes."""
    send = transport.UdpTransport.send
    sent = []

    def dropping(self, data, dest):
        if wire.read_data_message(data) is not None:
            sent.append(data)
            if len(sent) == 30:
                return
        send(self, data, dest)

    monkeypatch.setattr(roundtrip, "TIMEOUT_S", 0.2)
    monkeypatch.setattr(transport.UdpTransport, "send", dropping)
    assert roundtrip.main(["--smoke"]) == 1
    result = json.loads(capsys.readouterr().out)
    assert not result["correct"]
    assert result["best_effort"]["error"].endswith("was not taken within 0.2 s")
    assert "round_trip_us" in result["reliable"]
