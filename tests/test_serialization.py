"""Tests for metrics serialization."""

import pytest

from repro.sim.metrics import (MetricsRecorder, QuantumRecord,
                               TenantSnapshot)


def make_recorder(n=4):
    recorder = MetricsRecorder()
    for i in range(n):
        recorder.append(QuantumRecord(
            time=(i + 1) * 0.1,
            tenants={"a": TenantSnapshot(1.5, 100, 10 + i, 0b11),
                     "b": TenantSnapshot(0.7, 200, 20, 0b1100)},
            ddio_hits=50 + i, ddio_misses=5,
            ddio_mask=0b11 << 9,
            mem_read_bytes=640, mem_write_bytes=64,
            vf_delivered={"vf0": 10}, vf_dropped={"vf0": 1}))
    return recorder


class TestJsonRoundtrip:
    def test_roundtrip_preserves_everything(self):
        original = make_recorder()
        clone = MetricsRecorder.from_json(original.to_json())
        assert len(clone) == len(original)
        for a, b in zip(original.records, clone.records):
            assert a.time == b.time
            assert a.ddio_hits == b.ddio_hits
            assert a.vf_delivered == b.vf_delivered
            assert a.tenants["a"].ipc == b.tenants["a"].ipc
            assert a.tenants["b"].mask == b.tenants["b"].mask

    def test_empty_recorder(self):
        clone = MetricsRecorder.from_json(MetricsRecorder().to_json())
        assert len(clone) == 0

    def test_unknown_record_field_rejected(self):
        import json
        payload = json.loads(make_recorder(1).to_json())
        payload[0]["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            MetricsRecorder.from_json(json.dumps(payload))

    def test_unknown_snapshot_field_rejected(self):
        import json
        payload = json.loads(make_recorder(1).to_json())
        payload[0]["tenants"]["a"]["surprise"] = 9
        with pytest.raises(ValueError, match="surprise"):
            MetricsRecorder.from_json(json.dumps(payload))


class TestCsv:
    def test_header_and_rows(self):
        text = make_recorder(3).to_csv()
        lines = text.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("time,ddio_hits")
        assert "a.ipc" in lines[0] and "b.llc_misses" in lines[0]
        assert lines[1].startswith("0.1,50,5")

    def test_vf_columns_present(self):
        lines = make_recorder(1).to_csv().strip().splitlines()
        assert "vf.vf0.delivered" in lines[0]
        assert "vf.vf0.dropped" in lines[0]
        assert lines[1].endswith("10,1")

    def test_empty(self):
        assert MetricsRecorder().to_csv() == ""

    def test_roundtrip_preserves_everything(self):
        original = make_recorder()
        clone = MetricsRecorder.from_csv(original.to_csv())
        assert clone.records == original.records

    def test_dotted_vf_names_roundtrip(self):
        recorder = make_recorder(2)
        for record in recorder.records:
            record.vf_delivered = {"nic0.rx": 7}
            record.vf_dropped = {"nic0.rx": 2}
        clone = MetricsRecorder.from_csv(recorder.to_csv())
        assert clone.records == recorder.records

    def test_unrecognized_column_rejected(self):
        text = make_recorder(1).to_csv()
        lines = text.splitlines()
        lines[0] = lines[0].replace("a.ipc", "a.oops")
        with pytest.raises(ValueError, match="oops"):
            MetricsRecorder.from_csv("\n".join(lines))

    def test_empty_roundtrip(self):
        assert len(MetricsRecorder.from_csv("")) == 0
