"""Tests for the reporting/export utilities."""

import json


from repro.experiments import fig6_area
from repro.report import to_json


class TestExport:
    def test_json_roundtrip(self, tmp_path):
        result = fig6_area.run()
        path = to_json(result, tmp_path / "fig6.json")
        loaded = json.loads(path.read_text())
        assert loaded["rows"][0]["n"] == 4
