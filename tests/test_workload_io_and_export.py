"""Tests for workload file I/O and JSON export of recommendations."""

from __future__ import annotations

import json

import pytest

from repro.advisor.advisor import XmlIndexAdvisor
from repro.advisor.analysis import RecommendationAnalysis
from repro.advisor.config import AdvisorParameters
from repro.tools.cli import main
from repro.tools.export import (
    analysis_to_dict,
    index_to_dict,
    recommendation_to_dict,
    recommendation_to_json,
)
from repro.xquery.errors import WorkloadError
from repro.xquery.model import Workload
from repro.xquery.workload_io import (
    dump_workload_text,
    load_workload_file,
    parse_workload_text,
    save_workload_file,
)

SAMPLE_WORKLOAD_TEXT = """
-- A training workload for the advisor.
-- frequency: 5
for $i in doc("xmark.xml")/site/regions/namerica/item
where $i/quantity > 7 return $i/name;

-- frequency: 2.5
SELECT 1 FROM xmark
WHERE XMLEXISTS('$d/site/people/person[@id = "p1"]' PASSING doc AS "d");

delete node /site/regions/africa/item;

/site/people/person/name
"""


class TestWorkloadFileParsing:
    def test_statements_and_frequencies(self):
        workload = parse_workload_text(SAMPLE_WORKLOAD_TEXT, name="sample")
        assert len(workload) == 4
        assert workload[0].frequency == pytest.approx(5.0)
        assert workload[0].text.startswith("for $i")
        assert workload[1].frequency == pytest.approx(2.5)
        assert "XMLEXISTS" in workload[1].text
        assert workload[2].frequency == pytest.approx(1.0)
        assert workload[3].text == "/site/people/person/name"

    def test_comments_are_ignored(self):
        workload = parse_workload_text("-- just a comment\n/a/b;\n")
        assert len(workload) == 1

    def test_semicolon_on_its_own_line(self):
        workload = parse_workload_text("for $i in doc('x')/a\nreturn $i\n;\n/b/c;")
        assert len(workload) == 2

    def test_empty_file_raises(self):
        with pytest.raises(WorkloadError):
            parse_workload_text("-- nothing here\n\n")

    def test_round_trip_through_text(self):
        original = parse_workload_text(SAMPLE_WORKLOAD_TEXT, name="sample")
        dumped = dump_workload_text(original)
        reparsed = parse_workload_text(dumped, name="sample")
        assert len(reparsed) == len(original)
        assert [s.frequency for s in reparsed] == [s.frequency for s in original]
        assert [s.text.split()[0] for s in reparsed] == \
            [s.text.split()[0] for s in original]

    def test_save_and_load_file(self, tmp_path):
        workload = parse_workload_text(SAMPLE_WORKLOAD_TEXT)
        path = tmp_path / "workload.sql"
        save_workload_file(workload, path)
        loaded = load_workload_file(path)
        assert len(loaded) == len(workload)
        assert loaded.name == "workload"


@pytest.fixture(scope="module")
def export_recommendation(varied_database):
    workload = Workload(name="export")
    workload.add('for $i in doc("x")/site/regions/africa/item '
                 'where $i/quantity > 90 return $i/name', frequency=2.0)
    workload.add('for $p in doc("x")/site/people/person '
                 'where $p/@id = "p5" return $p/name', frequency=3.0)
    advisor = XmlIndexAdvisor(varied_database,
                              AdvisorParameters(disk_budget_bytes=32 * 1024))
    return advisor.recommend(workload)


class TestJsonExport:
    def test_recommendation_to_dict_structure(self, export_recommendation):
        payload = recommendation_to_dict(export_recommendation)
        assert payload["algorithm"] == "greedy-heuristic"
        assert payload["indexes"]
        for index in payload["indexes"]:
            assert set(index) >= {"name", "pattern", "value_type", "ddl"}
            assert index["ddl"].startswith("CREATE INDEX")
        assert payload["candidates"]["basic"] >= 2
        assert len(payload["queries"]) == 2
        assert payload["estimated_improvement_percent"] > 0

    def test_json_round_trips_through_stdlib(self, varied_database,
                                             export_recommendation):
        analysis = RecommendationAnalysis(varied_database, export_recommendation)
        text = recommendation_to_json(export_recommendation, analysis)
        parsed = json.loads(text)
        assert "recommendation" in parsed and "analysis" in parsed
        assert parsed["analysis"]["summary"]["improvement_recommended_pct"] > 0
        assert len(parsed["analysis"]["per_query"]) == 2

    def test_index_to_dict_size_optional(self, export_recommendation):
        definition = export_recommendation.configuration.definitions[0]
        without_size = index_to_dict(definition)
        assert "estimated_size_bytes" not in without_size
        with_size = index_to_dict(definition, size_bytes=123.4)
        assert with_size["estimated_size_bytes"] == pytest.approx(123.4)

    def test_analysis_to_dict(self, varied_database, export_recommendation):
        analysis = RecommendationAnalysis(varied_database, export_recommendation)
        payload = analysis_to_dict(analysis)
        assert set(payload) == {"summary", "per_query"}
        assert all(row["cost_no_indexes"] >= row["cost_recommended"]
                   for row in payload["per_query"])


class TestCliIntegrationWithFiles:
    def _assert_one_error_line(self, capsys, path, args, reason):
        with pytest.raises(SystemExit) as exit_info:
            main(["recommend", "--scenario", "xmark-small",
                  "--workload-file", str(path)] + args)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith(f"error: --workload-file {path}: ")
        assert reason in lines[0]
        assert "Traceback" not in captured.err

    def test_missing_workload_file_is_one_error_line(self, tmp_path, capsys):
        self._assert_one_error_line(capsys, tmp_path / "absent.sql", [],
                                    "No such file or directory")

    def test_empty_workload_file_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "empty.sql"
        path.write_text("-- only a comment\n\n")
        self._assert_one_error_line(capsys, path, [], "no statements")

    def test_unparsable_workload_statement_is_one_error_line(self, tmp_path,
                                                             capsys):
        path = tmp_path / "bad.sql"
        path.write_text("/site/people/person[@id = ;\n")
        self._assert_one_error_line(capsys, path, [], "unexpected token")

    def test_recommend_with_workload_file_and_json_out(self, tmp_path, capsys):
        workload_path = tmp_path / "wl.sql"
        workload_path.write_text(
            "-- frequency: 3\n"
            'for $i in doc("xmark.xml")/site/regions/namerica/item '
            "where $i/quantity > 7 return $i/name;\n")
        json_path = tmp_path / "rec.json"
        code = main(["recommend", "--scenario", "xmark-small",
                     "--workload-file", str(workload_path),
                     "--budget-kb", "64", "--json-out", str(json_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "CREATE INDEX" in out
        payload = json.loads(json_path.read_text())
        assert payload["recommendation"]["indexes"]
