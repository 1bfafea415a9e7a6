"""The command-line interface."""

import pytest

from repro.cli import main


def test_query_command(capsys):
    code = main(
        [
            "query",
            "{(S, T) | S.Type = {snacks} & T.Type = {beers} "
            "& max(S.Price) <= min(T.Price)}",
            "--transactions", "300",
            "--pairs", "3",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "valid pairs" in out
    assert "frequent valid S-sets" in out


def test_query_with_baseline_and_explain(capsys):
    code = main(
        [
            "query",
            "{(S, T) | max(S.Price) <= min(T.Price)}",
            "--transactions", "250",
            "--baseline",
            "--explain",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "speedup over Apriori+" in out
    assert "operation counts" in out


def test_single_variable_query(capsys):
    code = main(
        ["query", "{(S) | S.Type = {snacks}}", "--transactions", "200"]
    )
    assert code == 0
    assert "frequent valid S-sets" in capsys.readouterr().out


def test_classify_onevar(capsys):
    assert main(["classify", "min(S.Price) <= 10"]) == 0
    out = capsys.readouterr().out
    assert "1-variable" in out and "succinct:      True" in out


def test_classify_twovar(capsys):
    assert main(["classify", "max(S.A) <= min(T.B)"]) == 0
    out = capsys.readouterr().out
    assert "quasi-succinct: True" in out
    assert "Figures 2-3" in out


def test_classify_syntax_error_exit_code(capsys):
    assert main(["classify", "max(S.A <= 5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_experiments_smoke_single_family(capsys):
    assert main(["experiments", "--scale", "smoke", "--only", "ccc"]) == 0
    out = capsys.readouterr().out
    assert "ccc-optimality audit" in out


def test_bad_query_exit_code(capsys):
    assert main(["query", "not a query"]) == 2


QUERY = "{(S, T) | max(S.Price) <= min(T.Price)}"


def test_query_pairs_zero_prints_no_pairs(capsys):
    code = main(["query", QUERY, "--transactions", "200", "--pairs", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "first 0 valid pairs:" in out
    assert "  S=" not in out


@pytest.mark.parametrize("command", ["query", "batch"])
def test_negative_pairs_rejected(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, QUERY, "--pairs", "-1"])
    assert info.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


def test_backend_flags_are_rejected(capsys):
    """One counting kernel ships, so no command takes a backend choice."""
    for argv in (
        ["query", QUERY, "--backend", "hybrid"],
        ["query", QUERY, "--workers", "2"],
        ["batch", QUERY, "--backend", "hybrid"],
        ["serve", "--backend", "hybrid"],
        ["experiments", "--only", "backends"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err or "invalid choice" in err, argv


def test_query_trace_out_writes_valid_report(capsys, tmp_path):
    import json

    from repro.obs.report import RunReport

    path = tmp_path / "run.json"
    code = main(
        [
            "query", "{(S, T) | S.Type = T.Type}",
            "--transactions", "200",
            "--trace-out", str(path),
            "--explain",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "run report written to" in out
    assert "per-level pruning:" in out
    document = json.loads(path.read_text())
    RunReport.validate(document)
    # At least one span per mining level per variable.
    def spans(node):
        yield node
        for child in node.get("children", []):
            yield from spans(child)
    all_spans = [s for root in document["trace"]["spans"] for s in spans(root)]
    level_spans = [s for s in all_spans if s["name"] == "level"]
    assert len(level_spans) >= 2
    assert {"candidates_in", "frequent_out", "pruned"} <= set(
        level_spans[0]["attributes"]
    )
    assert document["pruning"]["S"]["1"]["counted"] > 0
    assert document["op_counters"]["sets_counted"] > 0


def test_query_profile_embeds_hotspots(capsys, tmp_path):
    import json

    path = tmp_path / "run.json"
    code = main(
        [
            "query", QUERY,
            "--transactions", "200",
            "--profile",
            "--trace-out", str(path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "top hotspots" in out
    document = json.loads(path.read_text())
    assert document["profile"]["engine"] == "cProfile"
    assert len(document["profile"]["hotspots"]) > 0


def test_query_log_level_flag(capsys):
    import logging

    from repro.obs import logs as obs_logs

    try:
        code = main(
            [
                "query", QUERY,
                "--transactions", "200",
                "--log-level", "debug",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        # Logging is wired to stderr; the dovetail engine logs its run config.
        assert "repro.mining.dovetail" in captured.err
    finally:
        # Detach the handler (it holds this test's captured stderr) so
        # later tests don't log into a torn-down stream.
        root = logging.getLogger(obs_logs.ROOT_LOGGER_NAME)
        if obs_logs._configured_handler is not None:
            root.removeHandler(obs_logs._configured_handler)
            obs_logs._configured_handler = None
        root.setLevel(logging.NOTSET)


def test_experiments_report_dir(capsys, tmp_path):
    import json

    from repro.obs.report import RunReport

    report_dir = tmp_path / "reports"
    code = main(
        [
            "experiments", "--scale", "smoke", "--only", "jmax",
            "--report-dir", str(report_dir),
        ]
    )
    assert code == 0
    assert "run reports written under" in capsys.readouterr().out
    written = sorted(report_dir.glob("*.json"))
    assert written
    for path in written:
        RunReport.validate(json.loads(path.read_text()))


# ----------------------------------------------------------------------
# Telemetry surfacing: --telemetry-out and the stats subcommand
# ----------------------------------------------------------------------
QUERY_2VAR = "{(S, T) | S.Type = T.Type & count(S) >= 2}"


def test_query_telemetry_out_requires_cache_dir(capsys, tmp_path):
    code = main(
        [
            "query", QUERY_2VAR,
            "--transactions", "200",
            "--telemetry-out", str(tmp_path / "telemetry.json"),
        ]
    )
    assert code == 2
    assert "--cache-dir" in capsys.readouterr().err


def test_stats_on_telemetry_snapshot(capsys, tmp_path):
    import json

    telemetry_path = str(tmp_path / "telemetry.json")
    args = [
        "query", QUERY_2VAR,
        "--transactions", "200",
        "--cache-dir", str(tmp_path / "cache"),
        "--telemetry-out", telemetry_path,
    ]
    assert main(args) == 0
    assert main(args) == 0  # warm run overwrites the snapshot
    capsys.readouterr()

    with open(telemetry_path, encoding="utf-8") as handle:
        document = json.load(handle)
    assert document["schema"] == "repro.serve.telemetry"
    # The second process served from the disk tier.
    assert "warm-disk" in document["outcomes"]

    assert main(["stats", telemetry_path]) == 0
    out = capsys.readouterr().out
    assert "serving telemetry" in out
    assert "warm-disk" in out
    assert "journal: seq" in out

    assert main(["stats", telemetry_path, "--format", "prometheus"]) == 0
    prom = capsys.readouterr().out
    from repro.obs.export import lint_prometheus

    assert lint_prometheus(prom) == []
    assert "repro_serves_total" in prom

    # Telemetry snapshots carry no span tree: chrome-trace must refuse.
    assert main(
        ["stats", telemetry_path, "--format", "chrome-trace"]
    ) == 2
    assert "chrome-trace" in capsys.readouterr().err


def test_stats_on_run_report_with_chrome_trace(capsys, tmp_path):
    import json

    report_path = str(tmp_path / "report.json")
    code = main(
        [
            "query", QUERY_2VAR,
            "--transactions", "200",
            "--trace-out", report_path,
        ]
    )
    assert code == 0
    capsys.readouterr()

    assert main(["stats", report_path]) == 0
    out = capsys.readouterr().out
    assert "run report v" in out
    assert "frequent valid S-sets" in out

    trace_path = str(tmp_path / "trace.json")
    assert main(
        ["stats", report_path, "--format", "chrome-trace",
         "--out", trace_path]
    ) == 0
    from repro.obs.export import validate_chrome_trace

    with open(trace_path, encoding="utf-8") as handle:
        doc = json.load(handle)
    assert validate_chrome_trace(doc) == []
    assert any(e["ph"] == "X" for e in doc["traceEvents"])


def test_stats_rejects_unrecognized_files(capsys, tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"schema": "something.else"}')
    assert main(["stats", str(path)]) == 2
    assert "unrecognized schema" in capsys.readouterr().err

    missing = str(tmp_path / "missing.json")
    assert main(["stats", missing]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_batch_journal_out_writes_jsonl(capsys, tmp_path):
    journal_path = str(tmp_path / "journal.jsonl")
    code = main(
        [
            "batch", QUERY_2VAR,
            "--transactions", "200",
            "--journal-out", journal_path,
        ]
    )
    assert code == 0
    assert "event journal written" in capsys.readouterr().out
    from repro.obs.events import read_journal

    events = read_journal(journal_path)
    assert events
    kinds = {event["kind"] for event in events}
    assert "batch_execute" in kinds
    seqs = [event["seq"] for event in events]
    assert seqs == sorted(seqs)
