"""Unit tests for CLI persistence (.save/.load/.audit) and main()."""



from repro.cli import Repl, main
from repro.core.audit import AuditLog
from repro.workloads import build_paper_engine
from repro.workloads.paperdb import EXAMPLE_1_QUERY


class TestSaveLoad:
    def test_save_then_load(self, tmp_path):
        path = str(tmp_path / "authdb.json")
        repl = Repl(build_paper_engine(), user="admin")
        assert f"saved to {path}" in repl.process_line(f".save {path}")

        # Mutate the live engine, then restore the snapshot.
        repl.process_line(".user admin")
        repl.engine.catalog.revoke("PSA", "Brown")
        assert f"loaded {path}" in repl.process_line(f".load {path}")
        assert "PSA" in repl.engine.catalog.views_of("Brown")

    def test_load_missing_file(self):
        repl = Repl(build_paper_engine())
        assert repl.process_line(".load /nonexistent/x.json") \
            .startswith("error:")

    def test_usage_messages(self):
        repl = Repl(build_paper_engine())
        assert "usage" in repl.process_line(".save")
        assert "usage" in repl.process_line(".load")

    def test_loaded_engine_answers(self, tmp_path):
        path = str(tmp_path / "authdb.json")
        repl = Repl(build_paper_engine(), user="Brown")
        repl.process_line(f".save {path}")
        repl.process_line(f".load {path}")
        output = repl.process_line(EXAMPLE_1_QUERY.replace("\n", " "))
        assert "Acme" in output


class TestAuditCommand:
    def test_audit_disabled_message(self):
        repl = Repl(build_paper_engine())
        assert "not enabled" in repl.process_line(".audit")

    def test_audit_report(self):
        engine = build_paper_engine()
        engine.audit = AuditLog()
        repl = Repl(engine, user="Brown")
        repl.process_line(EXAMPLE_1_QUERY.replace("\n", " "))
        report = repl.process_line(".audit")
        assert "Brown: partial" in report


class TestMain:
    def test_execute_file(self, tmp_path, capsys, monkeypatch):
        script = tmp_path / "script.txt"
        script.write_text(
            ".user Brown\n"
            + EXAMPLE_1_QUERY.replace("\n", " ") + "\n"
            + ".quit\n",
            encoding="utf-8",
        )
        code = main(["--db", "paper", "--execute", str(script)])
        assert code == 0
        assert "Acme" in capsys.readouterr().out

    def test_snapshot_option(self, tmp_path, capsys):
        from repro import storage

        engine = build_paper_engine()
        path = tmp_path / "snap.json"
        storage.dump(engine.database, engine.catalog, path)

        script = tmp_path / "script.txt"
        script.write_text(".tables\n.quit\n", encoding="utf-8")
        code = main(["--snapshot", str(path),
                     "--execute", str(script)])
        assert code == 0
        assert "EMPLOYEE: 3 rows" in capsys.readouterr().out

    def test_audit_option(self, tmp_path, capsys):
        script = tmp_path / "script.txt"
        script.write_text(
            ".user Brown\n"
            + EXAMPLE_1_QUERY.replace("\n", " ") + "\n"
            + ".audit\n.quit\n",
            encoding="utf-8",
        )
        code = main(["--db", "paper", "--audit",
                     "--execute", str(script)])
        assert code == 0
        assert "Brown: partial" in capsys.readouterr().out
