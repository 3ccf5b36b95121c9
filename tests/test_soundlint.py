"""The soundlint analyzer: rule fixtures, suppressions, CLI, live tree.

Each rule gets at least one fixture snippet that must trigger it and
one that must pass; the meta-test at the bottom then pins the real
``src``/``examples`` tree at zero violations, which is what makes the
analyzer a gate rather than a report.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import pytest

from repro.analysis.cli import main
from repro.analysis.framework import Report, all_rules, run_paths

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_tree(tmp_path: Path, files: Dict[str, str]) -> Path:
    root = tmp_path / "proj"
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return root


def lint(root: Path, *paths: str,
         select: Optional[Sequence[str]] = None) -> Report:
    return run_paths([root / p for p in paths], select=select, root=root)


def rules_hit(report: Report) -> List[str]:
    return [v.rule for v in report.violations]


# ----------------------------------------------------------------------
# SL000 — the analyzer fails closed
# ----------------------------------------------------------------------


def test_unparseable_file_is_a_violation(tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "src/repro/broken.py": "def oops(:\n",
    })
    report = lint(root, "src")
    assert rules_hit(report) == ["SL000"]
    assert "could not be analyzed" in report.violations[0].message


# ----------------------------------------------------------------------
# SL001 — fail-closed exception discipline
# ----------------------------------------------------------------------

SL001_BAD = """
    def helper() -> None:
        try:
            risky()
        except Exception:
            pass
"""

SL001_BARE = """
    def helper() -> None:
        try:
            risky()
        except:
            pass
"""

SL001_NARROW = """
    from repro.errors import ReproError

    def helper() -> None:
        try:
            risky()
        except ReproError:
            pass
"""

SL001_RERAISE = """
    def helper() -> None:
        try:
            risky()
        except BaseException:
            cleanup()
            raise
"""


@pytest.mark.parametrize("body", [SL001_BAD, SL001_BARE])
def test_sl001_flags_broad_except(tmp_path: Path, body: str) -> None:
    root = make_tree(tmp_path, {"src/repro/core/util.py": body})
    report = lint(root, "src", select=["SL001"])
    assert rules_hit(report) == ["SL001"]
    assert "helper" in report.violations[0].message


@pytest.mark.parametrize("body", [SL001_NARROW, SL001_RERAISE])
def test_sl001_accepts_narrow_or_reraise(tmp_path: Path,
                                         body: str) -> None:
    root = make_tree(tmp_path, {"src/repro/core/util.py": body})
    assert lint(root, "src", select=["SL001"]).clean


def test_sl001_exempts_registered_boundary(tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "src/repro/core/engine.py": """
            class AuthorizationEngine:
                def _authorize_many(self, user: str, query: str) -> str:
                    try:
                        return self._inner(user, query)
                    except Exception as error:
                        return self._failed(error)
        """,
    })
    assert lint(root, "src", select=["SL001"]).clean


def test_sl001_same_method_name_elsewhere_is_not_exempt(
        tmp_path: Path) -> None:
    # The boundary registry is per module:qualname, not per name.
    root = make_tree(tmp_path, {
        "src/repro/core/other.py": """
            class AuthorizationEngine:
                def _authorize_many(self, user: str, query: str) -> str:
                    try:
                        return self._inner(user, query)
                    except Exception:
                        return ""
        """,
    })
    assert rules_hit(lint(root, "src", select=["SL001"])) == ["SL001"]


# ----------------------------------------------------------------------
# SL002 — budget coverage of meta-algebra operators
# ----------------------------------------------------------------------


def test_sl002_flags_operator_without_budget_param(
        tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "src/repro/metaalgebra/prune.py": """
            def drop_rows(table: MaskTable) -> MaskTable:
                return table
        """,
    })
    report = lint(root, "src", select=["SL002"])
    assert rules_hit(report) == ["SL002"]
    assert "budget" in report.violations[0].message


def test_sl002_flags_operator_that_never_charges(tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "src/repro/metaalgebra/prune.py": """
            def drop_rows(table: MaskTable,
                          budget: Optional[Budget] = None) -> MaskTable:
                return table
        """,
    })
    report = lint(root, "src", select=["SL002"])
    assert rules_hit(report) == ["SL002"]
    assert "never charges" in report.violations[0].message


def test_sl002_accepts_charging_operator(tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "src/repro/metaalgebra/prune.py": """
            def drop_rows(table: MaskTable,
                          budget: Optional[Budget] = None) -> MaskTable:
                if budget is not None:
                    budget.charge_rows(len(table.rows), "prune")
                return table
        """,
    })
    assert lint(root, "src", select=["SL002"]).clean


def test_sl002_ignores_single_tuple_helpers_and_other_modules(
        tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        # A row combiner returns one Optional[MetaTuple]: not an
        # operator materializing a row set.
        "src/repro/metaalgebra/selfjoin.py": """
            def combine(left: MetaTuple,
                        right: MetaTuple) -> Optional[MetaTuple]:
                return left
        """,
        # Same shape outside the budgeted modules: out of scope.
        "src/repro/core/other.py": """
            def rebuild(table: MaskTable) -> MaskTable:
                return table
        """,
    })
    assert lint(root, "src", select=["SL002"]).clean


# ----------------------------------------------------------------------
# SL003 — meta-table immutability
# ----------------------------------------------------------------------


def test_sl003_flags_mutations_of_protected_params(
        tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "src/repro/metaalgebra/bad.py": """
            def renumber(table: MaskTable) -> MaskTable:
                table.rows.append(None)
                table.columns = ()
                return table
        """,
    })
    report = lint(root, "src", select=["SL003"])
    assert rules_hit(report) == ["SL003", "SL003"]


def test_sl003_accepts_pure_operators(tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "src/repro/metaalgebra/good.py": """
            def renumber(table: MaskTable) -> MaskTable:
                rows = [row for row in table.rows]
                rows.append(None)  # a local list is fair game
                return table.with_rows(rows)
        """,
    })
    assert lint(root, "src", select=["SL003"]).clean


# ----------------------------------------------------------------------
# SL004 — deterministic key construction
# ----------------------------------------------------------------------


def test_sl004_flags_nondeterminism_in_key_modules(
        tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "src/repro/core/cache.py": """
            import random

            def entry_key(plan: object) -> int:
                return id(plan)

            def shuffle(entries: set) -> list:
                return [e for e in entries if e]
        """,
    })
    report = lint(root, "src", select=["SL004"])
    # import random + id() — the comprehension iterates a *named* set
    # (contents unknown statically), which is mypy's job, not ours.
    assert rules_hit(report) == ["SL004", "SL004"]


def test_sl004_flags_raw_set_iteration(tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "src/repro/metaalgebra/canonical.py": """
            def key_parts(names: list) -> list:
                return [n for n in {x for x in names}]
        """,
    })
    assert rules_hit(lint(root, "src", select=["SL004"])) == ["SL004"]


def test_sl004_ignores_other_modules_and_sorted_sets(
        tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        # random is fine outside the key-producing modules...
        "src/repro/workloads/gen.py": "import random\n",
        # ...and sorted set iteration is fine inside them.
        "src/repro/metaalgebra/canonical.py": """
            def key_parts(names: list) -> list:
                return [n for n in sorted({x for x in names})]
        """,
    })
    assert lint(root, "src", select=["SL004"]).clean


# ----------------------------------------------------------------------
# SL005 — oracle parity for fast paths
# ----------------------------------------------------------------------

# The fixture tree mirrors every FAST_PATHS entry registered for
# repro.core.compiled_mask (the rule checks the *real* registry
# against whatever tree it scans, so a fixture containing that module
# must define all of its registered fast paths).
ORACLE_TREE = {
    "src/repro/core/compiled_mask.py": """
        def compile_mask(mask: object) -> object:
            return mask

        def apply_mask_columnar(compiled: object,
                                answer: object) -> object:
            return answer
    """,
    "src/repro/core/mask.py": """
        class Mask:
            def apply(self, answer: object) -> object:
                return answer
    """,
    "tests/property/test_compiled_mask.py": """
        # differential: compile_mask vs Mask.apply
    """,
    "tests/property/test_columnar_relation.py": """
        # differential: apply_mask_columnar vs Mask.apply
    """,
}


def test_sl005_accepts_registered_fast_path(tmp_path: Path) -> None:
    root = make_tree(tmp_path, dict(ORACLE_TREE))
    assert lint(root, "src", select=["SL005"]).clean


def test_sl005_flags_missing_differential_test(tmp_path: Path) -> None:
    files = dict(ORACLE_TREE)
    del files["tests/property/test_compiled_mask.py"]
    root = make_tree(tmp_path, files)
    report = lint(root, "src", select=["SL005"])
    assert rules_hit(report) == ["SL005"]
    assert "missing" in report.violations[0].message


def test_sl005_flags_vanished_oracle(tmp_path: Path) -> None:
    files = dict(ORACLE_TREE)
    files["src/repro/core/mask.py"] = "class Mask:\n    pass\n"
    root = make_tree(tmp_path, files)
    report = lint(root, "src", select=["SL005"])
    # Both registered fast paths in the module share the Mask.apply
    # oracle, so both report it vanished.
    assert rules_hit(report) == ["SL005"] * 2
    assert all("oracle" in v.message for v in report.violations)


def test_sl005_discovers_unregistered_fast_path(tmp_path: Path) -> None:
    files = dict(ORACLE_TREE)
    files["src/repro/metaalgebra/join.py"] = """
        def meta_join_streaming(rows: list) -> list:
            return rows
    """
    root = make_tree(tmp_path, files)
    report = lint(root, "src", select=["SL005"])
    assert rules_hit(report) == ["SL005"]
    assert "no registered oracle" in report.violations[0].message


# ----------------------------------------------------------------------
# SL006 — no authorize bypass in examples/workloads
# ----------------------------------------------------------------------


def test_sl006_flags_direct_reads_in_examples(tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "examples/demo.py": """
            from repro.algebra.evaluate import evaluate

            rows = db.instance("R").rows
            answer = evaluate(plan, db)
        """,
    })
    report = lint(root, "examples", select=["SL006"])
    assert rules_hit(report) == ["SL006", "SL006", "SL006"]


def test_sl006_suppression_needs_the_comment(tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "examples/demo.py": """
            rows = db.instance("R").rows  # soundlint: disable=SL006 -- setup
        """,
    })
    report = lint(root, "examples", select=["SL006"])
    assert report.clean
    assert report.suppressed == 1


def test_sl006_ignores_self_and_src_core(tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        # A generator's own .instance(...) method is not a Database read.
        "src/repro/workloads/gen.py": """
            class G:
                def build(self, spec: object) -> object:
                    return self.instance(spec, None)
        """,
        # Core engine code legitimately evaluates plans.
        "src/repro/core/runner.py": """
            from repro.algebra.evaluate import evaluate
        """,
    })
    assert lint(root, "src", select=["SL006"]).clean


# ----------------------------------------------------------------------
# SL007 — strict annotation coverage
# ----------------------------------------------------------------------


def test_sl007_flags_missing_annotations(tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "src/repro/core/thing.py": """
            class Thing:
                def __init__(self, size):
                    self.size = size
        """,
    })
    report = lint(root, "src", select=["SL007"])
    assert rules_hit(report) == ["SL007", "SL007"]  # param + return


def test_sl007_accepts_full_annotations(tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "src/repro/core/thing.py": """
            class Thing:
                def __init__(self, size: int, *extra: int,
                             **options: str) -> None:
                    self.size = size

                @classmethod
                def default(cls) -> "Thing":
                    return cls(0)
        """,
    })
    assert lint(root, "src", select=["SL007"]).clean


# ----------------------------------------------------------------------
# SL008 — backend parity
# ----------------------------------------------------------------------

BACKEND_TREE = {
    "src/repro/backends/python.py": """
        class PythonBackend:
            name = "python"
    """,
    "src/repro/backends/sqlite.py": """
        class SQLiteBackend:
            name = "sqlite"
    """,
    "tests/property/test_backend_parity.py": """
        # differential: SQLiteBackend vs PythonBackend
    """,
}


def test_sl008_accepts_registered_backend(tmp_path: Path) -> None:
    root = make_tree(tmp_path, dict(BACKEND_TREE))
    assert lint(root, "src", select=["SL008"]).clean


def test_sl008_flags_missing_parity_test(tmp_path: Path) -> None:
    files = dict(BACKEND_TREE)
    del files["tests/property/test_backend_parity.py"]
    root = make_tree(tmp_path, files)
    report = lint(root, "src", select=["SL008"])
    assert rules_hit(report) == ["SL008"]
    assert "missing" in report.violations[0].message


def test_sl008_flags_vanished_oracle(tmp_path: Path) -> None:
    files = dict(BACKEND_TREE)
    files["src/repro/backends/python.py"] = "NAME = 'python'\n"
    root = make_tree(tmp_path, files)
    report = lint(root, "src", select=["SL008"])
    assert "oracle" in report.violations[0].message


def test_sl008_flags_test_missing_either_class(tmp_path: Path) -> None:
    files = dict(BACKEND_TREE)
    files["tests/property/test_backend_parity.py"] = """
        # mentions SQLiteBackend but not the reference backend
    """
    root = make_tree(tmp_path, files)
    report = lint(root, "src", select=["SL008"])
    assert rules_hit(report) == ["SL008"]
    assert "exercise both" in report.violations[0].message


def test_sl008_flags_vanished_registered_backend(tmp_path: Path) -> None:
    files = dict(BACKEND_TREE)
    files["src/repro/backends/sqlite.py"] = "NAME = 'sqlite'\n"
    root = make_tree(tmp_path, files)
    report = lint(root, "src", select=["SL008"])
    assert rules_hit(report) == ["SL008"]
    assert "no longer exists" in report.violations[0].message


def test_sl008_discovers_unregistered_backend(tmp_path: Path) -> None:
    files = dict(BACKEND_TREE)
    files["src/repro/backends/rocks.py"] = """
        class RocksBackend:
            name = "rocks"
    """
    root = make_tree(tmp_path, files)
    report = lint(root, "src", select=["SL008"])
    assert rules_hit(report) == ["SL008"]
    assert "no registered oracle" in report.violations[0].message


def test_sl008_exempts_oracle_and_protocol(tmp_path: Path) -> None:
    files = dict(BACKEND_TREE)
    files["src/repro/backends/base.py"] = """
        class ExecutionBackend:
            name = "protocol"
    """
    root = make_tree(tmp_path, files)
    assert lint(root, "src", select=["SL008"]).clean


# ----------------------------------------------------------------------
# SL009 — failover oracle pinning
# ----------------------------------------------------------------------

FAILOVER_TREE = {
    "src/repro/resilience/failover.py": """
        class ResilientExecutor:
            def __init__(self, primary, oracle):
                self.primary = primary
                self.oracle = oracle
    """,
    "src/repro/backends/python.py": """
        class PythonBackend:
            name = "python"
    """,
    "tests/test_failover.py": """
        # parity: ResilientExecutor re-routes to PythonBackend
    """,
}


def test_sl009_accepts_registered_failover_path(tmp_path: Path) -> None:
    root = make_tree(tmp_path, dict(FAILOVER_TREE))
    assert lint(root, "src", select=["SL009"]).clean


def test_sl009_flags_vanished_registered_path(tmp_path: Path) -> None:
    files = dict(FAILOVER_TREE)
    files["src/repro/resilience/failover.py"] = "HEDGED = False\n"
    root = make_tree(tmp_path, files)
    report = lint(root, "src", select=["SL009"])
    assert rules_hit(report) == ["SL009"]
    assert "no longer exists" in report.violations[0].message


def test_sl009_flags_vanished_oracle(tmp_path: Path) -> None:
    files = dict(FAILOVER_TREE)
    files["src/repro/backends/python.py"] = "NAME = 'python'\n"
    root = make_tree(tmp_path, files)
    report = lint(root, "src", select=["SL009"])
    assert rules_hit(report) == ["SL009"]
    assert "soundness hole" in report.violations[0].message


def test_sl009_flags_missing_parity_test(tmp_path: Path) -> None:
    files = dict(FAILOVER_TREE)
    del files["tests/test_failover.py"]
    root = make_tree(tmp_path, files)
    report = lint(root, "src", select=["SL009"])
    assert rules_hit(report) == ["SL009"]
    assert "missing" in report.violations[0].message


def test_sl009_flags_test_missing_either_name(tmp_path: Path) -> None:
    files = dict(FAILOVER_TREE)
    files["tests/test_failover.py"] = """
        # mentions ResilientExecutor but never its oracle
    """
    root = make_tree(tmp_path, files)
    report = lint(root, "src", select=["SL009"])
    assert rules_hit(report) == ["SL009"]
    assert "exercise both" in report.violations[0].message


def test_sl009_discovers_unregistered_failover_class(
        tmp_path: Path) -> None:
    files = dict(FAILOVER_TREE)
    files["src/repro/resilience/hedge.py"] = """
        class HedgedExecutor:
            def __init__(self, primary, fallback):
                self.fallback = fallback
    """
    root = make_tree(tmp_path, files)
    report = lint(root, "src", select=["SL009"])
    assert rules_hit(report) == ["SL009"]
    assert "no registered oracle" in report.violations[0].message


def test_sl009_exempts_private_and_markerless_classes(
        tmp_path: Path) -> None:
    files = dict(FAILOVER_TREE)
    files["src/repro/resilience/hedge.py"] = """
        class _Probe:
            def __init__(self, oracle):
                self.oracle = oracle

        class RetrySchedule:
            def __init__(self, attempts):
                self.attempts = attempts
    """
    root = make_tree(tmp_path, files)
    assert lint(root, "src", select=["SL009"]).clean


# ----------------------------------------------------------------------
# suppressions, selection, report plumbing
# ----------------------------------------------------------------------


def test_disable_file_suppresses_everywhere(tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "src/repro/core/util.py": """
            # soundlint: disable-file=SL001,SL007
            def helper():
                try:
                    risky()
                except Exception:
                    pass
        """,
    })
    report = lint(root, "src", select=["SL001", "SL007"])
    assert report.clean
    assert report.suppressed == 2  # one SL001 + one SL007 (no return)


def test_suppression_is_per_rule(tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "src/repro/core/util.py": """
            # soundlint: disable-file=SL001
            def helper():
                try:
                    risky()
                except Exception:
                    pass
        """,
    })
    report = lint(root, "src", select=["SL001", "SL007"])
    assert rules_hit(report) == ["SL007"]


def test_select_and_ignore_filter_rules(tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "src/repro/core/util.py": """
            def helper():
                try:
                    risky()
                except Exception:
                    pass
        """,
    })
    assert rules_hit(lint(root, "src", select=["SL001"])) == ["SL001"]
    only_typing = run_paths([root / "src"], ignore=["SL001"], root=root)
    assert rules_hit(only_typing) == ["SL007"]


def test_violations_are_sorted_and_rendered(tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "src/repro/core/b.py": "def f():\n    pass\n",
        "src/repro/core/a.py": "def g():\n    pass\n",
    })
    report = lint(root, "src", select=["SL007"])
    paths = [v.path for v in report.violations]
    assert paths == sorted(paths)
    line = report.violations[0].render()
    assert line.startswith("src/repro/core/a.py:1: SL007 ")
    assert "2 violations" in report.render_human()


def test_rule_registry_is_complete() -> None:
    assert set(all_rules()) == {
        "SL001", "SL002", "SL003", "SL004", "SL005", "SL006", "SL007",
        "SL008", "SL009", "SL010", "SL011",
    }
    for info in all_rules().values():
        assert info.title and info.rationale
        assert info.scope in ("file", "project")


# ----------------------------------------------------------------------
# unused suppressions (SL000-class)
# ----------------------------------------------------------------------


def test_unused_line_suppression_is_flagged(tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "src/repro/core/util.py": """
            def helper() -> None:  # soundlint: disable=SL001 -- stale
                return None
        """,
    })
    report = lint(root, "src", select=["SL001", "SL007"])
    assert rules_hit(report) == ["SL000"]
    assert "unused suppression" in report.violations[0].message
    assert "SL001" in report.violations[0].message


def test_unused_file_suppression_is_flagged(tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "src/repro/core/util.py": """
            # soundlint: disable-file=SL006 -- stale
            def helper() -> None:
                return None
        """,
    })
    report = lint(root, "src", select=["SL006", "SL007"])
    assert rules_hit(report) == ["SL000"]
    assert "disable-file" in report.violations[0].message


def test_used_suppression_is_not_flagged(tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "src/repro/core/util.py": """
            def helper():  # soundlint: disable=SL007 -- fixture
                return None
        """,
    })
    report = lint(root, "src", select=["SL007"])
    assert report.clean
    assert report.suppressed == 1


def test_unselected_rule_suppression_is_not_flagged(
        tmp_path: Path) -> None:
    # A --select subset must not flag suppressions for rules that
    # did not run in this invocation.
    root = make_tree(tmp_path, {
        "src/repro/core/util.py": """
            def helper() -> None:  # soundlint: disable=SL001 -- other
                return None
        """,
    })
    assert lint(root, "src", select=["SL007"]).clean


def test_unknown_rule_suppression_is_flagged(tmp_path: Path) -> None:
    # A typoed rule ID can never fire; a full run flags it.
    root = make_tree(tmp_path, {
        "src/repro/core/util.py": """
            def helper() -> None:  # soundlint: disable=SL999 -- typo
                return None
        """,
    })
    report = lint(root, "src")
    assert "SL999" in report.violations[0].message


# ----------------------------------------------------------------------
# the CLI
# ----------------------------------------------------------------------


def test_cli_exit_codes_and_json(tmp_path: Path,
                                 capsys: pytest.CaptureFixture) -> None:
    root = make_tree(tmp_path, {
        "src/repro/core/util.py": """
            def helper():
                try:
                    risky()
                except Exception:
                    pass
        """,
    })
    assert main([str(root / "src"), "--select", "SL001",
                 "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"][0]["rule"] == "SL001"
    assert payload["files_scanned"] == 1

    assert main([str(root / "src"), "--ignore",
                 "SL001,SL007"]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_cli_lists_rules(capsys: pytest.CaptureFixture) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("SL001", "SL007", "SL010", "SL011"):
        assert rule_id in out


def test_cli_sarif_output(tmp_path: Path,
                          capsys: pytest.CaptureFixture) -> None:
    root = make_tree(tmp_path, {
        "src/repro/core/util.py": """
            def helper():
                try:
                    risky()
                except Exception:
                    pass
        """,
    })
    assert main([str(root / "src"), "--select", "SL001",
                 "--format", "sarif"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-soundlint"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"SL000", "SL001", "SL010", "SL011"} <= rule_ids
    result = run["results"][0]
    assert result["ruleId"] == "SL001"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("util.py")
    assert location["region"]["startLine"] >= 1


def test_cli_graph_dump(capsys: pytest.CaptureFixture) -> None:
    assert main(["--graph", str(REPO_ROOT / "src")]) == 0
    out = capsys.readouterr().out
    assert "call graph:" in out
    assert "lock-order graph:" in out
    assert "AuthorizationServer._work" in out


def test_report_records_elapsed_runtime(tmp_path: Path) -> None:
    root = make_tree(tmp_path, {
        "src/repro/core/util.py": "def f() -> None:\n    return None\n",
    })
    report = lint(root, "src", select=["SL007"])
    assert report.elapsed >= 0.0
    assert "s]" in report.render_human()
    assert "elapsed_s" in report.render_json()


def test_cli_rejects_missing_paths(tmp_path: Path) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main([str(tmp_path / "nowhere")])
    assert excinfo.value.code == 2


# ----------------------------------------------------------------------
# the live tree is the fixture that matters
# ----------------------------------------------------------------------


def test_live_tree_is_violation_free() -> None:
    report = run_paths(
        [REPO_ROOT / "src", REPO_ROOT / "examples"], root=REPO_ROOT,
    )
    rendered = "\n".join(v.render() for v in report.violations)
    assert report.clean, f"soundlint violations in the live tree:\n{rendered}"
    assert report.files_scanned > 100


def test_live_tree_suppressions_are_justified() -> None:
    # Every suppression *comment* in the perimeter carries a reason
    # (the ``-- reason`` tail) — a bare disable is a review smell.
    # Docstrings that document the syntax are exempt, which is why we
    # reuse the analyzer's tokenizing comment scanner.
    from repro.analysis.framework import _comments

    for base in (REPO_ROOT / "src", REPO_ROOT / "examples",
                 REPO_ROOT / "tests", REPO_ROOT / "benchmarks"):
        for path in base.rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            for _, comment in _comments(text):
                if "soundlint:" in comment and "disable" in comment:
                    assert "--" in comment.split("soundlint:")[1], (
                        f"{path}: suppression without justification"
                    )


def test_live_tree_has_no_unused_suppressions() -> None:
    # src/examples under the full rule set: any stale suppression
    # surfaces as an SL000 violation in the report above; here the
    # SL006 perimeter over tests/benchmarks gets the same sweep —
    # every disable-file=SL006 must actually suppress something.
    report = run_paths(
        [REPO_ROOT / "tests", REPO_ROOT / "benchmarks"],
        select=["SL006"], root=REPO_ROOT,
    )
    rendered = "\n".join(v.render() for v in report.violations)
    assert report.clean, f"SL006 perimeter violations:\n{rendered}"
    assert report.suppressed > 0  # the harness suppressions are live
