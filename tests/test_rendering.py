"""Unit tests for table renderers, answer rendering, errors, config."""

import pytest

from repro.config import BASE_MODEL_CONFIG, DEFAULT_CONFIG, EngineConfig
from repro.errors import (
    AuthorizationError,
    GrantError,
    ParseError,
    ReproError,
    SafetyError,
    SchemaError,
    TypeMismatchError,
    UnknownAttributeError,
    UnknownRelationError,
    UnknownViewError,
)
from repro.experiments.tables import (
    ascii_table,
    comparison_table,
    figure1_table,
    mask_table,
    permission_table,
)
from repro.workloads.paperdb import EXAMPLE_1_QUERY


class TestAsciiTable:
    def test_alignment(self):
        text = ascii_table(("A", "LONG"), [("xx", "y"), ("z", "wwww")])
        lines = text.splitlines()
        assert lines[0].startswith("+")
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all lines equal width

    def test_non_string_cells(self):
        text = ascii_table(("N",), [(42,), (None,)])
        assert "42" in text and "None" in text

    def test_empty_rows(self):
        text = ascii_table(("A", "B"), [])
        assert text.count("\n") == 3  # rule, header, rule, rule


class TestFigureTables:
    def test_figure1_table(self, paper_db, paper_catalog):
        text = figure1_table(paper_db, paper_catalog, "PROJECT")
        assert "Acme*" in text
        assert "x2*" in text
        assert "bq-45" in text  # data rows included

    def test_comparison_table(self, paper_catalog):
        text = comparison_table(paper_catalog)
        assert "x3" in text and "250,000" in text

    def test_permission_table(self, paper_catalog):
        text = permission_table(paper_catalog)
        assert "Brown" in text and "Klein" in text

    def test_mask_table_blank_glyph(self, paper_engine):
        derivation = paper_engine.derive("Brown", EXAMPLE_1_QUERY)
        assert derivation.mask is not None
        text = mask_table(derivation.mask)
        assert "Acme*" in text


class TestAnswerRendering:
    def test_empty_answer_renders(self, paper_engine):
        answer = paper_engine.authorize(
            "Brown",
            "retrieve (PROJECT.NUMBER) where PROJECT.BUDGET > 999,999",
        )
        text = answer.render()
        assert "NUMBER" in text

    def test_masked_sentinel_in_render(self, paper_engine):
        answer = paper_engine.authorize("Brown", EXAMPLE_1_QUERY)
        assert "#####" in answer.render()


class TestErrorsHierarchy:
    @pytest.mark.parametrize("error_class", [
        SchemaError, TypeMismatchError, ParseError, SafetyError,
        AuthorizationError, GrantError,
    ])
    def test_all_derive_from_repro_error(self, error_class):
        assert issubclass(error_class, ReproError)

    def test_named_errors_carry_names(self):
        assert UnknownRelationError("R").name == "R"
        assert UnknownViewError("V").name == "V"
        error = UnknownAttributeError("R", "A")
        assert error.relation == "R" and error.attribute == "A"

    def test_parse_error_location(self):
        assert "line 3" in str(ParseError("bad", line=3))
        assert "offset 7" in str(ParseError("bad", position=7))


class TestEngineConfig:
    def test_but_returns_modified_copy(self):
        changed = DEFAULT_CONFIG.but(self_joins=False)
        assert not changed.self_joins
        assert DEFAULT_CONFIG.self_joins  # original untouched

    def test_base_model_disables_refinements(self):
        assert not BASE_MODEL_CONFIG.refine_selection
        assert not BASE_MODEL_CONFIG.product_padding
        assert not BASE_MODEL_CONFIG.self_joins

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_CONFIG.self_joins = False  # type: ignore[misc]

    def test_defaults_are_full_model(self):
        config = EngineConfig()
        assert config.refine_selection
        assert config.product_padding
        assert config.self_joins
        assert not config.existential_closure
