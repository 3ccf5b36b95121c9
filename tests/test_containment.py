# soundlint: disable-file=SL006 -- exercises the algebra/evaluation layer directly, below the authorization boundary; nothing is user-delivered
"""Unit tests for conjunctive-query containment."""


from repro.calculus.containment import are_equivalent, is_contained_in
from repro.lang.parser import parse_query, parse_view


def q(text):
    return parse_query(text)


class TestBasicContainment:
    def test_reflexive(self, paper_db):
        query = q("retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)")
        assert is_contained_in(query, query, paper_db.schema)

    def test_selection_narrows(self, paper_db):
        narrow = q("retrieve (PROJECT.NUMBER) "
                   "where PROJECT.SPONSOR = Acme")
        wide = q("retrieve (PROJECT.NUMBER)")
        assert is_contained_in(narrow, wide, paper_db.schema)
        assert not is_contained_in(wide, narrow, paper_db.schema)

    def test_interval_implication(self, paper_db):
        narrow = q("retrieve (PROJECT.NUMBER) "
                   "where PROJECT.BUDGET > 500,000")
        wide = q("retrieve (PROJECT.NUMBER) "
                 "where PROJECT.BUDGET >= 250,000")
        assert is_contained_in(narrow, wide, paper_db.schema)
        assert not is_contained_in(wide, narrow, paper_db.schema)

    def test_disjoint_selections_not_contained(self, paper_db):
        acme = q("retrieve (PROJECT.NUMBER) where PROJECT.SPONSOR = Acme")
        apex = q("retrieve (PROJECT.NUMBER) where PROJECT.SPONSOR = Apex")
        assert not is_contained_in(acme, apex, paper_db.schema)

    def test_head_width_must_agree(self, paper_db):
        one = q("retrieve (PROJECT.NUMBER)")
        two = q("retrieve (PROJECT.NUMBER, PROJECT.SPONSOR)")
        assert not is_contained_in(one, two, paper_db.schema)
        assert not is_contained_in(two, one, paper_db.schema)

    def test_head_order_matters(self, paper_db):
        ab = q("retrieve (PROJECT.NUMBER, PROJECT.SPONSOR)")
        ba = q("retrieve (PROJECT.SPONSOR, PROJECT.NUMBER)")
        assert not is_contained_in(ab, ba, paper_db.schema)


class TestJoins:
    def test_join_query_contained_in_projection(self, paper_db):
        joined = q(
            "retrieve (EMPLOYEE.NAME) "
            "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME"
        )
        plain = q("retrieve (EMPLOYEE.NAME)")
        assert is_contained_in(joined, plain, paper_db.schema)
        assert not is_contained_in(plain, joined, paper_db.schema)

    def test_extra_atom_is_superfluous_when_foldable(self, paper_db):
        """Q with a duplicated atom is equivalent to Q (homomorphic
        folding of the duplicate)."""
        doubled = q(
            "retrieve (EMPLOYEE:1.NAME) "
            "where EMPLOYEE:1.NAME = EMPLOYEE:2.NAME"
        )
        single = q("retrieve (EMPLOYEE.NAME)")
        assert are_equivalent(doubled, single, paper_db.schema)

    def test_est_projection_identity(self, paper_db):
        """The EST insight: projecting one side of the same-title pair
        is equivalent to projecting EMPLOYEE directly."""
        est_side = q(
            "retrieve (EMPLOYEE:1.NAME, EMPLOYEE:1.TITLE) "
            "where EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE"
        )
        plain = q("retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE)")
        assert are_equivalent(est_side, plain, paper_db.schema)

    def test_elp_narrowed_budget(self, paper_db):
        """Klein's narrowed query is contained in ELP's defining query
        (the containment behind 'the query should be authorized')."""
        elp = parse_view(
            "view ELP (EMPLOYEE.NAME, EMPLOYEE.TITLE, PROJECT.NUMBER, "
            "PROJECT.BUDGET) "
            "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
            "and PROJECT.NUMBER = ASSIGNMENT.P_NO "
            "and PROJECT.BUDGET >= 250,000"
        )
        narrowed = q(
            "retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, PROJECT.NUMBER, "
            "PROJECT.BUDGET) "
            "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
            "and PROJECT.NUMBER = ASSIGNMENT.P_NO "
            "and PROJECT.BUDGET > 500,000"
        )
        assert is_contained_in(narrowed, elp, paper_db.schema)
        assert not is_contained_in(elp, narrowed, paper_db.schema)

    def test_different_join_shapes(self, paper_db):
        chain = q(
            "retrieve (EMPLOYEE.NAME) "
            "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
            "and ASSIGNMENT.P_NO = PROJECT.NUMBER"
        )
        short = q(
            "retrieve (EMPLOYEE.NAME) "
            "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME"
        )
        assert is_contained_in(chain, short, paper_db.schema)
        assert not is_contained_in(short, chain, paper_db.schema)


class TestVariableRelations:
    def test_var_var_relation_implied_by_same_relation(self, paper_db):
        lt = q(
            "retrieve (EMPLOYEE:1.NAME, EMPLOYEE:2.NAME) "
            "where EMPLOYEE:1.SALARY < EMPLOYEE:2.SALARY"
        )
        assert is_contained_in(lt, lt, paper_db.schema)

    def test_lt_contained_in_le(self, paper_db):
        lt = q(
            "retrieve (EMPLOYEE:1.NAME, EMPLOYEE:2.NAME) "
            "where EMPLOYEE:1.SALARY < EMPLOYEE:2.SALARY"
        )
        free = q("retrieve (EMPLOYEE:1.NAME, EMPLOYEE:2.NAME)")
        assert is_contained_in(lt, free, paper_db.schema)
        assert not is_contained_in(free, lt, paper_db.schema)

    def test_relation_implied_by_intervals(self, paper_db):
        bounded = q(
            "retrieve (EMPLOYEE:1.NAME, EMPLOYEE:2.NAME) "
            "where EMPLOYEE:1.SALARY <= 10 and EMPLOYEE:2.SALARY >= 20"
        )
        ordered = q(
            "retrieve (EMPLOYEE:1.NAME, EMPLOYEE:2.NAME) "
            "where EMPLOYEE:1.SALARY < EMPLOYEE:2.SALARY"
        )
        assert is_contained_in(bounded, ordered, paper_db.schema)


class TestSemanticCrossCheck:
    """A containment certificate must hold on concrete instances."""

    QUERIES = [
        "retrieve (PROJECT.NUMBER)",
        "retrieve (PROJECT.NUMBER) where PROJECT.SPONSOR = Acme",
        "retrieve (PROJECT.NUMBER) where PROJECT.BUDGET >= 250,000",
        "retrieve (PROJECT.NUMBER) where PROJECT.BUDGET > 400,000",
        "retrieve (PROJECT.NUMBER) "
        "where PROJECT.NUMBER = ASSIGNMENT.P_NO",
        "retrieve (EMPLOYEE.NAME) "
        "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME",
        "retrieve (EMPLOYEE.NAME)",
    ]

    def test_certificates_hold_on_paper_db(self, paper_db):
        from repro.algebra.evaluate import evaluate_naive
        from repro.calculus.to_algebra import compile_query

        extensions = {}
        for text in self.QUERIES:
            plan = compile_query(q(text), paper_db.schema)
            extensions[text] = set(
                evaluate_naive(plan, paper_db).rows
            )
        for a in self.QUERIES:
            for b in self.QUERIES:
                if is_contained_in(q(a), q(b), paper_db.schema):
                    assert extensions[a] <= extensions[b], (a, b)
