"""Unit tests for repro.algebra.types."""

import pytest

from repro.algebra.database import build_database
from repro.algebra.schema import make_schema
from repro.algebra.types import (
    INTEGER,
    REAL,
    STRING,
    domain_named,
    domain_of_value,
)
from repro.errors import TypeMismatchError

NAN = float("nan")


class TestDomainMembership:
    def test_integer_contains_ints(self):
        assert INTEGER.contains(0)
        assert INTEGER.contains(-42)
        assert INTEGER.contains(10**12)

    def test_integer_rejects_floats_and_strings(self):
        assert not INTEGER.contains(1.5)
        assert not INTEGER.contains("1")

    def test_integer_rejects_booleans(self):
        # bool subclasses int in Python; the domain must not admit it.
        assert not INTEGER.contains(True)
        assert not INTEGER.contains(False)

    def test_real_rejects_nan(self):
        # NaN equals nothing, not even itself, so no total order holds
        # it; SQL engines store it as NULL.  Infinities are ordered.
        assert not REAL.contains(NAN)
        assert not REAL.contains(-NAN)
        assert REAL.contains(float("inf"))
        assert REAL.contains(float("-inf"))

    def test_real_contains_ints_and_floats(self):
        assert REAL.contains(1)
        assert REAL.contains(1.5)
        assert not REAL.contains("x")

    def test_string_contains_strings_only(self):
        assert STRING.contains("Acme")
        assert STRING.contains("")
        assert not STRING.contains(3)

    def test_check_passes_value_through(self):
        assert STRING.check("ok") == "ok"

    def test_check_raises_on_mismatch(self):
        with pytest.raises(TypeMismatchError):
            STRING.check(7)


class TestDomainProperties:
    def test_integer_is_discrete(self):
        assert INTEGER.discrete

    def test_string_and_real_are_dense(self):
        assert not STRING.discrete
        assert not REAL.discrete

    def test_all_domains_ordered(self):
        for domain in (INTEGER, STRING, REAL):
            assert domain.ordered

    def test_numeric_domains_mutually_comparable(self):
        assert INTEGER.comparable_with(REAL)
        assert REAL.comparable_with(INTEGER)

    def test_string_not_comparable_with_numbers(self):
        assert not STRING.comparable_with(INTEGER)
        assert not INTEGER.comparable_with(STRING)

    def test_every_domain_comparable_with_itself(self):
        for domain in (INTEGER, STRING, REAL):
            assert domain.comparable_with(domain)


class TestLookups:
    def test_domain_named(self):
        assert domain_named("integer") is INTEGER
        assert domain_named("string") is STRING
        assert domain_named("real") is REAL

    def test_domain_named_unknown(self):
        with pytest.raises(TypeMismatchError):
            domain_named("blob")

    def test_domain_of_value(self):
        assert domain_of_value(3) is INTEGER
        assert domain_of_value(3.5) is REAL
        assert domain_of_value("x") is STRING

    def test_domain_of_boolean_rejected(self):
        with pytest.raises(TypeMismatchError):
            domain_of_value(True)

    def test_domain_of_nan_rejected(self):
        with pytest.raises(TypeMismatchError):
            domain_of_value(NAN)

    def test_domain_of_unsupported(self):
        with pytest.raises(TypeMismatchError):
            domain_of_value(object())


class TestInstancesRejectNaN:
    """A NaN cell never reaches an instance, whichever way it comes.

    With ``('a', nan)`` stored, the self-join ``R:1.X = R:2.X`` would
    match the row to itself under a dict probe (identity before
    equality) but not under ``==``, and SQLite would return the cell
    as NULL.
    """

    @staticmethod
    def schema():
        return make_schema("R", [("K", STRING), ("X", REAL)])

    def test_build_database_rejects_nan(self):
        with pytest.raises(TypeMismatchError):
            build_database([self.schema()],
                           {"R": [("a", NAN), ("b", 1.0)]})

    def test_load_and_insert_reject_nan(self):
        database = build_database([self.schema()], {"R": [("b", 1.0)]})
        with pytest.raises(TypeMismatchError):
            database.load("R", [("a", NAN)])
        with pytest.raises(TypeMismatchError):
            database.insert("R", ("a", NAN))
        rows = database.instance("R").rows  # soundlint: disable=SL006 -- the instance a failed load must leave as it was; nothing is delivered
        assert rows == (("b", 1.0),)
