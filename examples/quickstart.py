#!/usr/bin/env python3
"""Quickstart: define a database, grant views, run masked retrievals.

This is the smallest complete tour of the public API:

1. declare a schema and load an instance;
2. define conjunctive views in the paper's surface syntax;
3. grant them to users with permit semantics;
4. issue retrieve statements *against the base relations* and receive
   masked answers plus inferred permit statements.

Run:  python examples/quickstart.py
"""

from repro import (
    INTEGER,
    STRING,
    AuthorizationEngine,
    PermissionCatalog,
    build_database,
    make_schema,
)


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A database: books and loans of a small library.
    # ------------------------------------------------------------------
    book = make_schema(
        "BOOK",
        [("ISBN", STRING), ("TITLE", STRING), ("PRICE", INTEGER)],
        key=["ISBN"],
    )
    loan = make_schema(
        "LOAN",
        [("ISBN", STRING), ("MEMBER", STRING)],
        key=["ISBN", "MEMBER"],
    )
    database = build_database(
        [book, loan],
        {
            "BOOK": [
                ("1-111", "A Relational Model", 80),
                ("2-222", "Query-by-Example", 45),
                ("3-333", "Rare Incunabulum", 4000),
            ],
            "LOAN": [
                ("1-111", "ann"),
                ("2-222", "bob"),
                ("2-222", "ann"),
            ],
        },
    )

    # ------------------------------------------------------------------
    # 2. Views = statements of permission (never access windows).
    # ------------------------------------------------------------------
    catalog = PermissionCatalog(database.schema)
    catalog.define_view(
        "view AFFORDABLE (BOOK.ISBN, BOOK.TITLE, BOOK.PRICE) "
        "where BOOK.PRICE <= 100"
    )
    catalog.define_view(
        "view ANNS_LOANS (BOOK.ISBN, BOOK.TITLE, LOAN.MEMBER) "
        "where BOOK.ISBN = LOAN.ISBN and LOAN.MEMBER = ann"
    )

    # ------------------------------------------------------------------
    # 3. Grants (the PERMISSION relation).
    # ------------------------------------------------------------------
    catalog.permit("AFFORDABLE", "patron")
    catalog.permit("ANNS_LOANS", "ann")

    engine = AuthorizationEngine(database, catalog)

    # ------------------------------------------------------------------
    # 4. Queries against the base relations, masked per user.
    # ------------------------------------------------------------------
    print("=== patron asks for every book and its price ===")
    answer = engine.authorize(
        "patron", "retrieve (BOOK.TITLE, BOOK.PRICE)"
    )
    print(answer.render())
    print()

    print("=== ann asks who borrowed what ===")
    answer = engine.authorize(
        "ann",
        "retrieve (BOOK.TITLE, LOAN.MEMBER) "
        "where BOOK.ISBN = LOAN.ISBN",
    )
    print(answer.render())
    print()

    print("=== bob (no grants) asks the same ===")
    answer = engine.authorize(
        "bob",
        "retrieve (BOOK.TITLE, LOAN.MEMBER) "
        "where BOOK.ISBN = LOAN.ISBN",
    )
    print(answer.render())
    print()

    stats = answer.stats()
    print(f"bob received {stats.delivered_cells} of "
          f"{stats.total_cells} cells")


if __name__ == "__main__":
    main()
