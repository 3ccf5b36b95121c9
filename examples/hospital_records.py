#!/usr/bin/env python3
"""Domain scenario: role-based access to hospital records.

Four roles query the same patient/physician/treatment database; each
receives the portion its views permit, with inferred permit statements
explaining the reduction:

* the nurse sees demographics of non-psychiatric patients;
* Dr. House sees the full picture of his own patients;
* billing sees costs but never diagnoses;
* research sees expensive treatments plus non-psychiatric demographics,
  and can *join* them — a multi-relation permission INGRES-style
  single-relation models cannot express.

Run:  python examples/hospital_records.py
"""

from repro.errors import AuthorizationError
from repro.extensions import UpdateAuthorizer
from repro.workloads import hospital_scenario


def show(title: str, answer) -> None:
    print(f"=== {title} ===")
    print(answer.render())
    stats = answer.stats()
    print(f"-- {stats.delivered_cells}/{stats.total_cells} cells "
          f"delivered")
    print()


def main() -> None:
    scenario = hospital_scenario()
    engine = scenario.engine

    show(
        "nurse: all patients with wards and diagnoses",
        engine.authorize(
            "nurse",
            "retrieve (PATIENT.NAME, PATIENT.WARD, PATIENT.DIAGNOSIS)",
        ),
    )

    show(
        "Dr. House: his patients' diagnoses and drugs",
        engine.authorize(
            "house",
            "retrieve (PATIENT.NAME, PATIENT.DIAGNOSIS, TREATMENT.DRUG) "
            "where PATIENT.PID = TREATMENT.PID "
            "and TREATMENT.DOC = house",
        ),
    )

    show(
        "billing: costs per patient id (diagnoses stay hidden)",
        engine.authorize(
            "billing",
            "retrieve (TREATMENT.PID, TREATMENT.DRUG, TREATMENT.COST)",
        ),
    )

    show(
        "research: who gets expensive treatments, by name",
        engine.authorize(
            "research",
            "retrieve (PATIENT.NAME, TREATMENT.DRUG, TREATMENT.COST) "
            "where PATIENT.PID = TREATMENT.PID "
            "and TREATMENT.COST >= 1000",
        ),
    )

    # ---------------------------------------------------------------
    # Update permissions (the Section 6 extension): inserting requires
    # the whole row to lie within the user's views.  Billing's view
    # omits the physician column, so billing cannot insert; an intake
    # role with a full-row view can.
    # ---------------------------------------------------------------
    updates = UpdateAuthorizer(engine)
    try:
        updates.insert("billing", "TREATMENT",
                       ("p1", "house", "aspirin", 5))
    except AuthorizationError as error:
        print(f"billing insert denied: {error}")

    engine.define_view(
        "view INTAKE (TREATMENT.PID, TREATMENT.DOC, TREATMENT.DRUG, "
        "TREATMENT.COST)"
    )
    engine.permit("INTAKE", "intake")
    updates.insert("intake", "TREATMENT", ("p1", "house", "aspirin", 5))
    print("intake inserted a treatment row")


if __name__ == "__main__":
    main()
