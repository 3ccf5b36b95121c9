"""Two realistic scenarios exercising the public API.

These back the domain examples in ``examples/`` and several
integration tests:

* **Hospital** — patients, physicians and treatments; nurses may see
  demographic data of non-psychiatric patients, physicians see their
  own patients' treatments, billing sees costs but not diagnoses.
* **Corporate directory** — employees, departments and salaries;
  everyone sees the directory, HR sees salaries, managers see their
  department's salaries below a cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.algebra.database import build_database
from repro.algebra.schema import make_schema
from repro.algebra.types import INTEGER, STRING
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.core.engine import AuthorizationEngine
from repro.meta.catalog import PermissionCatalog


@dataclass(frozen=True)
class Scenario:
    """A ready-to-use engine plus the cast of users."""

    engine: AuthorizationEngine
    users: Tuple[str, ...]


def hospital_scenario(config: EngineConfig = DEFAULT_CONFIG) -> Scenario:
    """Patients / physicians / treatments with role-based views."""
    patient = make_schema(
        "PATIENT",
        [("PID", STRING), ("NAME", STRING), ("WARD", STRING),
         ("DIAGNOSIS", STRING)],
        key=["PID"],
    )
    physician = make_schema(
        "PHYSICIAN",
        [("DOC", STRING), ("SPECIALTY", STRING)],
        key=["DOC"],
    )
    treatment = make_schema(
        "TREATMENT",
        [("PID", STRING), ("DOC", STRING), ("DRUG", STRING),
         ("COST", INTEGER)],
        key=["PID", "DOC", "DRUG"],
    )
    database = build_database(
        [patient, physician, treatment],
        {
            "PATIENT": [
                ("p1", "Adams", "cardiology", "arrhythmia"),
                ("p2", "Baker", "psychiatry", "anxiety"),
                ("p3", "Clark", "oncology", "lymphoma"),
                ("p4", "Davis", "cardiology", "infarction"),
            ],
            "PHYSICIAN": [
                ("house", "cardiology"),
                ("wilson", "oncology"),
                ("kelso", "psychiatry"),
            ],
            "TREATMENT": [
                ("p1", "house", "betablocker", 120),
                ("p2", "kelso", "ssri", 80),
                ("p3", "wilson", "chemo", 4200),
                ("p4", "house", "stent", 9100),
                ("p3", "house", "betablocker", 120),
            ],
        },
    )
    catalog = PermissionCatalog(database.schema)
    # Nurses: demographics of non-psychiatric patients.
    catalog.define_view(
        "view NURSE_VIEW (PATIENT.PID, PATIENT.NAME, PATIENT.WARD) "
        "where PATIENT.WARD != psychiatry"
    )
    # Physicians: their patients' full treatment picture (parameterized
    # per physician; here Dr. House's view).
    catalog.define_view(
        """view HOUSE_PATIENTS (PATIENT.PID, PATIENT.NAME,
                                PATIENT.DIAGNOSIS, TREATMENT.DRUG,
                                TREATMENT.COST)
           where PATIENT.PID = TREATMENT.PID
           and TREATMENT.DOC = house"""
    )
    # Billing: costs joined to patient ids, but no diagnoses.
    catalog.define_view(
        "view BILLING (TREATMENT.PID, TREATMENT.DRUG, TREATMENT.COST)"
    )
    # Research: expensive treatments only.
    catalog.define_view(
        "view EXPENSIVE (TREATMENT.PID, TREATMENT.DRUG, TREATMENT.COST) "
        "where TREATMENT.COST >= 1000"
    )
    catalog.permit("NURSE_VIEW", "nurse")
    catalog.permit("HOUSE_PATIENTS", "house")
    catalog.permit("BILLING", "billing")
    catalog.permit("EXPENSIVE", "research")
    catalog.permit("NURSE_VIEW", "research")
    engine = AuthorizationEngine(database, catalog, config)
    return Scenario(engine, ("nurse", "house", "billing", "research"))


def corporate_scenario(config: EngineConfig = DEFAULT_CONFIG) -> Scenario:
    """Employees / departments with salary-capped manager views."""
    employee = make_schema(
        "EMP",
        [("ENO", STRING), ("ENAME", STRING), ("DEPT", STRING),
         ("SALARY", INTEGER)],
        key=["ENO"],
    )
    department = make_schema(
        "DEPT",
        [("DNAME", STRING), ("HEAD", STRING), ("BUDGET", INTEGER)],
        key=["DNAME"],
    )
    database = build_database(
        [employee, department],
        {
            "EMP": [
                ("e1", "Ada", "eng", 120_000),
                ("e2", "Bob", "eng", 95_000),
                ("e3", "Cyd", "sales", 70_000),
                ("e4", "Dee", "sales", 150_000),
                ("e5", "Eli", "hr", 65_000),
            ],
            "DEPT": [
                ("eng", "Ada", 2_000_000),
                ("sales", "Dee", 1_200_000),
                ("hr", "Eli", 300_000),
            ],
        },
    )
    catalog = PermissionCatalog(database.schema)
    catalog.define_view(
        "view DIRECTORY (EMP.ENO, EMP.ENAME, EMP.DEPT)"
    )
    catalog.define_view(
        "view HR_SALARIES (EMP.ENO, EMP.ENAME, EMP.DEPT, EMP.SALARY)"
    )
    catalog.define_view(
        """view ENG_SALARIES (EMP.ENO, EMP.ENAME, EMP.DEPT, EMP.SALARY)
           where EMP.DEPT = eng and EMP.SALARY <= 100,000"""
    )
    catalog.define_view(
        "view DEPT_BUDGETS (DEPT.DNAME, DEPT.HEAD, DEPT.BUDGET)"
    )
    for user in ("staff", "hr", "engmgr"):
        catalog.permit("DIRECTORY", user)
    catalog.permit("HR_SALARIES", "hr")
    catalog.permit("ENG_SALARIES", "engmgr")
    catalog.permit("DEPT_BUDGETS", "hr")
    engine = AuthorizationEngine(database, catalog, config)
    return Scenario(engine, ("staff", "hr", "engmgr"))
