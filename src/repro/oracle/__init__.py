"""Differential oracle: executable reference semantics + conformance.

``repro.oracle`` answers one question the rest of the stack cannot ask
about itself: *do all five schemes implement the same memory?*  The
package splits into:

* :mod:`repro.oracle.model`   — the pure (stdlib-only) reference model
  of secure-NVM semantics: logical contents, counter monotonicity,
  crash durability;
* :mod:`repro.oracle.harness` — the lockstep differential runner every
  crash check drives (the crash engine in :mod:`repro.explore.runner`
  included) and the tamper case runner;
* :mod:`repro.oracle.mutants` — seeded controller bugs proving the
  oracle catches the claimed classes;
* :mod:`repro.oracle.sweep`   — suite planning plus the parallel,
  cached sweep over schemes x workloads x cases (``repro oracle`` on
  the command line); its clean and crash cases run on the crash
  engine.
"""
from repro.oracle.harness import (
    TAMPER_KINDS,
    DifferentialRun,
    Divergence,
    OracleCaseResult,
    run_tamper_case,
)
from repro.oracle.model import OracleViolation, ReferenceModel
from repro.oracle.mutants import MUTANTS, Mutant, run_mutant_case
from repro.oracle.sweep import (
    SuiteSummary,
    build_suite,
    run_oracle_cell,
    run_oracle_suite,
)

__all__ = [
    "TAMPER_KINDS",
    "DifferentialRun",
    "Divergence",
    "OracleCaseResult",
    "OracleViolation",
    "ReferenceModel",
    "MUTANTS",
    "Mutant",
    "SuiteSummary",
    "build_suite",
    "run_mutant_case",
    "run_oracle_cell",
    "run_oracle_suite",
    "run_tamper_case",
]
