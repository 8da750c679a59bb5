"""Differential oracle: executable reference semantics + conformance.

``repro.oracle`` answers one question the rest of the stack cannot ask
about itself: *do all five schemes implement the same memory?*  The
package splits into:

* :mod:`repro.oracle.model`   — the pure (stdlib-only) reference model
  of secure-NVM semantics: logical contents, counter monotonicity,
  crash durability;
* :mod:`repro.oracle.harness` — the lockstep differential runner every
  crash check drives (the crash engine in :mod:`repro.explore.runner`
  included);
* :mod:`repro.oracle.mutants` — seeded controller bugs proving the
  oracle catches the claimed classes;
* :mod:`repro.oracle.sweep`   — suite planning plus the parallel,
  cached sweep over schemes x workloads x cases (``repro oracle`` on
  the command line); its clean, crash, tamper and mutant cases run on
  the crash engine's one case runner.
"""
