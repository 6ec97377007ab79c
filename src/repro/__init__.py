"""repro: a reproduction of "Model-Driven Domain-Specific Middleware"
(Costa, Morris, Kon, Clarke — ICDCS 2017).

Subpackages:

* :mod:`repro.modeling` — EMF-equivalent metamodeling kernel.
* :mod:`repro.runtime` — generic runtime environment.
* :mod:`repro.middleware` — the MD-DSM stack (four-layer architecture).
* :mod:`repro.sim` — simulated underlying resources.
* :mod:`repro.domains` — the four case-study platforms
  (communication, microgrid, smart spaces, crowdsensing).
* :mod:`repro.baselines` — handcrafted/non-adaptive comparators.
* :mod:`repro.bench` — benchmark harness utilities.
* :mod:`repro.cases` — the shipped domains' session cases.
"""

__version__ = "1.0.0"
