"""Per-figure experiment harnesses.

One module per artefact of the paper's evaluation section; every benchmark
in ``benchmarks/`` and most examples call into these, so the exact workload
and reporting logic lives in one place:

==============================  ==============================================
Module                          Paper artefact
==============================  ==============================================
:mod:`repro.experiments.fig3_fig4`   §IV-D token allocation (Fig. 3 timelines,
                                     Fig. 4 bandwidth/gains)
:mod:`repro.experiments.fig5_fig6`   §IV-E token redistribution (Fig. 5, Fig. 6)
:mod:`repro.experiments.fig7_fig8`   §IV-F token re-compensation (Fig. 7 records,
                                     Fig. 8 bandwidth/gains)
:mod:`repro.experiments.fig9`        §IV-H allocation-frequency sweep
:mod:`repro.experiments.overhead`    §IV-G framework overhead analysis
==============================  ==============================================

Every adapter is a thin layer over the declarative scenario pipeline
(:mod:`repro.scenarios`): it builds its registered scenario with
``REGISTRY.build(name, **scale)`` and executes it once per mechanism via
``run_mechanisms``.  The unified CLI —
``python -m repro.experiments run <scenario|figN> / list / describe`` —
reaches both the figure adapters and every registered scenario.

Scale: by default experiments run a reduced configuration (1/10 data,
1/10 time; :func:`~repro.experiments.common.bench_scale`) that finishes in
seconds and preserves every qualitative shape;
set ``REPRO_FULL=1`` (or pass ``--full``) to run the paper's full-size
configuration.
"""

from repro.experiments.common import MechanismComparison, bench_scale, full_scale

__all__ = [
    "MechanismComparison",
    "bench_scale",
    "full_scale",
]
