"""Experiment harness: one module per table/figure of the paper.

Each experiment module exposes a ``run_*`` function that returns a
structured :class:`~repro.experiments.common.ExperimentTable` and accepts
a ``scale`` knob so the same code can run at laptop scale (used by the
benchmark suite) or at a scale closer to the paper's.

| Paper artifact | Function |
| -------------- | -------- |
| Figure 2(a-c)  | :func:`repro.experiments.figure2.run_figure2` |
| Table I        | :func:`repro.experiments.table1.run_table1` |
| Table II       | :func:`repro.experiments.table2.run_table2` |
| Figure 3(a-c)  | :func:`repro.experiments.figure3.run_figure3` |
| Figure 4(a-c)  | :func:`repro.experiments.figure4.run_figure4` |
| Figure 5       | :func:`repro.experiments.figure5.run_figure5` |
| Section VI     | :func:`repro.experiments.estimators.estimator_ablation` |

The :mod:`repro.experiments.cli` module provides the
``chronos-experiments`` console entry point that runs any subset of the
experiments and prints the tables.
"""

from repro._lazy import lazy_exports

#: Each public name and the module that defines it, imported on first
#: access (PEP 562), so the ``chronos-experiments`` commands that run no
#: harness load none.
_EXPORTS = {
    **dict.fromkeys(
        ("ExperimentTable", "ExperimentRow", "ExperimentScale"), "repro.experiments.common"
    ),
    "run_figure2": "repro.experiments.figure2",
    "run_table1": "repro.experiments.table1",
    "run_table2": "repro.experiments.table2",
    "run_figure3": "repro.experiments.figure3",
    "run_figure4": "repro.experiments.figure4",
    "run_figure5": "repro.experiments.figure5",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
