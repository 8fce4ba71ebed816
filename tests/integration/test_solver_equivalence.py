"""End-to-end bit-identity of alias verdicts against the reference solver.

Per-pair alias verdicts must be **bit-identical** whether the range analysis
runs its production solver (the ranked sparse worklist) or the dense
reference sweeps, because both reach the same fixed point.  The reference is
swapped in for every ``RangeAnalysis`` the pipeline builds, and the whole
pipeline (frontend → e-SSA → ranges → constraints → disambiguation →
aa-eval) runs under each.
"""

from functools import partialmethod

from repro.api import Session
from repro.rangeanalysis import RangeAnalysis

SPECS = (("basicaa",), ("lt",), ("basicaa", "lt"))

#: programs with loops, pointer arithmetic and σ-rich control flow.
PROGRAM_NAMES = ("ins_sort", "partition", "copy_reverse", "pointer_walk",
                 "two_pointer_sum", "stencil3")


def _kernel_units():
    from repro.synth.kernels import KERNEL_SOURCES
    return [(name, KERNEL_SOURCES[name]) for name in PROGRAM_NAMES]


def _verdict_streams(results):
    return [{label: result.verdicts(label) for label in result.labels}
            for result in results]


def _run(workers=0):
    with Session() as session:
        return session.run_workload(_kernel_units(), specs=SPECS,
                                    workers=workers, store=False)


def test_verdicts_bit_identical_across_solver_modes(monkeypatch):
    production = _run()
    monkeypatch.setattr(RangeAnalysis, "__init__",
                        partialmethod(RangeAnalysis.__init__, dense=True))
    dense = _run()
    # The swap took effect: the dense sweeps do strictly more work.
    assert (sum(result.statistics.solver.evaluations for result in dense) >
            sum(result.statistics.solver.evaluations
                for result in production))
    assert _verdict_streams(production) == _verdict_streams(dense)
    for production_result, dense_result in zip(production, dense):
        for label in production_result.labels:
            assert (production_result.evaluation(label).as_dict() ==
                    dense_result.evaluation(label).as_dict())


def test_solver_totals_survive_sharding():
    """Serial vs ``workers=2``: identical verdicts and identical solver
    totals (each unit's ``SolverInfo`` counters must survive the trip from
    a pool worker to the coordinator losslessly)."""
    serial = _run()
    pooled = _run(workers=2)
    assert _verdict_streams(serial) == _verdict_streams(pooled)
    for serial_result, pooled_result in zip(serial, pooled):
        serial_solver = serial_result.statistics.solver
        assert serial_solver == pooled_result.statistics.solver
        assert serial_solver.evaluations > 0
        assert serial_solver.pops > 0
