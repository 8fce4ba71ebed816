"""End-to-end bit-identity of alias verdicts against the reference solver.

Per-pair alias verdicts must be **bit-identical** whether the range analysis
runs its production solver (the ranked sparse worklist) or the dense
reference sweeps, because both reach the same fixed point.  The reference is
swapped in for every ``RangeAnalysis`` the pipeline builds, and the whole
pipeline (frontend → e-SSA → ranges → constraints → disambiguation →
aa-eval) runs under each.
"""

from functools import partialmethod

from repro.engine import run_workload
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
    return run_workload(_kernel_units(), specs=SPECS, workers=workers,
                        store=False)


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
    """Serial vs ``workers=2``: identical verdicts and identical merged
    solver totals (the per-shard ``SolverInfo`` counters must survive the
    coordinator merge losslessly)."""
    serial = _run()
    sharded = _run(workers=2)
    assert _verdict_streams(serial) == _verdict_streams(sharded)
    for serial_result, sharded_result in zip(serial, sharded):
        serial_solver = serial_result.statistics.solver
        assert serial_solver == sharded_result.statistics.solver
        assert serial_solver.evaluations > 0
        assert serial_solver.pops > 0
