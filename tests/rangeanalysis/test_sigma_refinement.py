"""Table-driven tests for σ-copy refinement in the range analysis.

``RangeAnalysis._refine_sigma`` dispatches on the comparison predicate after
(1) negating it when the copy lives on the false branch and (2) swapping it
when the copy renames the right-hand operand.  Every predicate × side ×
branch combination is exercised here against hand-computed expectations —
the ``eq`` predicate and the negated/swapped paths had no dedicated coverage
before.
"""

import pytest

from repro.essa.transform import convert_to_essa
from repro.frontend import compile_source
from repro.ir import INT, IRBuilder, Module
from repro.ir.instructions import Copy, ICmp
from repro.rangeanalysis import Interval, NEG_INF, POS_INF, RangeAnalysis

#: range pinned on the *known* side of the comparison in every scenario.
OTHER = Interval(0, 10)

#: expected refinement of an unconstrained (top) value by ``value P [0, 10]``,
#: keyed by the effective predicate after negation/swapping.
EXPECTED = {
    "slt": Interval(NEG_INF, 9),
    "sle": Interval(NEG_INF, 10),
    "sgt": Interval(1, POS_INF),
    "sge": Interval(0, POS_INF),
    "eq": Interval(0, 10),
    "ne": Interval.top(),  # inequality carries no interval information
}


def _build_sigma_function(predicate, side, on_true):
    """A diamond whose chosen branch holds a σ-copy of the *unknown* operand.

    The copy renames the ``side`` operand of ``a P b``; the other operand is
    the function's second argument, pinned to ``OTHER`` by the caller.  The
    construction mirrors exactly what ``convert_to_essa`` emits.
    """
    module = Module("sigma")
    function = module.create_function("f", INT, [INT, INT], ["subject", "known"])
    entry = function.append_block(name="entry")
    then_block = function.append_block(name="then")
    else_block = function.append_block(name="else")
    builder = IRBuilder(entry)
    subject, known = function.arguments
    lhs, rhs = (subject, known) if side == "lhs" else (known, subject)
    condition = builder.icmp(predicate, lhs, rhs, "cond")
    builder.branch(condition, then_block, else_block)
    for block in (then_block, else_block):
        block_builder = IRBuilder(block)
        block_builder.ret(subject)
    copy = Copy(subject, "sig", kind="sigma")
    copy.sigma_condition = condition
    copy.sigma_operand_side = side
    copy.sigma_on_true_branch = on_true
    (then_block if on_true else else_block).insert(0, copy)
    return function, known, copy


@pytest.mark.parametrize("on_true", [True, False], ids=["true-branch", "false-branch"])
@pytest.mark.parametrize("side", ["lhs", "rhs"])
@pytest.mark.parametrize("predicate", sorted(ICmp.VALID_PREDICATES))
def test_refinement_for_every_predicate_side_and_branch(predicate, side, on_true):
    function, known, copy = _build_sigma_function(predicate, side, on_true)
    ranges = RangeAnalysis(function, argument_ranges={known: OTHER})
    effective = predicate if on_true else ICmp.NEGATED[predicate]
    if side == "rhs":
        effective = ICmp.SWAPPED[effective]
    assert ranges.range_of(copy) == EXPECTED[effective], \
        "{} {} {} refined to {}".format(predicate, side, on_true,
                                        ranges.range_of(copy))


@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_refinement_agrees_between_solvers(side):
    for predicate in sorted(ICmp.VALID_PREDICATES):
        for on_true in (True, False):
            function, known, copy = _build_sigma_function(predicate, side, on_true)
            dense = RangeAnalysis(function, argument_ranges={known: OTHER},
                                  dense=True)
            sparse = RangeAnalysis(function, argument_ranges={known: OTHER})
            assert dense.range_of(copy) == sparse.range_of(copy)


def test_sigma_without_condition_keeps_source_range():
    function, known, copy = _build_sigma_function("slt", "lhs", True)
    copy.sigma_condition = None  # a plain split copy
    ranges = RangeAnalysis(function, argument_ranges={known: OTHER})
    assert ranges.range_of(copy).is_top()


def test_sigma_with_unknown_side_keeps_source_range():
    function, known, copy = _build_sigma_function("slt", "lhs", True)
    copy.sigma_operand_side = "neither"
    ranges = RangeAnalysis(function, argument_ranges={known: OTHER})
    assert ranges.range_of(copy).is_top()


def test_eq_sigma_through_full_essa_pipeline():
    """``if (x == 42)`` pins the true-branch σ of ``x`` to exactly 42."""
    module = compile_source(
        "int f(int x) {\n"
        "  if (x == 42) { return x; }\n"
        "  return 0;\n"
        "}\n", module_name="eq_sigma")
    function = next(f for f in module.defined_functions() if f.name == "f")
    info = convert_to_essa(function)
    ranges = RangeAnalysis(function)
    true_sigmas = [copy for copy in info.sigma_copies
                   if copy.sigma_on_true_branch and
                   getattr(copy.sigma_condition, "predicate", None) == "eq"]
    assert true_sigmas, "no σ-copies recorded for the eq branch"
    refined = [ranges.range_of(copy) for copy in true_sigmas
               if ranges.range_of(copy) == Interval.constant(42)]
    assert refined, "no σ-copy was pinned to [42, 42]"
