"""Differential tests: single-walk mem2reg against the per-alloca reference.

Both promotions must print byte-identical IR, and the single walk must leave
every use list consistent with the operand lists it describes.
"""

from collections import Counter

import pytest

from repro.frontend import lower_program, parse_program
from repro.ir import INT, IRBuilder, Module
from repro.ir.printer import print_module
from repro.ir.ssa import promote_memory_to_registers
from repro.ir.verifier import verify_module
from repro.synth import CsmithConfig, RandomProgramGenerator
from tests.helpers import perfbench_sources
from tests.ir.naive_mem2reg import naive_promote_memory_to_registers


def _lowered(name, source, promote):
    module = lower_program(parse_program(source), name, promote=False, verify=False)
    for function in module.defined_functions():
        promote(function)
    verify_module(module)
    return module


def _use_list_problems(module):
    """Disagreements between operand lists and use lists, both directions."""
    problems = []
    operands = Counter()
    values = {id(value): value for value in module.globals}
    for function in module.defined_functions():
        for value in function.values():
            values[id(value)] = value
        for inst in function.instructions():
            for index, operand in enumerate(inst.operands):
                operands[(id(operand), id(inst), index)] += 1
                values[id(operand)] = operand
    uses = Counter()
    for value in values.values():
        for use in value.uses:
            uses[(id(value), id(use.user), use.index)] += 1
            if use.user.parent is None:
                problems.append("%{} is used by an erased {}".format(
                    value.name, use.user.opcode))
            elif use.user.operands[use.index] is not value:
                problems.append("use of %{} by %{} at {} names another operand".format(
                    value.name, use.user.name, use.index))
    if uses != operands:
        problems.append("use lists and operand lists differ: {} entries".format(
            sum(((uses - operands) + (operands - uses)).values())))
    return problems


def _assert_same_ir(name, source):
    reference = _lowered(name, source, naive_promote_memory_to_registers)
    module = _lowered(name, source, promote_memory_to_registers)
    assert print_module(module) == print_module(reference), name
    assert _use_list_problems(module) == [], name


@pytest.mark.parametrize("seed", range(3))
def test_benchmark_programs_promote_identically(seed):
    # Seed 0 of spec-mix is the 16 SPEC profiles themselves.
    for name, source in perfbench_sources([seed]):
        _assert_same_ir(name, source)


@pytest.mark.parametrize("block", range(4))
def test_csmith_corpus_promotes_identically(block):
    for seed in range(block * 10, block * 10 + 10):
        config = CsmithConfig(seed=seed, pointer_depth=2 + seed % 6,
                              parameter_count=seed % 3, chain_loops=seed % 3)
        _assert_same_ir("csmith{}".format(seed),
                        RandomProgramGenerator(config).generate_source())


def _unreachable_predecessor_module():
    """``x`` is stored in ``entry`` and ``other``, and also in ``dead`` and
    ``dead2``, blocks that no path from ``entry`` reaches.  Both jump to
    ``limbo``, which jumps to ``join``."""
    module = Module("unreachable")
    function = module.create_function("f", INT, [INT], ["a"])
    entry, dead, dead2, limbo, join, other = (
        function.append_block(name=name)
        for name in ("entry", "dead", "dead2", "limbo", "join", "other"))
    builder = IRBuilder(entry)
    (a,) = function.arguments
    slot = builder.alloca(INT, "x")
    builder.store(a, slot)
    builder.branch(builder.icmp_slt(a, builder.const(3), "c"), join, other)
    builder.set_insert_point(other)
    builder.store(builder.const(7), slot)
    builder.jump(join)
    builder.set_insert_point(dead)
    builder.store(builder.const(5), slot)
    builder.load(slot, "d")
    builder.jump(limbo)
    builder.set_insert_point(dead2)
    builder.store(builder.const(6), slot)
    builder.jump(limbo)
    builder.set_insert_point(limbo)
    builder.jump(join)
    builder.set_insert_point(join)
    builder.ret(builder.load(slot, "r"))
    return module, function


def test_unreachable_predecessors_promote_identically():
    # The walk never enters the unreachable blocks: their memory operations
    # stay, ``limbo`` still gets its φ, and φs read undef along their edges.
    reference, function = _unreachable_predecessor_module()
    naive_promote_memory_to_registers(function)
    module, function = _unreachable_predecessor_module()
    assert promote_memory_to_registers(function) == 1
    printed = print_module(module)
    assert printed == print_module(reference)
    assert "phi i64 [undef, %dead], [undef, %dead2]" in printed
    assert "phi i64 [%a, %entry], [7, %other], [undef, %limbo]" in printed
    assert _use_list_problems(module) == []


def test_use_list_check_catches_a_stale_use():
    module = _lowered("f", "int f(int a) { int x = a + 1; return x * 2; }",
                      promote_memory_to_registers)
    assert _use_list_problems(module) == []
    function = module.get_function("f")
    add = next(inst for inst in function.instructions() if inst.opcode == "add")
    add.uses.append(add.uses[0])
    assert _use_list_problems(module) == ["use lists and operand lists differ: 1 entries"]
