"""Per-alloca mem2reg, kept as a naive test reference.

This is the promotion the frontend used before the single-walk
:func:`repro.ir.ssa.promote_memory_to_registers`: each alloca gets its own
φ placement and its own renaming walk over the whole dominator tree, and
every erased load or store leaves the alloca's use list one entry at a time.
The differential tests in ``test_mem2reg_differential.py`` check that both
print the same IR.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.ir.basicblock import BasicBlock
from repro.ir.dominators import DominatorTree
from repro.ir.function import Function
from repro.ir.instructions import Alloca, Load, Phi, Store
from repro.ir.ssa import promotable_allocas
from repro.ir.values import Undef, Value


def naive_promote_memory_to_registers(function: Function) -> int:
    """Run the per-alloca mem2reg on ``function``; return the number of
    promoted allocas."""
    if function.is_declaration():
        return 0
    allocas = promotable_allocas(function)
    if not allocas:
        return 0
    domtree = DominatorTree(function)
    for alloca in allocas:
        _promote_single(function, alloca, domtree)
    return len(allocas)


def _promote_single(function: Function, alloca: Alloca, domtree: DominatorTree) -> None:
    value_type = alloca.allocated_type
    defining_blocks: Set[BasicBlock] = set()
    for use in alloca.uses:
        user = use.user
        if isinstance(user, Store) and user.parent is not None:
            defining_blocks.add(user.parent)

    block_order = {block: index for index, block in enumerate(function.blocks)}

    # 1. Insert φ-functions at the iterated dominance frontier.
    phi_blocks: Set[BasicBlock] = set()
    worklist = sorted(defining_blocks, key=block_order.get)
    inserted: Dict[BasicBlock, Phi] = {}
    while worklist:
        block = worklist.pop()
        for frontier_block in sorted(domtree.dominance_frontier(block),
                                     key=block_order.get):
            if frontier_block in phi_blocks:
                continue
            phi_blocks.add(frontier_block)
            phi = Phi(value_type, "")
            frontier_block.insert(0, phi)
            inserted[frontier_block] = phi
            if frontier_block not in defining_blocks:
                worklist.append(frontier_block)

    # 2. Rename along the dominator tree.
    def rename(block: BasicBlock, incoming: Optional[Value]) -> None:
        current = incoming
        if block in inserted:
            current = inserted[block]
        for inst in list(block.instructions):
            if isinstance(inst, Load) and inst.pointer is alloca:
                replacement = current if current is not None else Undef(value_type)
                inst.replace_all_uses_with(replacement)
                inst.erase_from_parent()
            elif isinstance(inst, Store) and inst.pointer is alloca:
                current = inst.value
                inst.erase_from_parent()
        for succ in block.successors():
            phi = inserted.get(succ)
            if phi is not None:
                phi.add_incoming(current if current is not None else Undef(value_type), block)
        for child in domtree.children.get(block, []):
            rename(child, current)

    entry = function.entry_block
    assert entry is not None
    rename(entry, None)

    # 3. The alloca itself is now dead.
    alloca.erase_from_parent()

    # 4. Fill φ inputs from predecessors the walk never reached with Undef.
    for block, phi in inserted.items():
        preds = block.predecessors()
        covered = {id(b) for b in phi.incoming_blocks}
        for pred in preds:
            if id(pred) not in covered:
                phi.add_incoming(Undef(value_type), pred)
