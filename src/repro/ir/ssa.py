"""SSA construction (mem2reg).

The mini-C frontend lowers local variables to ``alloca`` slots accessed with
``load``/``store``.  This pass promotes those slots to SSA registers using
the classic Cytron et al. algorithm: φ-functions are inserted at the
iterated dominance frontier of the blocks that store to a slot, then a
renaming walk over the dominator tree replaces loads with the reaching
definition.

All promotable allocas of a function are promoted together.  φs are placed
alloca by alloca, so value names and φ order do not depend on how many slots
share a block.  Then one iterative preorder walk of the dominator tree
carries a vector with the current value of every slot, rewrites each block's
instruction list once, and fills the φ inputs along each CFG edge it leaves.
Erased loads and stores do not unlink themselves one by one from the
allocas' use lists; those lists are dropped wholesale at the end.

Only promotable allocas are touched: scalar-typed slots whose address is
used exclusively by loads and stores (never stored itself, never passed to a
call, never offset with ``gep``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir.basicblock import BasicBlock
from repro.ir.dominators import DominatorTree
from repro.ir.function import Function
from repro.ir.instructions import Alloca, Instruction, Load, Phi, Store
from repro.ir.values import Undef, Value
from repro.obs import TRACER


def promotable_allocas(function: Function) -> List[Alloca]:
    """Return the allocas of ``function`` that can be promoted to SSA values."""
    result: List[Alloca] = []
    for inst in function.instructions():
        if not isinstance(inst, Alloca):
            continue
        if inst.array_size is not None:
            continue
        if not inst.allocated_type.is_scalar():
            continue
        promotable = True
        for use in inst.uses:
            user = use.user
            if isinstance(user, Load):
                continue
            if isinstance(user, Store) and user.pointer is inst and user.value is not inst:
                continue
            promotable = False
            break
        if promotable:
            result.append(inst)
    return result


def promote_memory_to_registers(function: Function) -> int:
    """Run mem2reg on ``function``; return the number of promoted allocas."""
    if function.is_declaration():
        return 0
    allocas = promotable_allocas(function)
    if not allocas:
        return 0
    with TRACER.span("ir.mem2reg", fn=function.name, allocas=len(allocas)):
        _promote(function, allocas, DominatorTree(function))
    return len(allocas)


def _place_phis(function: Function, allocas: List[Alloca], domtree: DominatorTree,
                ) -> Dict[BasicBlock, List[Tuple[int, Phi]]]:
    """φ-functions of every alloca at its iterated dominance frontier.

    Returns ``{block: [(slot, phi), ...]}`` in creation order.  Allocas are
    handled one after another and each φ is named when it is created, so
    value names follow the alloca order; a block lists its φs newest first.
    """
    # Sets of blocks hash by identity, so their iteration order varies from
    # run to run; ordering by position in the function keeps φ insertion (and
    # hence value numbering and all downstream analyses) deterministic.
    block_order = {block: index for index, block in enumerate(function.blocks)}
    phis_at: Dict[BasicBlock, List[Tuple[int, Phi]]] = {}
    for slot, alloca in enumerate(allocas):
        defining_blocks: Set[BasicBlock] = {
            use.user.parent for use in alloca.uses
            if isinstance(use.user, Store) and use.user.parent is not None}
        phi_blocks: Set[BasicBlock] = set()
        worklist = sorted(defining_blocks, key=block_order.get)
        while worklist:
            block = worklist.pop()
            for frontier_block in sorted(domtree.dominance_frontier(block),
                                         key=block_order.get):
                if frontier_block in phi_blocks:
                    continue
                phi_blocks.add(frontier_block)
                phi = Phi(alloca.allocated_type, function.next_value_name())
                phis_at.setdefault(frontier_block, []).append((slot, phi))
                if frontier_block not in defining_blocks:
                    worklist.append(frontier_block)
    return phis_at


def _promote(function: Function, allocas: List[Alloca], domtree: DominatorTree) -> None:
    slot_of = {alloca: slot for slot, alloca in enumerate(allocas)}
    types = [alloca.allocated_type for alloca in allocas]
    phis_at = _place_phis(function, allocas, domtree)

    # Rename along the dominator tree in preorder.  ``current[slot]`` is the
    # value reaching the walk's position (None: no store yet, read as undef);
    # each block starts from a copy of its immediate dominator's final vector.
    entry = function.entry_block
    assert entry is not None
    stack: List[Tuple[BasicBlock, List[Optional[Value]]]] = [
        (entry, [None] * len(allocas))]
    while stack:
        block, incoming = stack.pop()
        current = list(incoming)
        phis = phis_at.get(block, ())
        for slot, phi in phis:
            current[slot] = phi
            phi.parent = block
        kept: List[Instruction] = [phi for _slot, phi in reversed(phis)]
        # An erased load or store keeps its place in the alloca's use list
        # (filtered below); only the stored value's use is unlinked here.
        for inst in block.instructions:
            if isinstance(inst, Load):
                slot = slot_of.get(inst.pointer)
                if slot is not None:
                    value = current[slot]
                    inst.replace_all_uses_with(
                        value if value is not None else Undef(types[slot]))
                    inst.parent = None
                    inst._operands = []
                    continue
            elif isinstance(inst, Store):
                slot = slot_of.get(inst.pointer)
                if slot is not None:
                    value = inst.value
                    current[slot] = value
                    value.remove_use(inst, 0)
                    inst.parent = None
                    inst._operands = []
                    continue
            elif isinstance(inst, Alloca) and inst in slot_of:
                inst.parent = None
                continue
            kept.append(inst)
        block.instructions = kept
        for succ in block.successors():
            for slot, phi in phis_at.get(succ, ()):
                value = current[slot]
                phi.add_incoming(value if value is not None else Undef(types[slot]), block)
        for child in reversed(domtree.children.get(block, [])):
            stack.append((child, current))

    # Unreachable blocks are outside the walk: their loads and stores stay,
    # and their allocas and φs are handled here.
    for alloca in allocas:
        alloca.uses = [use for use in alloca.uses if use.user.parent is not None]
        if alloca.parent is not None:
            alloca.erase_from_parent()
    for block, phis in phis_at.items():
        if phis[0][1].parent is None:
            for _slot, phi in phis:
                block.insert(0, phi)

    # φ inputs from predecessors the walk never reached are undefined.
    for block, phis in phis_at.items():
        preds = domtree.cfg.preds(block)
        for slot, phi in phis:
            covered = {id(pred) for pred in phi.incoming_blocks}
            for pred in preds:
                if id(pred) not in covered:
                    covered.add(id(pred))
                    phi.add_incoming(Undef(types[slot]), pred)
