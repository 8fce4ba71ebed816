"""Shared IR-construction helpers for the test suite.

These builders create the small programs that many tests need: a straight
line function, a diamond CFG, a simple counting loop, the two-pointer loop of
the paper's introduction and the artificial program of Figure 3.  They also
load the benchmark's program generators for the differential tests.
"""

from __future__ import annotations

import importlib.util
import os
from typing import Iterable, List, Tuple

from repro.ir import (
    Function,
    IRBuilder,
    INT,
    Module,
    pointer_to,
)


def build_straightline_module() -> Tuple[Module, Function]:
    """``f(a, b) { c = a + b; d = c - 1; return d; }``"""
    module = Module("straightline")
    function = module.create_function("f", INT, [INT, INT], ["a", "b"])
    entry = function.append_block(name="entry")
    builder = IRBuilder(entry)
    a, b = function.arguments
    c = builder.add(a, b, "c")
    d = builder.sub(c, builder.const(1), "d")
    builder.ret(d)
    return module, function


def build_diamond_module() -> Tuple[Module, Function]:
    """``f(a, b) { if (a < b) r = a + 1; else r = b + 2; return r; }``"""
    module = Module("diamond")
    function = module.create_function("f", INT, [INT, INT], ["a", "b"])
    entry = function.append_block(name="entry")
    then_block = function.append_block(name="then")
    else_block = function.append_block(name="else")
    join = function.append_block(name="join")
    builder = IRBuilder(entry)
    a, b = function.arguments
    cond = builder.icmp_slt(a, b, "cond")
    builder.branch(cond, then_block, else_block)
    builder.set_insert_point(then_block)
    t = builder.add(a, builder.const(1), "t")
    builder.jump(join)
    builder.set_insert_point(else_block)
    e = builder.add(b, builder.const(2), "e")
    builder.jump(join)
    builder.set_insert_point(join)
    phi = builder.phi(INT, "r")
    phi.add_incoming(t, then_block)
    phi.add_incoming(e, else_block)
    builder.ret(phi)
    return module, function


def build_counting_loop_module(upper: int = 10) -> Tuple[Module, Function]:
    """``f(n) { i = 0; while (i < n) i = i + 1; return i; }``"""
    module = Module("loop")
    function = module.create_function("f", INT, [INT], ["n"])
    entry = function.append_block(name="entry")
    header = function.append_block(name="header")
    body = function.append_block(name="body")
    exit_block = function.append_block(name="exit")
    builder = IRBuilder(entry)
    (n,) = function.arguments
    zero = builder.const(0)
    builder.jump(header)
    builder.set_insert_point(header)
    i_phi = builder.phi(INT, "i")
    cond = builder.icmp_slt(i_phi, n, "cond")
    builder.branch(cond, body, exit_block)
    builder.set_insert_point(body)
    i_next = builder.add(i_phi, builder.const(1), "inext")
    builder.jump(header)
    i_phi.add_incoming(zero, entry)
    i_phi.add_incoming(i_next, body)
    builder.set_insert_point(exit_block)
    builder.ret(i_phi)
    return module, function


def build_two_index_loop_module() -> Tuple[Module, Function]:
    """The introduction's loop: ``for (i=0, j=N; i<j; i++, j--) v[i] = v[j];``

    Returns the module and the function.  Pointers ``v[i]`` and ``v[j]`` are
    formed with ``gep`` so the disambiguation criteria of Definition 3.11(2)
    apply.
    """
    module = Module("two_index_loop")
    int_ptr = pointer_to(INT)
    function = module.create_function("copy_reverse", INT, [int_ptr, INT], ["v", "N"])
    entry = function.append_block(name="entry")
    header = function.append_block(name="header")
    body = function.append_block(name="body")
    exit_block = function.append_block(name="exit")
    builder = IRBuilder(entry)
    v, n = function.arguments
    zero = builder.const(0)
    builder.jump(header)
    builder.set_insert_point(header)
    i_phi = builder.phi(INT, "i")
    j_phi = builder.phi(INT, "j")
    cond = builder.icmp_slt(i_phi, j_phi, "cond")
    builder.branch(cond, body, exit_block)
    builder.set_insert_point(body)
    p_i = builder.gep(v, i_phi, "p_i")
    p_j = builder.gep(v, j_phi, "p_j")
    value = builder.load(p_j, "val")
    builder.store(value, p_i)
    i_next = builder.add(i_phi, builder.const(1), "inext")
    j_next = builder.sub(j_phi, builder.const(1), "jnext")
    builder.jump(header)
    i_phi.add_incoming(zero, entry)
    i_phi.add_incoming(i_next, body)
    j_phi.add_incoming(n, entry)
    j_phi.add_incoming(j_next, body)
    builder.set_insert_point(exit_block)
    builder.ret(i_phi)
    return module, function


def build_figure3_module() -> Tuple[Module, Function]:
    """The artificial program of Figure 3 of the paper.

    The entry defines ``x0`` (modelled as a function argument so its range is
    unknown), then::

        x1 = x0 + 1
        loop: x2 = phi(x1, x3)
              x4 = x2 - 2        (one branch)
              x3 = x2 + 1        (other branch)
        (x4 < x1) ?  -> join with x6 = phi(x4, x3, x4)
    """
    module = Module("figure3")
    function = module.create_function("figure3", INT, [INT], ["x0"])
    entry = function.append_block(name="entry")
    loop_header = function.append_block(name="loop")
    left = function.append_block(name="left")
    right = function.append_block(name="right")
    check = function.append_block(name="check")
    join = function.append_block(name="join")
    builder = IRBuilder(entry)
    (x0,) = function.arguments
    x1 = builder.add(x0, builder.const(1), "x1")
    builder.jump(loop_header)

    builder.set_insert_point(loop_header)
    x2 = builder.phi(INT, "x2")
    cond_dir = builder.icmp_slt(x2, builder.const(100), "dir")
    builder.branch(cond_dir, left, right)

    builder.set_insert_point(left)
    x4 = builder.sub(x2, builder.const(2), "x4")
    builder.jump(check)

    builder.set_insert_point(right)
    x3 = builder.add(x2, builder.const(1), "x3")
    builder.jump(loop_header)

    x2.add_incoming(x1, entry)
    x2.add_incoming(x3, right)

    builder.set_insert_point(check)
    cond = builder.icmp_slt(x4, x1, "cond")
    builder.branch(cond, join, join)

    builder.set_insert_point(join)
    x6 = builder.phi(INT, "x6")
    x6.add_incoming(x4, check)
    builder.ret(x6)
    return module, function


_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def perfbench_sources(seeds: Iterable[int] = range(3)) -> List[Tuple[str, str]]:
    """``(name, source)`` of every ``spec-mix`` and ``chain-loops`` program of
    the end-to-end benchmark (``perfbench/workloads.py``) for each seed."""
    path = os.path.join(_ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    sources: List[Tuple[str, str]] = []
    for seed in seeds:
        sources.extend(workloads.spec_mix(seed))
        sources.extend(workloads.chain_loops(seed))
    return sources
