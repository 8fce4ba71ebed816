"""Tests for the basic alias analysis (BA) heuristics."""

from repro.alias import AliasResult, BasicAliasAnalysis, MemoryLocation
from repro.alias.basicaa import underlying_object_and_offset
from repro.ir import INT, IRBuilder, Module, NullPointer, pointer_to


def build_allocation_module():
    module = Module("allocs")
    int_ptr = pointer_to(INT)
    f = module.create_function("f", INT, [int_ptr], ["q"])
    entry = f.append_block(name="entry")
    builder = IRBuilder(entry)
    stack = builder.alloca(INT, "stack", array_size=builder.const(16))
    heap = builder.malloc(INT, builder.const(16), "heap")
    derived1 = builder.gep(stack, builder.const(1), "derived1")
    derived2 = builder.gep(stack, builder.const(2), "derived2")
    derived2b = builder.gep(stack, builder.const(2), "derived2b")
    idx = builder.load(f.arguments[0], "idx")
    variable = builder.gep(stack, idx, "varderived")
    builder.ret(builder.const(0))
    return module, f, {
        "stack": stack, "heap": heap, "derived1": derived1,
        "derived2": derived2, "derived2b": derived2b, "variable": variable,
    }


def test_underlying_object_walks_geps_and_accumulates_offsets():
    module, f, v = build_allocation_module()
    obj, offset = underlying_object_and_offset(v["derived2"])
    assert obj is v["stack"]
    assert offset == 2
    obj2, offset2 = underlying_object_and_offset(v["variable"])
    assert obj2 is v["stack"]
    assert offset2 is None


def test_distinct_allocation_sites_do_not_alias():
    module, f, v = build_allocation_module()
    ba = BasicAliasAnalysis()
    assert ba.alias_values(v["stack"], v["heap"]) is AliasResult.NO_ALIAS


def test_local_allocation_does_not_alias_argument():
    module, f, v = build_allocation_module()
    ba = BasicAliasAnalysis()
    q = f.arguments[0]
    assert ba.alias_values(v["stack"], q) is AliasResult.NO_ALIAS
    assert ba.alias_values(v["heap"], q) is AliasResult.NO_ALIAS


def test_null_pointer_aliases_nothing():
    module, f, v = build_allocation_module()
    ba = BasicAliasAnalysis()
    null = NullPointer(pointer_to(INT))
    assert ba.alias_values(null, v["stack"]) is AliasResult.NO_ALIAS


def test_constant_offsets_from_same_base():
    module, f, v = build_allocation_module()
    ba = BasicAliasAnalysis()
    assert ba.alias_values(v["derived1"], v["derived2"]) is AliasResult.NO_ALIAS
    assert ba.alias_values(v["derived2"], v["derived2b"]) is AliasResult.MUST_ALIAS
    assert ba.alias_values(v["stack"], v["derived1"]) is AliasResult.NO_ALIAS


def test_identical_pointer_is_must_alias():
    module, f, v = build_allocation_module()
    ba = BasicAliasAnalysis()
    assert ba.alias_values(v["stack"], v["stack"]) is AliasResult.MUST_ALIAS


def test_variable_offset_from_same_base_is_may_alias():
    module, f, v = build_allocation_module()
    ba = BasicAliasAnalysis()
    assert ba.alias_values(v["derived1"], v["variable"]) is AliasResult.MAY_ALIAS


def test_two_unknown_arguments_may_alias():
    module = Module("m")
    int_ptr = pointer_to(INT)
    f = module.create_function("f", INT, [int_ptr, int_ptr], ["p", "q"])
    entry = f.append_block(name="entry")
    IRBuilder(entry).ret(IRBuilder.const(0))
    ba = BasicAliasAnalysis()
    p, q = f.arguments
    assert ba.alias_values(p, q) is AliasResult.MAY_ALIAS


def test_overlapping_windows_partial_alias():
    module = Module("m")
    f = module.create_function("f", INT, [], [])
    entry = f.append_block(name="entry")
    builder = IRBuilder(entry)
    base = builder.alloca(INT, "base", array_size=builder.const(10))
    at0 = builder.gep(base, builder.const(0), "at0")
    at1 = builder.gep(base, builder.const(1), "at1")
    builder.ret(builder.const(0))
    ba = BasicAliasAnalysis()
    wide = MemoryLocation(at0, size=4)
    narrow = MemoryLocation(at1, size=1)
    assert ba.alias(wide, narrow) is AliasResult.PARTIAL_ALIAS


def test_distinct_object_rules_for_every_kind_pair():
    """The rule table for pointers into two different objects, written out
    independently of the analysis: NoAlias when either is null, when both
    are identified objects (global, alloca, malloc), or when a local
    allocation meets a pointer from an argument, a load or a call."""
    module = Module("kinds")
    int_ptr = pointer_to(INT)
    source = module.create_function("source", int_ptr, [])
    f = module.create_function("f", INT, [int_ptr, pointer_to(int_ptr)],
                               ["p", "pp"])
    builder = IRBuilder(f.append_block(name="entry"))
    objects = {
        "null": NullPointer(int_ptr),
        "global": module.add_global(INT, "g"),
        "alloca": builder.alloca(INT, "stack", array_size=builder.const(4)),
        "malloc": builder.malloc(INT, builder.const(4), "heap"),
        "argument": f.arguments[0],
        "load": builder.load(f.arguments[1], "loaded"),
        "call": builder.call(source, [], "called"),
        "phi": builder.phi(int_ptr, "merged"),
    }
    identified = {"global", "alloca", "malloc"}
    local = {"alloca", "malloc"}
    escaped = {"argument", "load", "call"}
    ba = BasicAliasAnalysis()
    for kind_a, value_a in objects.items():
        for kind_b, value_b in objects.items():
            if kind_a == kind_b:
                continue
            no_alias = ("null" in (kind_a, kind_b)
                        or {kind_a, kind_b} <= identified
                        or (kind_a in local and kind_b in escaped)
                        or (kind_b in local and kind_a in escaped))
            expected = AliasResult.NO_ALIAS if no_alias else AliasResult.MAY_ALIAS
            assert ba.alias_values(value_a, value_b) is expected, (kind_a, kind_b)
