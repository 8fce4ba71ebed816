"""Verdict columns against the per-pair ``alias()`` reference.

A column is one verdict code per unordered location pair in ``(i, j)``
order.  ``AliasAnalysis.alias_column`` (the base-class default) asks
``alias()`` pair by pair and is the reference; BasicAA and LT override it
with batch algorithms, and a chain merges its members' columns.  The
differential tests run over the 16 SPEC profiles and the 40-seed fuzz
corpus, plus hypothesis-built location sets for BasicAA's rules.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alias import (
    AliasAnalysis,
    AliasAnalysisChain,
    AliasResult,
    AndersenAliasAnalysis,
    BasicAliasAnalysis,
    MemoryLocation,
    evaluate_module,
)
from repro.alias.aaeval import collect_memory_locations, evaluate_function_verdicts
from repro.alias.interface import merge_columns
from repro.core import StrictInequalityAliasAnalysis
from repro.engine.worker import build_analysis
from repro.frontend import compile_source
from repro.ir import INT, IRBuilder, Module, NullPointer, pointer_to
from repro.passes import FunctionAnalysisCache
from repro.synth import generate_random_module, spec_sources

FUZZ_SEEDS = 40


def _first_definitive(columns):
    """The chain rule, pair by pair: the first code that is not ``M``."""
    return "".join(next((code for code in codes if code != "M"), "M")
                   for codes in zip(*columns))


class _Program:
    """One e-SSA-converted module with its members and reference columns."""

    def __init__(self, name, module):
        self.name = name
        self.module = module
        self.cache = FunctionAnalysisCache()
        self.members = {
            "basicaa": BasicAliasAnalysis(),
            "lt": StrictInequalityAliasAnalysis(module, cache=self.cache),
            "andersen": AndersenAliasAnalysis(module),
        }
        self.functions = list(module.defined_functions())
        self.locations = {function: collect_memory_locations(function)
                          for function in self.functions}
        self.reference = {
            (function, member): AliasAnalysis.alias_column(analysis, locations)
            for function, locations in self.locations.items()
            for member, analysis in self.members.items()}


@pytest.fixture(scope="module")
def corpus():
    programs = [_Program(name, compile_source(source, module_name=name))
                for name, source in spec_sources()]
    programs += [_Program("fuzz{}".format(seed),
                          generate_random_module(seed, pointer_depth=2))
                 for seed in range(FUZZ_SEEDS)]
    return programs


def test_corpus_is_not_vacuous(corpus):
    codes = "".join(program.reference[(function, member)]
                    for program in corpus for function in program.functions
                    for member in ("basicaa", "lt"))
    for code in "NMU":
        assert code in codes


@pytest.mark.parametrize("member", ["basicaa", "lt"])
def test_member_column_matches_pairwise_reference(corpus, member):
    for program in corpus:
        analysis = program.members[member]
        for function, locations in program.locations.items():
            assert (analysis.alias_column(locations)
                    == program.reference[(function, member)]), (
                        program.name, function.name)


@pytest.mark.parametrize("spec", [("basicaa", "lt"), ("lt", "basicaa"),
                                  ("basicaa", "andersen")])
def test_chain_column_matches_first_definitive_reference(corpus, spec):
    for program in corpus:
        chain = AliasAnalysisChain([program.members[m] for m in spec])
        for function, locations in program.locations.items():
            expected = _first_definitive(
                [program.reference[(function, m)] for m in spec])
            assert chain.alias_column(locations) == expected, (
                program.name, function.name)


@pytest.mark.parametrize("spec", [("basicaa", "lt"), ("lt", "basicaa")])
def test_chain_column_matches_pairwise_chain_alias(corpus, spec):
    """On the fuzz corpus, also against ``AliasAnalysisChain.alias`` itself."""
    for program in corpus:
        if not program.name.startswith("fuzz"):
            continue
        chain = AliasAnalysisChain([program.members[m] for m in spec])
        for function, locations in program.locations.items():
            assert (chain.alias_column(locations)
                    == AliasAnalysis.alias_column(chain, locations))


def test_memoized_columns_match_reference_and_are_shared(corpus):
    specs = (("basicaa",), ("lt",), ("basicaa", "lt"), ("basicaa", "andersen"))
    for program in corpus:
        analyses = {spec: build_analysis(spec, program.module, program.cache)
                    for spec in specs}
        for function in program.functions:
            for spec, analysis in analyses.items():
                expected = _first_definitive(
                    [program.reference[(function, m)] for m in spec])
                _evaluation, codes = evaluate_function_verdicts(function, analysis)
                assert codes == expected, (program.name, function.name, spec)
        # One column per (function, member), however many specs used it;
        # andersen is only asked where basicaa left a pair MayAlias.
        asked = sum(1 for function in program.functions
                    if "M" in program.reference[(function, "basicaa")])
        assert (program.cache.column_count()
                == 2 * len(program.functions) + asked)


# -- hypothesis: BasicAA's rules on built location sets ----------------------------

BASES = ("null", "null2", "global", "global2", "alloca", "malloc",
         "argument", "load", "call", "phi")
STEPS = st.one_of(st.tuples(st.just("gep"), st.integers(-2, 6)),
                  st.just(("gep-variable",)), st.just(("copy",)))
LOCATIONS = st.lists(
    st.tuples(st.sampled_from(BASES), st.lists(STEPS, max_size=3),
              st.sampled_from([None, 1, 2, 4])),
    min_size=1, max_size=12)


def _build_locations(recipes, repeats):
    module = Module("hyp")
    int_ptr = pointer_to(INT)
    source = module.create_function("source", int_ptr, [])
    function = module.create_function(
        "f", INT, [int_ptr, pointer_to(int_ptr), INT], ["q", "pp", "n"])
    builder = IRBuilder(function.append_block(name="entry"))
    bases = {
        "null": NullPointer(int_ptr),
        "null2": NullPointer(int_ptr),
        "global": module.add_global(INT, "g1"),
        "global2": module.add_global(INT, "g2"),
        "alloca": builder.alloca(INT, "stack", array_size=builder.const(16)),
        "malloc": builder.malloc(INT, builder.const(16), "heap"),
        "argument": function.arguments[0],
        "load": builder.load(function.arguments[1], "loaded"),
        "call": builder.call(source, [], "called"),
        "phi": builder.phi(int_ptr, "merged"),
    }
    locations = []
    for base, steps, size in recipes:
        pointer = bases[base]
        for step in steps:
            if step[0] == "gep":
                pointer = builder.gep(pointer, builder.const(step[1]))
            elif step[0] == "gep-variable":
                pointer = builder.gep(pointer, function.arguments[2])
            else:
                pointer = builder.copy(pointer)
        locations.append(MemoryLocation(pointer, size))
    # The same pointer (and location) more than once.
    for index in repeats:
        locations.append(locations[index % len(locations)])
    return locations


@settings(max_examples=300, deadline=None)
@given(LOCATIONS, st.lists(st.integers(0, 11), max_size=3))
def test_basicaa_column_matches_reference_on_built_locations(recipes, repeats):
    locations = _build_locations(recipes, repeats)
    basicaa = BasicAliasAnalysis()
    assert (basicaa.alias_column(locations)
            == AliasAnalysis.alias_column(basicaa, locations))


# -- merging ----------------------------------------------------------------------

COLUMN_PAIRS = st.integers(0, 64).flatmap(lambda size: st.tuples(
    st.text("MNPU", min_size=size, max_size=size),
    st.text("MNPU", min_size=size, max_size=size)))


@settings(max_examples=300, deadline=None)
@given(COLUMN_PAIRS)
def test_merge_columns_is_first_definitive(columns):
    earlier, later = columns
    assert merge_columns(earlier, later) == _first_definitive([earlier, later])


def test_merge_columns_rejects_different_lengths():
    with pytest.raises(ValueError):
        merge_columns("MM", "N")


# -- chain behaviour ----------------------------------------------------------------

SOURCE = """
int work(int *a, int n) {
  int i;
  int local[8];
  for (i = 0; i < n; i++) { a[i] = a[i + 1] + local[i % 8]; }
  return local[0];
}
int main() { return 0; }
"""


class CountingAnalysis(AliasAnalysis):
    """Answers a fixed verdict for chosen pairs; counts every query."""

    def __init__(self, name, resolved_pairs, verdict=AliasResult.NO_ALIAS):
        self.name = name
        self.resolved_pairs = set(resolved_pairs)
        self.verdict = verdict
        self.queried = []

    def alias(self, loc_a, loc_b):
        self.queried.append((loc_a, loc_b))
        key = (loc_a.pointer.name, loc_b.pointer.name)
        if key in self.resolved_pairs:
            return self.verdict
        return AliasResult.MAY_ALIAS


def _work_locations():
    module = compile_source(SOURCE, module_name="columns")
    function = module.get_function("work")
    return module, function, collect_memory_locations(function)


def test_chain_stops_asking_once_every_pair_is_decided():
    _module, _function, locations = _work_locations()
    count = len(locations)
    every_pair = {(locations[i].pointer.name, locations[j].pointer.name)
                  for i in range(count) for j in range(i + 1, count)}
    first = CountingAnalysis("first", every_pair)
    second = CountingAnalysis("second", set())
    chain = AliasAnalysisChain([first, second], name="chain")
    assert chain.alias_column(locations) == "N" * len(every_pair)
    assert len(first.queried) == len(every_pair)
    assert second.queried == []


def test_chain_keeps_earlier_definitive_verdicts():
    _module, _function, locations = _work_locations()
    count = len(locations)
    # The first member resolves every pair involving location 0 as NoAlias;
    # the second says MustAlias everywhere it is asked.
    first_pairs = {(locations[0].pointer.name, locations[j].pointer.name)
                   for j in range(1, count)}
    all_pairs = {(locations[i].pointer.name, locations[j].pointer.name)
                 for i in range(count) for j in range(i + 1, count)}
    first = CountingAnalysis("first", first_pairs)
    second = CountingAnalysis("second", all_pairs, AliasResult.MUST_ALIAS)
    chain = AliasAnalysisChain([first, second], name="chain")
    column = chain.alias_column(locations)
    assert column == "N" * (count - 1) + "U" * (len(all_pairs) - (count - 1))
    verdicts = list(chain.alias_many(locations))
    assert [(i, j) for i, j, _verdict in verdicts] == [
        (i, j) for i in range(count) for j in range(i + 1, count)]


def test_chain_column_matches_pairwise_alias():
    module, function, locations = _work_locations()
    cache = FunctionAnalysisCache()
    chain = AliasAnalysisChain(
        [BasicAliasAnalysis(), StrictInequalityAliasAnalysis(module, cache=cache)],
        name="ba+lt")
    chain.prepare_function(function)
    for i, j, verdict in chain.alias_many(locations):
        assert verdict is chain.alias(locations[i], locations[j]), (i, j)


def test_chain_evaluation_counts_dominate_members():
    """Whole-module chain evaluation resolves at least what each member does."""
    module, _function, _locations = _work_locations()
    cache = FunctionAnalysisCache()
    ba = BasicAliasAnalysis()
    lt = StrictInequalityAliasAnalysis(module, cache=cache)
    chain = AliasAnalysisChain([ba, lt], name="ba+lt")
    eval_chain = evaluate_module(module, chain)
    eval_ba = evaluate_module(module, ba)
    eval_lt = evaluate_module(module, lt)
    assert eval_chain.total_queries == eval_ba.total_queries == eval_lt.total_queries
    assert eval_chain.no_alias >= max(eval_ba.no_alias, eval_lt.no_alias)


def test_columns_of_unconverted_functions_are_not_memoized():
    """Memoized columns describe the e-SSA form; before the conversion a
    column is computed but not kept."""
    module, function, _locations = _work_locations()
    cache = FunctionAnalysisCache()
    basicaa = build_analysis(("basicaa",), module, cache)
    assert not getattr(function, "essa_form", False)
    basicaa.function_column(function)
    assert cache.column_count() == 0
    cache.ensure_essa(function)
    column = basicaa.function_column(function)
    assert cache.get_column(function, "basicaa") == column


# -- hypothesis: LT's reason column on arbitrary LT sets ----------------------------

def _lt_pool():
    """A straight-line function whose pointers cover LT's cases: copies,
    a zero-offset gep (same canonical value), variable-index geps of one
    base and of another, and a constant-index gep."""
    module = Module("lt-pool")
    int_ptr = pointer_to(INT)
    function = module.create_function(
        "f", INT, [int_ptr, int_ptr, INT, INT], ["p", "q", "i", "j"])
    builder = IRBuilder(function.append_block(name="entry"))
    p, q, i, j = function.arguments
    i_copy = builder.copy(i, "i1")
    p_copy = builder.copy(p, "p1")
    p_zero = builder.gep(p, builder.const(0), "p0")
    p_i = builder.gep(p, i, "pi")
    p_j = builder.gep(p, j, "pj")
    p_i_copy = builder.copy(p_i, "pi1")
    p_copy_j = builder.gep(p_copy, i_copy, "p1i1")
    q_i = builder.gep(q, i, "qi")
    p_three = builder.gep(p, builder.const(3), "p3")
    builder.ret(builder.const(0))
    pointers = [p, q, p_copy, p_zero, p_i, p_j, p_i_copy, p_copy_j, q_i, p_three]
    return module, pointers, pointers + [i, j, i_copy]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=24),
       st.lists(st.integers(0, 9), min_size=1, max_size=12))
def test_lt_reason_column_matches_pairwise_disambiguate(relation, picks):
    from repro.core.disambiguation import REASON_CODES, PointerDisambiguator
    from repro.core.lessthan.analysis import LessThanAnalysis

    module, pointers, pool = _lt_pool()
    analysis = LessThanAnalysis(module, build_essa=False)
    lt_sets = {}
    for smaller, greater in relation:
        lt_sets.setdefault(pool[greater], set()).add(pool[smaller])
    analysis.lt_sets = {value: frozenset(lt) for value, lt in lt_sets.items()}
    batch = [pointers[pick] for pick in picks]
    reference = PointerDisambiguator(analysis, memoize=False)
    expected = "".join(
        REASON_CODES[reference.disambiguate(batch[a], batch[b])]
        for a in range(len(batch)) for b in range(a + 1, len(batch)))
    assert PointerDisambiguator(analysis).reason_column(batch) == expected
