"""Seeded inputs of the three benchmark workloads.

Every generator is a pure function of ``seed``: all randomness comes from
``random.Random`` instances seeded with integers or strings (string seeds
hash with SHA-512, not with ``hash()``), so the same seed gives the same
sources in every process, whatever ``PYTHONHASHSEED`` is.

* :func:`spec_mix` - the 16 SPEC-profile programs of the paper's Figure 9.
  Seed 0 is exactly :func:`repro.synth.spec_sources`; seed ``s`` shifts
  every profile's generator seed by ``s * SPEC_SEED_STRIDE``.
* :func:`chain_loops` - pointer-free loops whose bodies are long arithmetic
  dependence chains, plus the paper's nested-loop kernels.
* :class:`EditStream` - an endless sequence of single-integer-literal edits
  to the SPEC-profile programs of seed 0.  Only the edits depend on the
  seed: edit latency follows program size and the place edited, and a
  fixed program set, with the edits of each program spread evenly over
  its literals, keeps the latency distribution the same on every seed.
"""

from __future__ import annotations

import dataclasses
import random
import re
from typing import Dict, Iterator, List, Tuple

from repro.synth.spec_profiles import SPEC_PROFILES
from repro.synth.workloads import compose_source, spec_recipe

Unit = Tuple[str, str]

#: profile seeds are 101..116; a stride of 1000 keeps shifted seeds of
#: different profiles apart.
SPEC_SEED_STRIDE = 1000

#: dependence-chain lengths before the seeded jitter; a fixed grid keeps the
#: spread of unit sizes the same on every seed.  Its 22 steps and the three
#: kernels make an odd number of units, so the median and the 90th
#: percentile of a run of whole passes fall inside one unit's latencies,
#: not on the gap between two; the jitter spans one step.
CHAIN_GRID = tuple(range(16, 104, 4))
CHAIN_JITTER = 3
CHAIN_LOOPS_PER_UNIT = 2

#: the paper's nested-loop kernels; each unit holds three or four renamed
#: copies, chosen by the seed, so the pointer-pair mix varies a little.
LOOP_KERNELS = ("ins_sort", "partition", "two_pointer_sum")

#: an integer literal that is not part of an identifier.
_LITERAL = re.compile(r"(?<![\w])\d+(?![\w])")

#: the golden-ratio stride between successive edits of one program, as a
#: share of its literals: any run of edits spreads evenly over the program.
GOLDEN = (5 ** 0.5 - 1) / 2


def spec_mix(seed: int) -> List[Unit]:
    """``(name, source)`` of every SPEC-profile program for ``seed``."""
    units = []
    for profile in SPEC_PROFILES.values():
        shifted = dataclasses.replace(
            profile, seed=profile.seed + SPEC_SEED_STRIDE * seed)
        name, kernels, random_specs = spec_recipe(shifted)
        units.append((name, compose_source(name, kernels, random_specs)))
    return units


def chain_source(name: str, lengths: List[int]) -> str:
    """One function per length: ``while (x < n) x = x + 1 + ... + 1;``.

    Lowering turns each chained sum into one def-use chain inside the loop's
    dependence cycle, so range analysis sees a single strongly connected
    component of ``length + 1`` values; no value is a pointer.
    """
    functions = []
    for index, length in enumerate(lengths):
        body = "x + 1" + " + 1" * (length - 1)
        functions.append(
            "int {name}_{index}(int n) {{\n"
            "  int x = 0;\n"
            "  while (x < n) {{\n"
            "    x = {body};\n"
            "  }}\n"
            "  return x;\n"
            "}}\n".format(name=name, index=index, body=body))
    return "\n".join(functions)


def chain_loops(seed: int) -> List[Unit]:
    """Chain-loop programs (lengths drawn from ``seed``) plus the kernels."""
    rng = random.Random("chain-loops/{}".format(seed))
    units = []
    for base in CHAIN_GRID:
        name = "chain{}".format(base)
        lengths = [base + rng.randint(0, CHAIN_JITTER)
                   for _ in range(CHAIN_LOOPS_PER_UNIT)]
        units.append((name, chain_source(name, lengths)))
    for kernel in LOOP_KERNELS:
        copies = rng.randint(3, 4)
        units.append((kernel, compose_source(kernel, [kernel] * copies)))
    return units


def literal_edit(source: str, place: float, rng: random.Random) -> str:
    """``source`` with one integer literal raised by 1 to 9: the one at
    ``place`` (0 to 1) along the list of its literals.

    Raising (never lowering) keeps every literal positive, so array sizes
    and divisors stay valid, and no edit restores an earlier version.
    """
    literals = list(_LITERAL.finditer(source))
    match = literals[int(place * len(literals))]
    value = int(match.group()) + rng.randint(1, 9)
    return source[:match.start()] + str(value) + source[match.end():]


class EditStream:
    """The endless, seeded edit sequence of the ``edit-churn`` workload.

    ``part`` selects one of several independent streams of a seed.  Edits
    visit the programs in rounds, each round a seeded shuffle of all
    of them, so every prefix of the stream edits each program about equally
    often whatever the seed.  An edit raises one literal of the program and
    yields ``(name, new source)``.  The ``k``-th edit of a program raises
    the literal at ``offset + k * GOLDEN`` (mod 1) along its literals, from
    a seeded offset, so the edits of a program spread evenly over it.
    Edits accumulate: the next edit of a program starts from its last
    version, as in an editing session.
    """

    def __init__(self, seed: int, part: int = 0) -> None:
        self.base: List[Unit] = spec_mix(0)
        self.current: Dict[str, str] = dict(self.base)
        self._rng = random.Random("edit-churn/{}".format(seed) if part == 0
                                  else "edit-churn/{}/{}".format(seed, part))
        self._place = {name: self._rng.random() for name, _source in self.base}
        self._round: List[str] = []

    def __iter__(self) -> Iterator[Unit]:
        return self

    def __next__(self) -> Unit:
        if not self._round:
            self._round = [name for name, _source in self.base]
            self._rng.shuffle(self._round)
        name = self._round.pop()
        source = literal_edit(self.current[name], self._place[name], self._rng)
        self._place[name] = (self._place[name] + GOLDEN) % 1.0
        self.current[name] = source
        return name, source


WORKLOADS = ("spec-mix", "chain-loops", "edit-churn")


def programs(workload: str, seed: int) -> List[Unit]:
    """The programs a workload analyzes cold (for ``edit-churn``, the
    baseline that the edits start from)."""
    if workload == "chain-loops":
        return chain_loops(seed)
    return spec_mix(0 if workload == "edit-churn" else seed)
