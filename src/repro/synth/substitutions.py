"""Candidate substitution enumeration (Sec. IV-A and IV-D).

A substitution ``v_i := v_i XOR factor`` is the algebraic image of a
Toffoli gate with target ``v_i`` and the factor's literals as controls.
Three kinds are generated:

1. *basic* — ``factor`` is a term of ``v_out,i``'s expansion not
   containing ``v_i``, and the linear term ``v_i`` is present in
   ``v_out,i`` (Sec. IV-A);
2. *extended* — same factor source with the presence requirement
   dropped (Sec. IV-D, first bullet);
3. *complement* — ``v_i := v_i XOR 1`` even when the constant 1 is not
   a term of ``v_out,i`` (Sec. IV-D, second bullet).

Whether a candidate may *increase* the term count is governed by
``SynthesisOptions.growth_exempt_literals``: the paper's text grants the
exception to the complement substitution only, but that rule provably
cannot synthesize every function (a pure wire swap needs three CNOT
gates whose term counts go 3 -> 4 -> 4 -> 3); the default additionally
exempts CNOT factors, which restores the completeness Table I reports
(verified exhaustively over all three-variable functions).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.pprm.system import PPRMSystem
from repro.pprm.term import CONSTANT_ONE
from repro.synth.options import SynthesisOptions
from repro.utils.bitops import bit, popcount

__all__ = ["Candidate", "enumerate_substitutions"]


class Candidate(NamedTuple):
    """A candidate substitution: target variable, factor term, and
    whether term growth is tolerated (see module docstring).

    A named tuple rather than a frozen dataclass: the search builds one
    per candidate, and tuple construction is the cheapest immutable
    record.
    """

    target: int
    factor: int
    allow_growth: bool


def enumerate_substitutions(
    system: PPRMSystem, options: SynthesisOptions
) -> list[Candidate]:
    """List the substitutions to try on ``system``.

    The union of the kinds is *every* legal substitution (the
    convergence argument of Sec. IV-F); the basic configuration
    restricts to kind 1.
    """
    tables = system.tables
    if tables is not None:
        return _enumerate_packed(system.bits, tables, options)
    exempt = options.growth_exempt_literals
    candidates: list[Candidate] = []
    for target in range(system.num_vars):
        expansion = system.output(target)
        target_bit = bit(target)
        linear_present = expansion.contains_term(target_bit)
        if linear_present and expansion.term_count() == 1:
            # Output already solved; un-solving a line is never
            # productive.
            continue
        factor_terms_used = linear_present or options.extended_substitutions
        if factor_terms_used:
            # Canonical increasing-mask order (iter_terms) so every
            # backend enumerates — and therefore tie-breaks — the same
            # way; the frozenset backend used to iterate in hash order.
            for factor in expansion.iter_terms():
                if factor & target_bit:
                    continue
                candidates.append(
                    Candidate(
                        target=target,
                        factor=factor,
                        allow_growth=popcount(factor) <= exempt,
                    )
                )
        # The complement factor is skipped only when the loop above
        # already emitted it, i.e. when the expansion carries the
        # constant-1 term (CONSTANT_ONE never contains the target bit).
        if options.complement_substitutions and not (
            factor_terms_used and expansion.contains_term(CONSTANT_ONE)
        ):
            candidates.append(
                Candidate(
                    target=target,
                    factor=CONSTANT_ONE,
                    allow_growth=0 <= exempt,
                )
            )
    return candidates


def _enumerate_packed(
    bits: int, tables, options: SynthesisOptions
) -> list[Candidate]:
    """:func:`enumerate_substitutions` on the one-int system state.

    Same candidates in the same order: each target's ``2^n``-bit slice
    is read directly, and factor terms come out lowest bit first, which
    is the canonical increasing-mask order.
    """
    exempt = options.growth_exempt_literals
    extended = options.extended_substitutions
    complement = options.complement_substitutions
    full = tables.expansion.full
    var_masks = tables.expansion.var_masks
    candidates: list[Candidate] = []
    append = candidates.append
    for target, offset in enumerate(tables.offsets):
        output = bits >> offset & full
        target_bit = 1 << target
        linear_present = output >> target_bit & 1
        if linear_present and output == 1 << target_bit:
            # Output already solved (see enumerate_substitutions).
            continue
        factor_terms_used = linear_present or extended
        if factor_terms_used:
            # Factors must not contain the target: one mask drops them.
            factors = output & ~var_masks[target]
            while factors:
                low = factors & -factors
                factors ^= low
                factor = low.bit_length() - 1
                append(
                    Candidate(
                        target=target,
                        factor=factor,
                        allow_growth=factor.bit_count() <= exempt,
                    )
                )
        if complement and not (factor_terms_used and output & 1):
            append(
                Candidate(
                    target=target,
                    factor=CONSTANT_ONE,
                    allow_growth=0 <= exempt,
                )
            )
    return candidates
