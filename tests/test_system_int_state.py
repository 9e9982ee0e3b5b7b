"""Property tests: the one-int packed system state against the oracle.

A packed :class:`PPRMSystem` is one ``n * 2^n``-bit integer; the
reference backend keeps one frozenset expansion per output and is the
ground truth.  Every property drives both through the same random
permutation and the same random sequence of legal substitutions
(``n = 1..6``), then demands identical answers from the search-facing
queries.  A walk is followed by its own reverse — each substitution is
an involution — so states recur and the dedupe-key property sees equal
pairs as well as distinct ones.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pprm import PPRMSystem
from repro.synth.options import SynthesisOptions
from repro.synth.substitutions import enumerate_substitutions

#: Option sets whose candidate lists must agree: the defaults, the
#: basic kind-1 search, kind 1 plus complements, and the paper's
#: stricter growth exemption.
ENUMERATION_OPTIONS = (
    SynthesisOptions(),
    SynthesisOptions(
        extended_substitutions=False, complement_substitutions=False
    ),
    SynthesisOptions(extended_substitutions=False),
    SynthesisOptions(growth_exempt_literals=0),
)


@st.composite
def walks(draw):
    """A permutation over ``n`` variables and a legal substitution walk
    followed by its reverse."""
    num_vars = draw(st.integers(1, 6))
    images = draw(st.permutations(list(range(1 << num_vars))))
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_vars - 1),
                st.integers(0, (1 << num_vars) - 1),
            ),
            max_size=6,
        )
    )
    walk = [(target, factor & ~(1 << target)) for target, factor in steps]
    return images, walk + walk[::-1]


def _states(images, walk):
    """The (reference, packed) system pairs visited along ``walk``."""
    reference = PPRMSystem.from_permutation(images)
    packed = PPRMSystem.from_permutation(images, engine="packed")
    pairs = [(reference, packed)]
    for target, factor in walk:
        reference = reference.substitute(target, factor)
        packed = packed.substitute(target, factor)
        pairs.append((reference, packed))
    return pairs


def _candidates(system, options):
    return [
        (c.target, c.factor, c.allow_growth)
        for c in enumerate_substitutions(system, options)
    ]


class TestIntStateMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(walks())
    def test_queries_agree(self, case):
        for reference, packed in _states(*case):
            assert packed.engine_name == "packed"
            assert reference.engine_name == "reference"
            assert packed.term_count() == reference.term_count()
            assert packed.is_identity() == reference.is_identity()
            assert packed.solved_outputs() == reference.solved_outputs()
            assert packed.packed_outputs() == reference.packed_outputs()
            assert packed.bits == reference.bits
            assert str(packed) == str(reference)

    @settings(max_examples=60, deadline=None)
    @given(walks())
    def test_dedupe_keys_equal_exactly_when_oracle_systems_are(self, case):
        pairs = _states(*case)
        for ref_a, packed_a in pairs:
            assert isinstance(packed_a.dedupe_key(), int)
            for ref_b, packed_b in pairs:
                assert (packed_a.dedupe_key() == packed_b.dedupe_key()) == (
                    ref_a == ref_b
                )
                assert (packed_a == packed_b) == (ref_a == ref_b)

    @settings(max_examples=60, deadline=None)
    @given(walks())
    def test_candidate_lists_are_identical(self, case):
        for reference, packed in _states(*case):
            for options in ENUMERATION_OPTIONS:
                assert _candidates(packed, options) == _candidates(
                    reference, options
                )

    @settings(max_examples=40, deadline=None)
    @given(walks())
    def test_images_and_evaluate_round_trip(self, case):
        images, walk = case
        for reference, packed in _states(images, walk):
            table = packed.to_images()
            assert table == reference.to_images()
            assert sorted(table) == list(range(len(images)))
            assert [packed.evaluate(m) for m in range(len(table))] == table
            rebuilt = PPRMSystem.from_permutation(table, engine="packed")
            assert rebuilt == packed
            assert hash(rebuilt) == hash(packed)
        # The walk and its reverse return to the specification.
        assert packed.to_images() == list(images)


class TestIntStateConstruction:
    def test_per_output_packed_expansions_become_one_int(self):
        system = PPRMSystem.from_permutation(
            [1, 0, 7, 2, 3, 4, 5, 6], engine="packed"
        )
        assert system.tables is not None
        again = PPRMSystem(system.outputs)
        assert again.dedupe_key() == system.dedupe_key()
        assert PPRMSystem.from_bits(system.bits, 3) == system

    def test_identity_is_one_compare(self):
        system = PPRMSystem.identity(4, engine="packed")
        assert system.bits == system.tables.identity
        assert system.is_identity()
        assert system.solved_outputs() == 4

    def test_from_bits_rejects_out_of_range_state(self):
        with pytest.raises(ValueError, match="bits must be"):
            PPRMSystem.from_bits(1 << (3 * 8), 3)
        with pytest.raises(ValueError, match="bits must be"):
            PPRMSystem.from_bits(-1, 3)

    def test_substitution_errors_match_the_oracle(self):
        images = [1, 0, 7, 2, 3, 4, 5, 6]
        reference = PPRMSystem.from_permutation(images)
        packed = PPRMSystem.from_permutation(images, engine="packed")
        with pytest.raises(ValueError) as ref_error:
            reference.substitute(0, 3)
        with pytest.raises(ValueError) as packed_error:
            packed.substitute(0, 3)
        assert str(ref_error.value) == str(packed_error.value)
