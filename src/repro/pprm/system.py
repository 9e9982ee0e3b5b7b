"""Multi-output PPRM systems — the state of the RMRLS search.

A :class:`PPRMSystem` holds one expansion per output variable
``v_out,i`` (each written over the input variables).  The search
applies substitutions ``v_i := v_i XOR factor`` to all outputs at once
(one Toffoli gate acts on the whole bus) and terminates when the system
equals the identity, ``v_out,i = v_i`` for every ``i``.

A system is stored in one of two forms:

* ``packed`` — the whole system is one ``n * 2^n``-bit integer, output
  ``i`` in bits ``[i * 2^n, (i + 1) * 2^n)`` (see
  :class:`repro.pprm.packed.SystemTables`).  Substitution is one set of
  shift/mask folds, the term count one popcount, the identity test one
  integer compare and the dedupe key the integer itself.  Per-output
  :class:`~repro.pprm.packed.PackedExpansion` views are built only when
  asked for.
* ``reference`` — a tuple of frozenset
  :class:`~repro.pprm.expansion.Expansion` objects: the differential
  oracle, and the search state of systems too wide for the dense
  encoding.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.pprm.expansion import Expansion
from repro.pprm.packed import (
    PackedExpansion,
    fold_substitution,
    system_tables_for,
)
from repro.pprm.term import format_term, variable_name
from repro.pprm.transform import expansion_to_truth_vector

__all__ = ["PPRMSystem"]


def _construction_engine(engine):
    """Resolve a construction-time engine argument.

    Unlike the search seam, spec *construction* defaults to the
    ``reference`` backend even when ``RMRLS_ENGINE`` is set, so tests
    and tools that compare against concrete :class:`Expansion` values
    stay backend-stable; the env var takes effect when a search
    converts its input system (see
    :func:`repro.pprm.engine.resolve_search_engine`).
    """
    from repro.pprm.engine import resolve_engine

    return resolve_engine(engine if engine is not None else "reference")


def _term_bits(expansion) -> int:
    """An expansion's terms as one bitset (bit ``t`` ⇔ term ``t``)."""
    bits = 0
    for term in expansion.terms:
        bits |= 1 << term
    return bits


class PPRMSystem:
    """An immutable system of per-output PPRM expansions.

    The number of outputs always equals the number of input variables
    (reversible functions are square), and output ``i`` corresponds to
    input variable ``i``.  Outputs given as
    :class:`~repro.pprm.packed.PackedExpansion` objects (all of them)
    are packed into the one-int form; reference expansions are kept as
    a tuple.
    """

    # ``_tables`` is None for the tuple form; for the one-int form it
    # holds the SystemTables, ``_bits`` the state and ``_outputs`` the
    # lazily built per-output views.
    __slots__ = ("_outputs", "_bits", "_tables")

    def __init__(self, outputs: Sequence[Expansion]):
        outputs = tuple(outputs)
        if not outputs:
            raise ValueError("a PPRM system needs at least one output")
        if isinstance(outputs[0], PackedExpansion):
            tables = system_tables_for(len(outputs))
            self._bits = tables.join(output.bits for output in outputs)
            self._tables = tables
            self._outputs = None
        else:
            self._outputs = outputs
            self._bits = None
            self._tables = None

    @classmethod
    def _packed(cls, bits: int, tables) -> "PPRMSystem":
        # Trusted fast path for search results: the folds never leave
        # the n * 2^n-bit range.
        self = object.__new__(cls)
        self._bits = bits
        self._tables = tables
        self._outputs = None
        return self

    @classmethod
    def from_bits(cls, bits: int, num_vars: int) -> "PPRMSystem":
        """Build a packed system from its one-int state (see
        :attr:`bits`)."""
        tables = system_tables_for(num_vars)
        if not isinstance(bits, int) or bits < 0 or bits.bit_length() > (
            num_vars * tables.size
        ):
            raise ValueError(
                f"bits must be an int in [0, 2^{num_vars * tables.size}) "
                f"for num_vars={num_vars}"
            )
        return cls._packed(bits, tables)

    # -- constructors -----------------------------------------------------

    @classmethod
    def identity(cls, num_vars: int, engine=None) -> "PPRMSystem":
        """Return the identity system ``v_out,i = v_i``.

        ``engine`` selects the expansion backend (name or
        :class:`~repro.pprm.engine.PPRMEngine`); ``None`` means the
        ``reference`` backend so that spec construction stays stable
        regardless of the search-time engine choice.
        """
        engine = _construction_engine(engine)
        return cls([engine.variable(i, num_vars) for i in range(num_vars)])

    @classmethod
    def from_permutation(cls, images: Sequence[int], engine=None) -> "PPRMSystem":
        """Build the PPRM system of a reversible specification.

        ``images[m]`` is the output assignment for input assignment
        ``m``; bit ``i`` of each integer is variable ``i``.  The
        bijectivity of ``images`` is *not* checked here (use
        :class:`repro.functions.Permutation` for validated
        specifications) so that experiment code can also expand
        non-bijective systems for analysis.  ``engine`` picks the
        expansion backend (``None`` = ``reference``).
        """
        engine = _construction_engine(engine)
        size = len(images)
        num_vars = (size - 1).bit_length()
        if size != 1 << num_vars or size < 2:
            raise ValueError(f"specification length must be a power of two >= 2")
        outputs = []
        for index in range(num_vars):
            vector = [images[m] >> index & 1 for m in range(size)]
            outputs.append(engine.from_truth_vector(vector))
        return cls(outputs)

    # -- queries -----------------------------------------------------------

    @property
    def num_vars(self) -> int:
        """Number of input variables (equals the number of outputs)."""
        if self._tables is not None:
            return self._tables.num_vars
        return len(self._outputs)

    @property
    def outputs(self) -> tuple[Expansion, ...]:
        """The per-output expansions, indexed by output variable."""
        outputs = self._outputs
        if outputs is None:
            tables = self._tables
            expansion_tables = tables.expansion
            outputs = self._outputs = tuple(
                PackedExpansion._make(part, expansion_tables)
                for part in tables.split(self._bits)
            )
        return outputs

    def output(self, index: int) -> Expansion:
        """Return the expansion of output variable ``index``."""
        return self.outputs[index]

    @property
    def bits(self) -> int:
        """The one-int state: output ``i`` in bits
        ``[i * 2^n, (i + 1) * 2^n)``, bit ``t`` of a slice set exactly
        when term ``t`` is present.  Computed for the tuple form."""
        if self._tables is not None:
            return self._bits
        return system_tables_for(self.num_vars).join(self.packed_outputs())

    @property
    def tables(self):
        """The :class:`~repro.pprm.packed.SystemTables` of the one-int
        form, or ``None`` for the tuple form."""
        return self._tables

    def packed_outputs(self) -> list[int]:
        """Per-output big-int bitsets — the engine-agnostic wire form
        (:meth:`repro.pprm.engine.PPRMEngine.pack` of each output)."""
        if self._tables is not None:
            return self._tables.split(self._bits)
        return [_term_bits(output) for output in self._outputs]

    @property
    def engine_name(self) -> str:
        """Name of the backend the system is stored in."""
        return "reference" if self._tables is None else "packed"

    @property
    def engine(self):
        """The :class:`~repro.pprm.engine.PPRMEngine` of the outputs."""
        from repro.pprm.engine import ENGINES

        return ENGINES[self.engine_name]

    def dedupe_key(self):
        """Canonical hashable identity for search visited tables.

        The one-int state itself for the packed form; a tuple of
        per-output term frozensets for the reference form.  The two
        forms produce distinct but internally consistent keys, and a
        search never mixes forms in one table.
        """
        if self._tables is not None:
            return self._bits
        return tuple(output.dedupe_key() for output in self._outputs)

    def term_count(self) -> int:
        """Total number of terms across all outputs (the paper's
        ``terms`` node field)."""
        if self._tables is not None:
            return self._bits.bit_count()
        return sum(len(expansion) for expansion in self._outputs)

    def is_identity(self) -> bool:
        """Return ``True`` when every output equals its own variable."""
        if self._tables is not None:
            return self._bits == self._tables.identity
        return all(
            expansion.is_variable(index)
            for index, expansion in enumerate(self._outputs)
        )

    def solved_outputs(self) -> int:
        """Return how many outputs already equal their own variable."""
        tables = self._tables
        if tables is not None:
            bits = self._bits
            full = tables.expansion.full
            solved = 0
            for offset, identity in zip(tables.offsets, tables.identity_parts):
                if bits >> offset & full == identity:
                    solved += 1
            return solved
        return sum(
            1
            for index, expansion in enumerate(self._outputs)
            if expansion.is_variable(index)
        )

    # -- search operations ---------------------------------------------------

    def substitute(self, index: int, factor: int) -> "PPRMSystem":
        """Apply ``v_index := v_index XOR factor`` to every output.

        This is the algebraic effect of composing the specification with
        a Toffoli gate whose target is ``v_index`` and whose controls are
        the literals of ``factor``.
        """
        tables = self._tables
        if tables is None:
            return PPRMSystem(
                [expansion.substitute(index, factor) for expansion in self._outputs]
            )
        var = 1 << index
        if factor & var:
            raise ValueError(
                f"factor {format_term(factor)} contains the target "
                f"variable {format_term(var)}"
            )
        if index >= tables.num_vars or factor >= tables.size:
            raise ValueError(
                f"substitution x{index} ^= {format_term(factor)} exceeds "
                f"num_vars={tables.num_vars}"
            )
        moved = fold_substitution(
            self._bits, var, factor, tables.tiled or tables.tile()
        )
        if not moved:
            return self
        return PPRMSystem._packed(self._bits ^ moved, tables)

    # -- conversions -----------------------------------------------------------

    def to_images(self) -> list[int]:
        """Evaluate the system on every assignment.

        Returns the ``images`` list such that ``images[m]`` is the output
        assignment for input ``m`` (the inverse of
        :meth:`from_permutation` for reversible systems).
        """
        size = 1 << self.num_vars
        images = [0] * size
        for index, expansion in enumerate(self.outputs):
            vector = expansion_to_truth_vector(expansion, self.num_vars)
            for m in range(size):
                images[m] |= vector[m] << index
        return images

    def evaluate(self, assignment: int) -> int:
        """Return the output assignment for one input assignment."""
        result = 0
        for index, expansion in enumerate(self.outputs):
            result |= expansion.evaluate(assignment) << index
        return result

    # -- dunder -------------------------------------------------------------------

    def __iter__(self) -> Iterator[Expansion]:
        return iter(self.outputs)

    def __len__(self) -> int:
        return self.num_vars

    def __eq__(self, other) -> bool:
        if not isinstance(other, PPRMSystem):
            return NotImplemented
        if self._tables is not None and other._tables is not None:
            return (
                self._bits == other._bits
                and self._tables.num_vars == other._tables.num_vars
            )
        return self.outputs == other.outputs

    def __hash__(self) -> int:
        if self._tables is not None:
            return hash(self._bits)
        return hash(self._outputs)

    def __str__(self) -> str:
        lines = []
        outputs = self.outputs
        for index in reversed(range(self.num_vars)):
            name = variable_name(index)
            lines.append(f"{name}_out = {outputs[index]}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        body = ", ".join(repr(str(expansion)) for expansion in self.outputs)
        return f"PPRMSystem([{body}])"
