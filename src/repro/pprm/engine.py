"""Backend-agnostic PPRM engine seam.

Everything above the PPRM algebra (search, portfolio, kernels, CLI)
talks to expansions through a :class:`PPRMEngine`: a factory plus the
handful of operations the paper's search actually needs — xor,
``multiply_term``, ``substitute``, canonical term iteration, a
canonical hashable dedupe key, and a serialization form shared by all
backends (the packed big-integer bitset, bit ``t`` set ⇔ term ``t``
present).

Two engines ship:

* ``reference`` — the frozenset algebra of
  :class:`repro.pprm.expansion.Expansion`; the differential oracle.
* ``packed`` — :class:`repro.pprm.packed.PackedExpansion`; one big int
  per expansion, shift/mask substitution, and a whole
  :class:`~repro.pprm.system.PPRMSystem` as one ``n * 2^n``-bit int
  (see ``docs/architecture.md``).

Resolution rules: construction helpers default to ``reference`` so
spec-building code stays backend-stable; the *search* seam
(:func:`resolve_search_engine`) honours ``SynthesisOptions.engine``
first, then the ``RMRLS_ENGINE`` environment variable, then defaults
to ``packed`` — in every case only up to
:data:`~repro.pprm.packed.PACKED_SEARCH_MAX_VARS` variables; wider
systems search on ``reference``.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator, Sequence

from repro.pprm.expansion import Expansion
from repro.pprm.packed import (
    PACKED_SEARCH_MAX_VARS,
    PackedExpansion,
    tables_for,
)
from repro.pprm.transform import mobius_transform

__all__ = [
    "ENGINE_ENV_VAR",
    "ENGINES",
    "PPRMEngine",
    "PackedEngine",
    "ReferenceEngine",
    "default_engine_name",
    "default_search_engine",
    "get_engine",
    "resolve_engine",
    "resolve_search_engine",
]

ENGINE_ENV_VAR = "RMRLS_ENGINE"


class PPRMEngine(ABC):
    """The operations a PPRM backend must provide.

    An "expansion" here is whatever the backend's :meth:`from_terms`
    returns; the search only relies on the shared expansion API
    (``substitute``/``multiply_term``/``__xor__``/queries) plus the
    engine-level constructors and the serialization pair
    :meth:`pack`/:meth:`unpack`.
    """

    name: str

    # -- constructors ---------------------------------------------------

    @abstractmethod
    def zero(self, num_vars: int):
        """Return the constant-0 expansion."""

    @abstractmethod
    def one(self, num_vars: int):
        """Return the constant-1 expansion."""

    @abstractmethod
    def variable(self, index: int, num_vars: int):
        """Return the single-literal expansion ``x_index``."""

    @abstractmethod
    def from_terms(self, terms: Iterable[int], num_vars: int):
        """Build an expansion from term masks (pairs XOR-cancel)."""

    @abstractmethod
    def from_truth_vector(self, values: Sequence[int]):
        """Möbius-transform a truth vector into an expansion."""

    # -- algebra (delegates; here so the protocol is self-contained) ----

    def xor(self, a, b):
        """GF(2) sum of two same-backend expansions."""
        return a ^ b

    def multiply_term(self, a, term: int):
        """Product of an expansion with one term mask."""
        return a.multiply_term(term)

    def substitute(self, a, index: int, factor: int):
        """Apply ``x_index := x_index XOR factor`` to ``a``."""
        return a.substitute(index, factor)

    # -- queries --------------------------------------------------------

    def iter_terms(self, a) -> Iterator[int]:
        """Term masks in the canonical (increasing-mask) order."""
        return a.iter_terms()

    def term_count(self, a) -> int:
        """Number of terms with coefficient 1."""
        return a.term_count()

    def dedupe_key(self, a):
        """Canonical hashable identity for visited-set probes."""
        return a.dedupe_key()

    # -- serialization --------------------------------------------------

    @abstractmethod
    def pack(self, a) -> int:
        """Serialize to the shared wire form: the big-int bitset."""

    @abstractmethod
    def unpack(self, bits: int, num_vars: int):
        """Deserialize the big-int bitset into this backend."""

    # -- conversion -----------------------------------------------------

    @abstractmethod
    def convert(self, expansion, num_vars: int):
        """Re-express an any-backend expansion in this backend."""

    def convert_system(self, system):
        """Return ``system`` with every output in this backend.

        No-op (same object) when the system already uses this engine.
        """
        if system.engine_name == self.name:
            return system
        num_vars = system.num_vars
        return type(system)(
            [self.convert(output, num_vars) for output in system.outputs]
        )

    def unpack_system(self, packed_outputs: Sequence[int], num_vars: int):
        """Rebuild a system from per-output big-int bitsets."""
        from repro.pprm.system import PPRMSystem

        return PPRMSystem(
            [self.unpack(bits, num_vars) for bits in packed_outputs]
        )


class ReferenceEngine(PPRMEngine):
    """The frozenset-of-masks algebra — the differential oracle."""

    name = "reference"

    def zero(self, num_vars: int) -> Expansion:
        return Expansion.zero()

    def one(self, num_vars: int) -> Expansion:
        return Expansion.one()

    def variable(self, index: int, num_vars: int) -> Expansion:
        return Expansion.variable(index)

    def from_terms(self, terms: Iterable[int], num_vars: int) -> Expansion:
        return Expansion(terms)

    def from_truth_vector(self, values: Sequence[int]) -> Expansion:
        coefficients = mobius_transform(list(values))
        return Expansion._make(
            frozenset(
                term for term, coeff in enumerate(coefficients) if coeff
            )
        )

    def pack(self, a: Expansion) -> int:
        bits = 0
        for term in a.terms:
            bits |= 1 << term
        return bits

    def unpack(self, bits: int, num_vars: int) -> Expansion:
        from repro.utils.bitops import bits_of

        return Expansion._make(frozenset(bits_of(bits)))

    def convert(self, expansion, num_vars: int) -> Expansion:
        if isinstance(expansion, Expansion):
            return expansion
        return Expansion._make(frozenset(expansion.iter_terms()))


class PackedEngine(PPRMEngine):
    """The big-integer bitset backend of :mod:`repro.pprm.packed`."""

    name = "packed"

    def zero(self, num_vars: int) -> PackedExpansion:
        return PackedExpansion.zero(num_vars)

    def one(self, num_vars: int) -> PackedExpansion:
        return PackedExpansion.one(num_vars)

    def variable(self, index: int, num_vars: int) -> PackedExpansion:
        return PackedExpansion.variable(index, num_vars)

    def from_terms(
        self, terms: Iterable[int], num_vars: int
    ) -> PackedExpansion:
        return PackedExpansion.from_terms(terms, num_vars)

    def from_truth_vector(self, values: Sequence[int]) -> PackedExpansion:
        coefficients = mobius_transform(list(values))
        num_vars = max(1, (len(values) - 1).bit_length())
        bits = 0
        for term, coeff in enumerate(coefficients):
            if coeff:
                bits |= 1 << term
        return PackedExpansion._make(bits, tables_for(num_vars))

    def pack(self, a: PackedExpansion) -> int:
        return a.bits

    def unpack(self, bits: int, num_vars: int) -> PackedExpansion:
        return PackedExpansion(bits, num_vars)

    def convert(self, expansion, num_vars: int) -> PackedExpansion:
        if isinstance(expansion, PackedExpansion):
            if expansion.num_vars == num_vars:
                return expansion
            return PackedExpansion(expansion.bits, num_vars)
        return PackedExpansion.from_terms(expansion.terms, num_vars)

    def convert_system(self, system):
        """Return ``system`` in the one-int form (same object if it
        already is)."""
        if system.engine_name == self.name:
            return system
        return type(system).from_bits(system.bits, system.num_vars)


ENGINES: dict[str, PPRMEngine] = {
    engine.name: engine for engine in (ReferenceEngine(), PackedEngine())
}


def get_engine(name: str) -> PPRMEngine:
    """Look up an engine by name; raise ``ValueError`` on unknowns."""
    try:
        return ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown PPRM engine {name!r}; "
            f"known: {', '.join(sorted(ENGINES))}"
        ) from None


def default_engine_name() -> str:
    """The construction default: ``$RMRLS_ENGINE`` or ``reference``.

    Searches default to ``packed`` instead; see
    :func:`default_search_engine`.
    """
    name = os.environ.get(ENGINE_ENV_VAR, "").strip().lower()
    if not name:
        return "reference"
    get_engine(name)  # validate eagerly so typos fail loudly
    return name


def resolve_engine(engine=None) -> PPRMEngine:
    """Resolve an engine argument: name, instance, or ``None``.

    ``None`` falls back to :func:`default_engine_name` — the seam used
    wherever a user-facing knob (CLI flag, options field) may be unset.
    """
    if engine is None:
        return ENGINES[default_engine_name()]
    if isinstance(engine, str):
        return get_engine(engine)
    if isinstance(engine, PPRMEngine):
        return engine
    raise TypeError(f"cannot resolve a PPRM engine from {engine!r}")


def default_search_engine() -> PPRMEngine:
    """The search backend when no preference is given, before the
    width guard of :func:`resolve_search_engine`: ``$RMRLS_ENGINE`` if
    set, else ``packed``."""
    if os.environ.get(ENGINE_ENV_VAR, "").strip():
        return ENGINES[default_engine_name()]
    return ENGINES["packed"]


def resolve_search_engine(preference, system) -> PPRMEngine:
    """Pick the backend a search on ``system`` runs on.

    An explicit preference (``SynthesisOptions.engine``) wins, then the
    ``RMRLS_ENGINE`` environment variable, then ``packed`` — the
    one-int system state.  Whichever way ``packed`` is chosen, a system
    wider than :data:`~repro.pprm.packed.PACKED_SEARCH_MAX_VARS`
    searches on ``reference`` instead: the packed encoding is dense in
    the ``2^n`` term space, and on wide, sparse systems it loses to the
    frozenset backend (see the constant for the measurements).
    """
    engine = (
        resolve_engine(preference)
        if preference is not None
        else default_search_engine()
    )
    if engine.name == "packed" and system.num_vars > PACKED_SEARCH_MAX_VARS:
        return ENGINES["reference"]
    return engine
