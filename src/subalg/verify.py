"""The verification pipeline: closure, commutativity, centralizer, length,
radical bound and sampled lengths of one generating system, each step once.

Only the closure's span chain runs in the n*n matrix coordinates.  Every
later step reads the closure's structure-constant table: commutativity is
its symmetry, maximality one early-exit rank of the centralizer
constraints, and the radical, the samples and the chain of a witness
inside the closure run in the closure's own coordinates, on one
``radical.Algebra``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .commute import MaximalityVerdict, _maximality
from .constructions import GeneratingSystem
from .errors import NotLocalForm
from .exact_linalg import Subspace
from .lengths import LengthReport, _chain, _sample_reports, _target_chain
from .radical import Algebra, RadicalReport, _bound


@dataclass(frozen=True)
class VerificationReport:
    """The verdicts of ``verify_system``.

    ``own`` is the system's chain report; ``measured`` is the chain whose
    length is certified and bounded: the witness's, else ``own``.
    ``radical`` is None when the closure is not scalars plus its radical;
    the bound is then unchecked, and an unchecked bound fails.
    ``sample_lengths`` is None unless samples were drawn.
    """

    closure: Subspace
    own: LengthReport
    maximality: MaximalityVerdict
    measured: LengthReport
    certified: int | None
    radical: RadicalReport | None
    sample_lengths: tuple | None

    @property
    def bound_holds(self) -> bool | None:
        return None if self.radical is None else self.radical.bound_holds

    @property
    def samples_within_bound(self) -> bool:
        return self.sample_lengths is None or all(
            v <= self.radical.nilpotency - 1 for v in self.sample_lengths
        )

    @property
    def passed(self) -> bool:
        return bool(
            self.maximality.is_maximal
            and self.certified in (None, self.measured.length)
            and self.bound_holds is True
            and self.samples_within_bound
        )


def verify_system(
    system: GeneratingSystem,
    *,
    witness: GeneratingSystem | None = None,
    certified: int | None = None,
    samples: int = 0,
    seed: int = 0,
) -> VerificationReport:
    """Every verdict on S and the algebra it generates.

    The witness (S itself when None) must reach exactly ``certified`` steps
    when that is given, and stay within the radical bound.  ``samples``
    seeded random generating systems of the closure are drawn when the
    algebra is maximal and its bound checked, and must stay within it too.
    """
    own, spans = _chain(system)
    closure = spans[-1]
    alg = Algebra(closure)
    maximality = _maximality(system.matrices, alg)
    measured = own if witness is None else _target_chain(witness, alg)
    try:
        radical = _bound(alg.powers, measured.length)
    except NotLocalForm:
        radical = None
    sample_lengths = None
    if samples > 0 and maximality.is_maximal and radical is not None:
        pairs = _sample_reports(alg, samples, seed)
        sample_lengths = tuple(report.length for _, report in pairs)
    return VerificationReport(
        closure, own, maximality, measured, certified, radical, sample_lengths
    )


def bound_check(system: GeneratingSystem) -> RadicalReport:
    """Check length(S) <= N - 1 where N is the radical's nilpotency index."""
    report, spans = _chain(system)
    return _bound(Algebra(spans[-1]).powers, report.length)
