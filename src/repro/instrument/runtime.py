"""Execution runtimes for instrumented programs.

The runtime plays the role of the paper's injected global variable ``r`` plus
the ``pen`` dispatch (Sect. 3.2, Step 1).  Every conditional test of the
instrumented program is rewritten into calls on an installed runtime:

* :meth:`Runtime.test` evaluates the whole test of a single-comparison
  conditional ``a op b`` in one fused probe: it computes the branch distances
  towards both outcomes (Def. 4.1), applies the ``pen`` update, records
  coverage and returns the Boolean outcome so the program's control flow is
  unchanged.
* :meth:`Runtime.cmp` evaluates one arithmetic comparison inside a Boolean
  combination (``a < b and c < d``) and stashes its distances for
  :meth:`Runtime.resolve`, which composes them, hands them to the installed
  :class:`PenaltyPolicy` (CoverMe's ``pen``) to update ``r``, and records
  branch coverage.
* :meth:`Runtime.tleaf` evaluates a *non-comparison* leaf inside a Boolean
  combination (``_isnan(x) or _isnan(fn)``): the value is promoted to the
  comparison ``value != 0`` (Sect. 5.3) and its distances join the
  composition like any comparison leaf.
* :meth:`Runtime.truth` handles bare non-comparison tests (``if flag:``);
  numeric values are promoted to the comparison ``value != 0`` per Sect. 5.3,
  anything else is recorded for coverage only.

Composition programs
--------------------

Arbitrarily nested Boolean tests (``a or (b and c)``, De-Morganed ``not``,
chained comparisons, ternary tests) are lowered by the AST pass into leaf
probes plus a constant *composition program*: a postfix token tuple executed
by :meth:`Runtime.resolve`.  Tokens are small ints:

* ``token >= 0`` -- push the distance pair stashed for leaf ``token`` (an
  unevaluated or non-numeric leaf pushes "no distance");
* ``token == TREE_NOT`` -- swap the pair on top of the stack (logical
  negation swaps the true/false distances);
* ``token <= -4`` -- reduce the top ``k`` pairs with ``and`` (even tokens,
  ``tree_and(k)``) or ``or`` (odd tokens, ``tree_or(k)``): for ``and`` the
  distance to truth is the sum of the children's (all must hold) and the
  distance to falsity their minimum (falsifying any child suffices); ``or``
  is dual.  Children without a usable distance contribute nothing, which
  matches the information available after short-circuiting.

The Def. 4.2 composition is encoded three times: :func:`_compose_program`
here, the unrolled statements of :mod:`repro.instrument.specialize` and the
C emitter of :mod:`repro.instrument.native`.  All three fold with identical
arithmetic ordering (left-to-right sums, first-wins minima), so composed
distances -- and therefore ``r`` -- stay bit-identical across execution
profiles.

Execution profiles
------------------

Minimizing the representing function issues millions of executions, so
:class:`ExecutionProfile` selects how the optimizer inner loop evaluates it:

* ``PENALTY_NATIVE`` and ``PENALTY_SPECIALIZED`` -- the compiled tiers: the
  program is re-generated with ``pen`` resolved per probe site against the
  current saturation mask (as C or as Python), the paper's code
  transformation of Sect. 3.2.  They return ``r`` plus a partial covered
  bitset and keep no path.
* ``FULL_TRACE`` -- the recording :class:`Runtime`: every conditional
  evaluation is appended to an :class:`ExecutionRecord` as a
  :class:`ConditionalOutcome`, and the penalty is delegated to a pluggable
  :class:`PenaltyPolicy`.  This is the only profile that preserves the
  *path*.

The recording runtime is the reference semantics every tier is tested
against, and it is also how coverage is harvested: an accepted minimum is
replayed once on it (with CoverMe's penalty installed) to obtain the
complete covered set and the last executed conditional.  It stays
policy-agnostic: with ``policy=None`` it only records coverage (this is how
the baseline tools and the Gcov substrate use it).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Protocol

from repro.core.branch_distance import DEFAULT_EPSILON, branch_distance, negate_op

_COMPARISON_OPS = {"==", "!=", "<", "<=", ">", ">="}

#: Large constant distance reported when operands carry no usable gradient
#: (NaN comparisons).  Shared with the specializing compiler tier
#: (:mod:`repro.instrument.specialize`) so the baked-in constants stay
#: bit-identical with the runtime-dispatched ones.
BIG_DISTANCE = 1.0e300

#: Exceptions the program under test may raise (domain errors, overflow
#: surfacing as Python exceptions).  Every tier swallows them so the
#: representing function stays total and the record up to the fault counts.
PROGRAM_ERRORS = (ArithmeticError, ValueError, OverflowError)

#: Composition-program token: logical NOT (swap the distance pair on top).
TREE_NOT = -1


def tree_and(arity: int) -> int:
    """Composition-program token reducing the top ``arity`` pairs with AND."""
    if arity < 2:
        raise ValueError("and/or composition nodes need at least two children")
    return -2 * arity


def tree_or(arity: int) -> int:
    """Composition-program token reducing the top ``arity`` pairs with OR."""
    if arity < 2:
        raise ValueError("and/or composition nodes need at least two children")
    return -2 * arity - 1


class ExecutionProfile(str, enum.Enum):
    """How much information one execution of an instrumented program retains.

    Ordered from cheapest to most expensive; see the module docstring.

    ``PENALTY_SPECIALIZED`` is the compile-time tier: the saturation mask is
    resolved per probe site by :mod:`repro.instrument.specialize` and the
    program re-compiled, so mid-epoch evaluations pay no per-conditional
    runtime dispatch at all.  It computes ``r`` and a *partial* covered
    bitset: both-saturated conditionals have their probes stripped entirely,
    so only unsaturated conditionals record covered bits (sound for the
    optimizer inner loop; accepted minima are replayed on the recording
    :class:`Runtime` to harvest branches).

    ``PENALTY_NATIVE`` goes below that: the specialized lowering is emitted
    as C (:mod:`repro.instrument.native`), compiled with the system ``cc``
    and called through ``ctypes``.  Same contract as ``PENALTY_SPECIALIZED``
    (bit-identical ``r``, partial covered bitset); machines without a C
    compiler -- or programs with non-emittable constructs -- degrade to the
    specialized tier with a one-time warning.
    """

    PENALTY_NATIVE = "penalty-native"
    PENALTY_SPECIALIZED = "penalty-specialized"
    FULL_TRACE = "full-trace"


#: Config-facing names of the execution profiles, cheapest first.
EXECUTION_PROFILES: tuple[str, ...] = tuple(p.value for p in ExecutionProfile)


@dataclass(frozen=True, order=True)
class BranchId:
    """Identifies one branch: conditional label plus outcome (True/False arm)."""

    conditional: int
    outcome: bool

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        arm = "T" if self.outcome else "F"
        return f"{self.conditional}{arm}"

    @property
    def sibling(self) -> "BranchId":
        """The other branch of the same conditional."""
        return BranchId(self.conditional, not self.outcome)

    @property
    def bit(self) -> int:
        """Position of this branch in the flat branch bitsets."""
        return branch_bit(self.conditional, self.outcome)


def branch_bit(conditional: int, outcome: bool) -> int:
    """Flat bit index of a branch: ``2 * conditional + outcome``."""
    return (conditional << 1) | (1 if outcome else 0)


def branch_mask(branches: Iterable[BranchId]) -> int:
    """Pack branches into an integer bitmask (bit :func:`branch_bit` set)."""
    mask = 0
    for branch in branches:
        mask |= 1 << branch.bit
    return mask


def branches_from_mask(mask: int) -> frozenset[BranchId]:
    """Unpack an integer bitmask back into a set of branches."""
    branches: set[BranchId] = set()
    bit = 0
    while mask:
        if mask & 1:
            branches.add(BranchId(bit >> 1, bool(bit & 1)))
        mask >>= 1
        bit += 1
    return frozenset(branches)


@dataclass
class ConditionalOutcome:
    """One dynamic evaluation of a conditional statement's test."""

    conditional: int
    outcome: bool
    distance_true: Optional[float]
    distance_false: Optional[float]

    @property
    def branch(self) -> BranchId:
        return BranchId(self.conditional, self.outcome)


@dataclass
class ExecutionRecord:
    """Everything observed while executing the instrumented program once."""

    path: list[ConditionalOutcome] = field(default_factory=list)
    covered: set[BranchId] = field(default_factory=set)

    def register(self, outcome: ConditionalOutcome) -> None:
        self.path.append(outcome)
        self.covered.add(outcome.branch)

    @property
    def last(self) -> Optional[ConditionalOutcome]:
        return self.path[-1] if self.path else None

    def conditionals_executed(self) -> set[int]:
        return {o.conditional for o in self.path}

    def covered_mask(self) -> int:
        """The covered branches as a flat bitmask (see :func:`branch_bit`)."""
        return branch_mask(self.covered)


@dataclass(frozen=True)
class CoverageOutcome:
    """What the engine's reduction consumes from an accepted minimum.

    The covered-branch set plus the last executed conditional (for the
    infeasible-branch heuristic), distilled from one recorded execution.
    """

    covered: frozenset[BranchId]
    last_conditional: Optional[int]
    last_outcome: Optional[bool]

    def covered_mask(self) -> int:
        return branch_mask(self.covered)


class PenaltyPolicy(Protocol):
    """Interface of the ``pen`` function plugged into the recording runtime."""

    def penalty(
        self,
        conditional: int,
        distance_true: Optional[float],
        distance_false: Optional[float],
        outcome: bool,
        current_r: float,
    ) -> float:
        """Return the new value of the global register ``r``."""
        ...  # pragma: no cover - protocol


class Runtime:
    """The recording (``FULL_TRACE``) runtime: full per-conditional trace.

    Args:
        policy: Penalty policy deciding how ``r`` evolves at each conditional.
            ``None`` means pure coverage recording (``r`` stays at 1).
        epsilon: The small positive constant of Def. 4.1 used for strict
            comparisons.
    """

    def __init__(self, policy: Optional[PenaltyPolicy] = None, epsilon: float = DEFAULT_EPSILON):
        self.policy = policy
        self.epsilon = epsilon
        self._r = 1.0
        self._record: ExecutionRecord = ExecutionRecord()
        self._leaves: dict[int, dict[int, tuple[Optional[float], Optional[float]]]] = {}
        self.total_evaluations = 0

    # -- execution lifecycle -------------------------------------------------

    def begin(self) -> None:
        """Start one execution: reset ``r`` to 1 (Step 2 of the algorithm)."""
        self._r = 1.0
        self._record = ExecutionRecord()
        self._leaves = {}
        self.total_evaluations += 1

    def end(self) -> tuple[float, ExecutionRecord]:
        """Finish one execution, returning the final ``r`` and the record."""
        return self._r, self._record

    @property
    def r(self) -> float:
        """Current value of the injected global register."""
        return self._r

    @property
    def record(self) -> ExecutionRecord:
        return self._record

    # -- probes (called from instrumented code) -------------------------------

    def test(self, conditional: int, op: str, lhs, rhs) -> bool:
        """Fused probe for a single-comparison conditional test.

        Equivalent to ``resolve(c, (0,), cmp(c, op, lhs, rhs, 0))`` but with
        no leaf stash and no composition scan -- the common case pays for
        exactly one probe call.
        """
        if op not in _COMPARISON_OPS:
            raise ValueError(f"unsupported comparison operator {op!r}")
        outcome = _evaluate(op, lhs, rhs)
        d_true, d_false = self._distances(op, lhs, rhs)
        return self._finish(conditional, outcome, d_true, d_false)

    def cmp(self, conditional: int, op: str, lhs, rhs, leaf: int) -> bool:
        """Instrumented comparison leaf inside a Boolean combination test.

        Computes the branch distances of Def. 4.1 towards the true and the
        false outcome, stashes them as composition-program leaf ``leaf`` for
        :meth:`resolve`, and returns the outcome of the comparison so program
        semantics are preserved.
        """
        if op not in _COMPARISON_OPS:
            raise ValueError(f"unsupported comparison operator {op!r}")
        outcome = _evaluate(op, lhs, rhs)
        self._leaves.setdefault(conditional, {})[leaf] = self._distances(op, lhs, rhs)
        return outcome

    def tleaf(self, conditional: int, leaf: int, value, negated: bool = False) -> bool:
        """Non-comparison leaf inside a composition tree.

        The value is promoted exactly like :meth:`truth` (numbers compare
        against 0, Booleans get epsilon distances, anything else contributes
        no distance); ``negated`` folds a De-Morganed ``not`` into the leaf.
        """
        outcome, d_true, d_false = self._promoted(value)
        if negated:
            outcome = not outcome
            d_true, d_false = d_false, d_true
        self._leaves.setdefault(conditional, {})[leaf] = (d_true, d_false)
        return outcome

    def truth(self, conditional: int, value) -> bool:
        """Instrumented non-comparison test (e.g. ``if flag:``).

        Numeric values are promoted to the comparison ``value != 0``
        (Sect. 5.3); other values -- including ``int``s too large for
        ``float()`` -- only get coverage recording.
        """
        outcome, d_true, d_false = self._promoted(value)
        return self._finish(conditional, outcome, d_true, d_false)

    def resolve(self, conditional: int, program: tuple[int, ...], outcome) -> bool:
        """Finalize the evaluation of ``conditional``'s test.

        ``program`` is the postfix composition program (a token tuple, see
        the module docstring) over the leaves stashed by :meth:`cmp` and
        :meth:`tleaf`.  The composed distances are handed to the penalty
        policy which updates ``r``; the branch taken is added to the coverage
        record.
        """
        d_true, d_false = _compose_program(program, self._leaves.pop(conditional, {}))
        return self._finish(conditional, bool(outcome), d_true, d_false)

    # -- internals -------------------------------------------------------------

    def _promoted(self, value) -> tuple[bool, Optional[float], Optional[float]]:
        """Truthiness outcome plus the Sect. 5.3 promoted distance pair."""
        outcome = bool(value)
        if isinstance(value, bool):
            d_true: Optional[float] = 0.0 if outcome else self.epsilon
            d_false: Optional[float] = self.epsilon if outcome else 0.0
        elif isinstance(value, (int, float)):
            # _distances converts to float itself and degrades to coverage-only
            # recording when the conversion fails (e.g. OverflowError on a
            # huge int).
            d_true, d_false = self._distances("!=", value, 0.0)
        else:
            d_true, d_false = None, None
        return outcome, d_true, d_false

    def _finish(
        self,
        conditional: int,
        outcome: bool,
        d_true: Optional[float],
        d_false: Optional[float],
    ) -> bool:
        """Apply the penalty policy and record one conditional evaluation."""
        if self.policy is not None and (d_true is not None or d_false is not None):
            self._r = float(
                self.policy.penalty(conditional, d_true, d_false, outcome, self._r)
            )
        self._record.register(
            ConditionalOutcome(
                conditional=conditional,
                outcome=outcome,
                distance_true=d_true,
                distance_false=d_false,
            )
        )
        return outcome

    def _distances(self, op: str, lhs, rhs) -> tuple[Optional[float], Optional[float]]:
        try:
            a = float(lhs)
            b = float(rhs)
        except (TypeError, ValueError, OverflowError):
            # OverflowError: an ``int`` beyond float range (satellite of the
            # Sect. 5.3 promotion); treat like any other incomparable value.
            return None, None
        if math.isnan(a) or math.isnan(b):
            # NaN comparisons are all-false except ``!=``; there is no usable
            # gradient, so report a large constant distance.
            big = BIG_DISTANCE
            return (0.0, big) if op == "!=" else (big, 0.0)
        d_true = branch_distance(op, a, b, self.epsilon)
        d_false = branch_distance(negate_op(op), a, b, self.epsilon)
        return d_true, d_false


class RuntimeHandle:
    """Mutable holder through which instrumented code reaches the runtime.

    The instrumented module namespace closes over one handle; swapping the
    installed runtime lets many measurements reuse the same compiled code.
    :meth:`install` rebinds the probe methods directly to the installed
    runtime's bound methods, so the per-probe forwarding cost is zero.
    """

    def __init__(self) -> None:
        self._runtime: Optional[Runtime] = None

    def install(self, runtime: Runtime) -> None:
        self._runtime = runtime
        # Instance attributes shadow the class-level fallbacks below, making
        # every probe a direct call on the runtime.
        self.test = runtime.test
        self.cmp = runtime.cmp
        self.tleaf = runtime.tleaf
        self.truth = runtime.truth
        self.resolve = runtime.resolve

    @property
    def runtime(self) -> Runtime:
        if self._runtime is None:
            raise RuntimeError("no Runtime installed on this handle")
        return self._runtime

    # Class-level fallbacks: reached only before the first install().
    def test(self, conditional: int, op: str, lhs, rhs) -> bool:
        return self.runtime.test(conditional, op, lhs, rhs)

    def cmp(self, conditional: int, op: str, lhs, rhs, leaf: int) -> bool:
        return self.runtime.cmp(conditional, op, lhs, rhs, leaf)

    def tleaf(self, conditional: int, leaf: int, value, negated: bool = False) -> bool:
        return self.runtime.tleaf(conditional, leaf, value, negated)

    def truth(self, conditional: int, value) -> bool:
        return self.runtime.truth(conditional, value)

    def resolve(self, conditional: int, program: tuple[int, ...], outcome) -> bool:
        return self.runtime.resolve(conditional, program, outcome)


def _evaluate(op: str, lhs, rhs) -> bool:
    if op == "==":
        return lhs == rhs
    if op == "!=":
        return lhs != rhs
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    if op == ">=":
        return lhs >= rhs
    raise ValueError(f"unsupported comparison operator {op!r}")


def _compose_program(
    program: tuple[int, ...],
    leaves: dict[int, tuple[Optional[float], Optional[float]]],
) -> tuple[Optional[float], Optional[float]]:
    """Execute a postfix composition program over stashed leaf distances.

    For ``A and B`` the distance to truth adds the children's distances (all
    must hold) while the distance to falsity is the smallest one (falsifying
    any child suffices); ``or`` is dual.  Children without a usable pair
    (short-circuited or non-numeric) contribute nothing, which matches the
    information available dynamically, and a node whose children are all
    unusable is itself unusable.  The arithmetic (left-to-right sums,
    first-wins minima) is ordered identically in the specialized and native
    tiers so every tier composes bit-identical distances.
    """
    stack: list[Optional[tuple[float, float]]] = []
    for token in program:
        if token >= 0:
            pair = leaves.get(token)
            if pair is not None and pair[0] is None:
                pair = None
            stack.append(pair)  # type: ignore[arg-type]
        elif token == TREE_NOT:
            if not stack:
                raise ValueError("malformed composition program: NOT on empty stack")
            pair = stack[-1]
            if pair is not None:
                stack[-1] = (pair[1], pair[0])
        else:
            arity = (-token) >> 1
            if arity < 2 or arity > len(stack):
                raise ValueError(f"malformed composition program token {token}")
            is_or = (-token) & 1
            base = len(stack) - arity
            d_true: Optional[float] = None
            d_false: Optional[float] = None
            for index in range(base, len(stack)):
                pair = stack[index]
                if pair is None:
                    continue
                t, f = pair
                if d_true is None:
                    d_true, d_false = t, f
                elif is_or:
                    if t < d_true:
                        d_true = t
                    d_false = d_false + f  # type: ignore[operator]
                else:
                    d_true = d_true + t
                    if f < d_false:  # type: ignore[operator]
                        d_false = f
            del stack[base:]
            stack.append(None if d_true is None else (d_true, d_false))  # type: ignore[arg-type]
    if len(stack) != 1:
        raise ValueError("malformed composition program: non-singleton result")
    final = stack[0]
    if final is None:
        return None, None
    return final
