"""Bipartite no-signalling boxes in probability and correlator/marginal form.

Conventions used throughout the package:

* Inputs and outputs are bits. Joint inputs ``xy`` and joint outputs ``ab``
  are always ordered ``00, 01, 10, 11``.
* A box is the 4x4 row-stochastic array ``p[xy, ab] = p(ab | xy)``.
* The correlator form carries the four local marginal biases and the four
  correlators of a box:

  - ``alpha = E(x=0)``, ``beta = E(x=1)``: Alice's marginal bias
    ``E_x = p(a=0|x) - p(a=1|x)``,
  - ``gamma = E(y=0)``, ``omega = E(y=1)``: same for Bob,
  - ``d1, d2, d3, eps``: correlators ``E_xy = E[(-1)^(a xor b)]`` on inputs
    ``00, 01, 10, 11``.

  The two forms are linked by the exact decomposition

  ``p(ab|xy) = (1 + (-1)^a E_x + (-1)^b E_y + (-1)^(a xor b) E_xy) / 4``

  which row-normalizes identically for any parameter values; validity
  (entrywise nonnegativity) is a separate, explicit check.
* The CHSH value of a box is ``V = d1 + d2 + d3 - eps``, i.e. the XOR-game
  value for the AND predicate, where a positive correlator is a bias toward
  equal outputs. The PR box ``(d1,d2,d3,eps) = (1,1,1,-1)`` attains V = 4.

Construction is total: building a box or a correlator form never validates.
Every operation that consumes a box as a probability object validates first
(callers that want report-style behavior use :func:`validate_box` directly).
Each reading of a box is one kernel over stacks p[..., 4, 4]; a box is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidBox, UnknownKind

INPUT_ORDER = ("00", "01", "10", "11")

# Tolerance of every validity check.
VALIDITY_TOL = 1e-9


@dataclass(frozen=True)
class CorrelatorForm:
    """Marginal biases and correlators of a bipartite box.

    Fields are plain reals in [-1, 1]. A CorrelatorForm may describe an
    invalid box (some induced probability negative); use
    :func:`validate_box` on the induced box to check.
    """

    alpha: float
    beta: float
    gamma: float
    omega: float
    d1: float
    d2: float
    d3: float
    eps: float

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            v = float(value)
            if not -1.0 <= v <= 1.0:
                raise ValueError(f"CorrelatorForm field {name}={v} outside [-1, 1]")

    def as_dict(self) -> dict[str, float]:
        """The eight fields by name, in CORRELATOR_FIELDS order."""
        return {name: getattr(self, name) for name in CORRELATOR_FIELDS}


# The field names in declaration order: the order of the positional
# constructor, of as_dict, and of every file and printout that lists them.
CORRELATOR_FIELDS = tuple(field.name for field in fields(CorrelatorForm))


class BipartiteBox:
    """A 4x4 conditional distribution p(ab|xy), the ground-truth representation.

    Rows are joint inputs, columns joint outputs, both in order 00,01,10,11.
    The array is copied and frozen at construction; instances are safe to
    share across threads.
    """

    __slots__ = ("p",)

    def __init__(self, p: np.ndarray) -> None:
        arr = np.array(p, dtype=float)
        if arr.shape != (4, 4):
            raise ValueError(f"box array must be 4x4, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("BipartiteBox is immutable")

    def __repr__(self) -> str:
        rows = "; ".join(
            f"{xy}->({', '.join(f'{v:.6g}' for v in self.p[i])})"
            for i, xy in enumerate(INPUT_ORDER)
        )
        return f"BipartiteBox({rows})"

    def __eq__(self, other) -> bool:
        return isinstance(other, BipartiteBox) and np.array_equal(self.p, other.p)

    def __hash__(self) -> int:
        return hash(self.p.tobytes())


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_box: valid iff violations is empty.

    Each violation is a (constraint-name, magnitude) pair; magnitude is the
    size of the worst breach of that constraint.
    """

    valid: bool
    violations: tuple[tuple[str, float], ...]


# Sign tables for the decomposition: SIGN_A[ab] = (-1)^a etc.
_SIGN_A = np.array([+1, +1, -1, -1], dtype=float)
_SIGN_B = np.array([+1, -1, +1, -1], dtype=float)
_SIGN_AB = _SIGN_A * _SIGN_B
# Output-marginal indicators: p[xy] @ _MARGINALS = (p(a=0), p(a=1), p(b=0), p(b=1)).
_MARGINALS = np.stack([1 + _SIGN_A, 1 - _SIGN_A, 1 + _SIGN_B, 1 - _SIGN_B], axis=1) / 2
# No-signalling pairs: marginal[xy, c] must equal marginal[_PARTNER[xy, c], c].
_PARTNER, _COLUMN = np.array([[1, 1, 2, 2], [0, 0, 3, 3], [3, 3, 0, 0], [2, 2, 1, 1]]), np.arange(4)
# The constraints of validate_box, in report order.
_CHECKS = ("negativity", "normalization", "no-signalling-to-alice", "no-signalling-to-bob")


def boxes_from_fields(fields: np.ndarray) -> np.ndarray:
    """Probabilities p[..., 4, 4] of correlator fields[..., 8]; total, callers validate."""
    # per joint input xy: Alice's bias on x, Bob's on y, the correlator on xy
    ea, eb, exy = (fields[..., i, None] for i in ([0, 0, 1, 1], [2, 3, 2, 3], slice(4, 8)))
    return (1.0 + _SIGN_A * ea + _SIGN_B * eb + _SIGN_AB * exy) / 4.0


def box_from_correlators(c: CorrelatorForm) -> BipartiteBox:
    """Build the box induced by a correlator form via the exact decomposition."""
    return BipartiteBox(boxes_from_fields(np.array(list(c.as_dict().values()), dtype=float)))


def _correlators(p: np.ndarray) -> np.ndarray:
    """Clipped correlators E_xy[..., 4] of boxes p[..., 4, 4], each summed left to right."""
    return np.clip(p[..., 0] - p[..., 1] - p[..., 2] + p[..., 3], -1.0, 1.0)


def fields_from_boxes(p: np.ndarray) -> np.ndarray:
    """Clipped correlator fields[..., 8] of boxes p[..., 4, 4], inverting boxes_from_fields.

    Sums run left to right; each marginal bias is the mean over the other
    player's input, which averages tolerance-level noise. Callers validate.
    """
    q0, q1, q2, q3 = (p[..., ab] for ab in range(4))  # [..., xy]
    ea, eb = q0 + q1 - q2 - q3, q0 - q1 + q2 - q3  # (alpha, beta) over y, (gamma, omega) over x
    marginals = np.concatenate((ea[..., [0, 2]] + ea[..., [1, 3]], eb[..., :2] + eb[..., 2:]), -1)
    return np.concatenate((np.clip(marginals / 2, -1.0, 1.0), _correlators(p)), -1)


def correlators_from_box(b: BipartiteBox) -> CorrelatorForm:
    """fields_from_boxes of one box, validated first (InvalidBox); exact to 1e-12 under noise."""
    require_valid(b, "cannot extract correlators")
    return CorrelatorForm(*fields_from_boxes(b.p).tolist())


def box_breaches(p: np.ndarray) -> np.ndarray:
    """Worst breach of each constraint of validate_box, p[..., 4, 4] -> [..., 4].

    No-signalling: each player's output marginal is independent of the
    other player's input. A nan entry gives nan breaches.
    """
    marginal = p @ _MARGINALS  # [..., xy, (a=0, a=1, b=0, b=1)]
    out = np.empty(p.shape[:-2] + (len(_CHECKS),))
    out[..., 0] = -p.min(axis=(-2, -1))
    out[..., 1] = np.abs(p.sum(axis=-1) - 1.0).max(axis=-1)
    drift = np.abs(marginal - marginal[..., _PARTNER, _COLUMN])
    out[..., 2:] = drift.reshape(*p.shape[:-2], 4, 2, 2).max(axis=(-3, -1))  # Alice's, Bob's
    return out


def _violations(breaches: np.ndarray) -> tuple[tuple[str, float], ...]:
    # written as `not <=` so that a nan breach fails its check
    return tuple((n, v) for n, v in zip(_CHECKS, breaches.tolist()) if not v <= VALIDITY_TOL)


def validate_box(b: BipartiteBox) -> ValidationReport:
    """Report every violated box constraint with its magnitude.

    Checks, in order: entrywise nonnegativity (>= -VALIDITY_TOL), row
    normalization (sum 1 within VALIDITY_TOL), and no-signalling in both
    directions (within VALIDITY_TOL); see box_breaches.
    """
    violations = _violations(box_breaches(b.p))
    return ValidationReport(valid=not violations, violations=violations)


def require_valid(b: BipartiteBox, message: str, error: type[Exception] = InvalidBox):
    """b if it passes validate_box, else error(f"{message}: {violations}"); a stack of one."""
    require_valid_stack(b.p, message, error)
    return b


def require_valid_stack(p: np.ndarray, message: str, error: type[Exception] = InvalidBox):
    """p if every box of p[..., 4, 4] is valid, else require_valid's error for the first."""
    breaches = box_breaches(p).reshape(-1, len(_CHECKS))
    if not (breaches <= VALIDITY_TOL).all():  # a nan breach fails
        raise error(f"{message}: {next(filter(None, map(_violations, breaches)))}")
    return p


def chsh_value(c: CorrelatorForm) -> float:
    """CHSH value V = d1 + d2 + d3 - eps. Independent of the marginals."""
    return c.d1 + c.d2 + c.d3 - c.eps


def chsh_values(p: np.ndarray) -> np.ndarray:
    """chsh_value(correlators_from_box(b)) per box of p[..., 4, 4], to the bit; callers validate."""
    e = _correlators(p)
    return e[..., 0] + e[..., 1] + e[..., 2] - e[..., 3]


def chsh_value_of_box(b: BipartiteBox) -> float:
    """CHSH value computed from a probability box (validates first)."""
    return float(chsh_values(require_valid(b, "cannot extract correlators").p))


# Parameter names of each named family, and the eight fields they fill in
# CORRELATOR_FIELDS order.
_NAMED_FAMILIES = {
    "isotropic": (("delta",), lambda d: (0.0, 0.0, 0.0, 0.0, d, d, d, -d)),
    "correlated": (("alpha", "eps"), lambda a, e: (a, a, a, a, 1.0, 1.0, 1.0, e)),
    "symmetric": (
        ("alpha", "beta", "delta", "eps"),
        lambda a, b, d, e: (a, b, a, b, d, d, d, e),
    ),
    "general": (CORRELATOR_FIELDS, lambda *values: values),
}


def make_named_box(kind: str, **params: float) -> CorrelatorForm:
    """Construct one of the named box families.

    kind and parameters:

    * ``isotropic(delta)``: trivial marginals, correlators
      ``(delta, delta, delta, -delta)``; value 4*delta.
    * ``correlated(alpha, eps)``: all four marginals ``alpha``, correlators
      ``(1, 1, 1, eps)``. The binding validity constraint for ``alpha >= 0``
      is ``p(11|11) = (1 - 2 alpha + eps)/4 >= 0``, i.e. ``eps >= 2 alpha - 1``.
    * ``symmetric(alpha, beta, delta, eps)``: marginals
      ``alpha = gamma``, ``beta = omega``, correlators
      ``(delta, delta, delta, eps)``.
    * ``general(alpha, beta, gamma, omega, d1, d2, d3, eps)``: all eight.

    Raises UnknownKind for anything else, for a missing parameter and for an
    unexpected one. Construction never validates.
    """
    if kind not in _NAMED_FAMILIES:
        raise UnknownKind(f"unknown box kind {kind!r}")
    names, layout = _NAMED_FAMILIES[kind]
    missing = [name for name in names if name not in params]
    if missing:
        raise UnknownKind(f"{kind} box is missing parameter {missing[0]!r}")
    extra = sorted(set(params) - set(names))
    if extra:
        raise UnknownKind(f"{kind} box got unexpected parameters {extra}")
    return CorrelatorForm(*layout(*(float(params[name]) for name in names)))
