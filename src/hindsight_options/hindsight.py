"""Hindsight-optimal rebalancing rules and the wealth they earn.

A rebalancing rule bets a fixed fraction b_i of wealth on asset i and keeps
the remainder in bonds, rebalancing continuously.  Over an observed history
[0, t] the realized wealth of a $1 deposit is

    V_t(b) = exp{(r - b' Sigma b / 2) t + sqrt(t) z' M b},

where M = diag(sigma), Sigma = M R M, and z collects the normalized log-price
deviations

    z_i = [log(S_i / S_i0) - (r - sigma_i^2 / 2) t] / (sigma_i sqrt(t)).

Everything here is drift-free: the state (S, t) is a sufficient statistic, so
none of these functions read ``spec.mu`` except :func:`kelly_rule`.  The
state reaches every closed form through z alone, and z is formed in one
kernel, which raises :class:`ValidationError` where z is not a finite
float64; :func:`z_score` returns that array.

A spec keeps its last one-state whitening in a one-entry slot keyed on the
bits of the checked prices and the float t: read-only z and w = L^{-1} z, and
|w|^2 once formed.  The next quote of that state (price, holdings, Greeks,
unlevered price) reads them, runs all its own checks and returns the same
bits.  A batch (prices of more than one row, or an array t) bypasses it.

scipy is imported on first use, through :func:`_scipy`: the closed forms of
the levered price and rule need only exp, log and sqrt, and a one-asset
factor solves without LAPACK, so a process that never calls a scipy kernel
never pays for importing scipy.
"""

from __future__ import annotations

import functools
import importlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .market import MarketSpec, _real, _reals

MODES = ("levered", "unlevered")
_TINY = np.finfo(float).tiny
# Entries up to which a finiteness check reads floats: below one ufunc call and its reduction.
_FEW = 8
# The spec's one-entry slot of the last quoted state: (key, z, w, |w|^2 or None).
_STATE = "_quoted_state"
_QUAD_OVERFLOW = ("z' R^{-1} z is not a finite float64 at this state; "
                  "not even log_price_levered can represent it")


@functools.cache
def _scipy(submodule: str):
    """The module ``scipy.<submodule>``, imported on its first use in the process.

    The one place the package loads scipy: ``special`` (``log_ndtr`` for the
    unlevered price, ``gammaln`` and ``xlogy`` for the lattice) and ``linalg``
    and ``linalg.lapack`` (``solve_triangular`` and ``dtrtrs`` for n >= 2
    solves and the Monte Carlo oracle).  A kernel reads its function off the
    module at each call, which a warm cache answers in well under a microsecond.
    """
    return importlib.import_module("scipy." + submodule)


@dataclass(frozen=True, eq=False)
class RebalancingRule:
    """Wealth fractions bet per asset; unlevered rules are single-asset with b in [0, 1]."""

    b: np.ndarray
    mode: str = "levered"

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", _reals(self.b, "fractions"))
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}")
        if not np.isfinite(self.b).all():
            raise ValidationError("fractions must be finite")
        if self.mode == "unlevered":
            if self.b.shape != (1,):
                raise ValidationError("unlevered rules are defined for one asset only")
            if not 0.0 <= self.b[0] <= 1.0:
                raise ValidationError("unlevered fraction must lie in [0, 1]")


def _check_mode(spec: MarketSpec, mode: str) -> None:
    """Refuse a mode other than levered or unlevered, and unlevered mode beyond one asset."""
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    if mode == "unlevered" and spec.n != 1:
        raise ValidationError("unlevered mode is defined for one asset")


def _as_prices(spec: MarketSpec, s, t) -> tuple[np.ndarray, float]:
    """A state (S, t): prices checked for shape, positivity and finiteness, t a positive finite float."""
    t = _real(t, "t")
    if not 0 < t < math.inf:
        raise ValidationError("t must be positive and finite")
    return _prices(spec, s), t


def _prices(spec: MarketSpec, s) -> np.ndarray:
    """Prices S read by :func:`market._reals`, checked for shape, positivity and finiteness."""
    s = _reals(s, "prices")
    if s.shape != (spec.n,):
        raise ValidationError(f"expected {spec.n} prices, got shape {s.shape}")
    if not all(0.0 < x < math.inf for x in s.tolist()):
        raise ValidationError("prices must be strictly positive and finite")
    return s


def _all_finite(value) -> bool:
    """Whether a float, a list of floats or every entry of an array is finite.

    An array of a few entries is read as floats, which costs less than one ufunc call.
    """
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, np.ndarray):
        if value.size > _FEW:
            return bool(np.isfinite(value).all())
        value = value.ravel().tolist()
    return all(map(math.isfinite, value))


def _where(condition, x, y):
    """np.where; one state's condition, a numpy bool, picks x or y without a ufunc call."""
    if isinstance(condition, (bool, np.bool_)):
        return x if condition else y
    return np.where(condition, x, y)


def _masked(ufunc, mask, *args):
    """``ufunc(*args)`` where ``mask`` holds and -inf elsewhere, not evaluated there."""
    if isinstance(mask, (bool, np.bool_)):
        return ufunc(*args) if mask else -math.inf
    return ufunc(*args, out=np.full(np.shape(mask), -np.inf), where=mask)


def _unrepresentable(log_api: str) -> ValidationError:
    """The documented domain error of a result float64 cannot hold."""
    return ValidationError(f"result is not representable in float64; use {log_api}")


def _representable(value, log_api: str):
    """``value`` if every entry is finite, else the documented domain error."""
    if not _all_finite(value):
        raise _unrepresentable(log_api)
    return value


def _exp(log_value: float, log_api: str, zero_ok: bool = False) -> float:
    """exp of a log, or the documented domain error where it overflows.

    A finite log whose exp underflows to 0.0 is an error too, unless ``zero_ok``.
    """
    try:
        value = math.exp(log_value)
    except OverflowError:
        raise _unrepresentable(log_api) from None
    if value == 0.0 and not zero_ok and log_value > -math.inf:
        raise _unrepresentable(log_api)
    return _representable(value, log_api)


def _log_ratio(s: np.ndarray, s0):
    """log(s / s0) of positive finite prices; log s - log s0 where the quotient under- or overflows.

    One price (``s.ndim == 0``) has its float quotient checked, which sets no
    numpy flag; an array has the flags of its quotients checked.
    """
    if s.ndim == 0:
        q = float(s) / float(s0)
        return np.log(q) if _TINY <= q < math.inf else np.log(s) - np.log(s0)
    try:
        with np.errstate(over="raise", under="raise"):
            return np.log(s / s0)
    except FloatingPointError:  # checking the flags is cheaper than checking every quotient
        with np.errstate(over="ignore"):
            q = s / s0
        normal = (q >= _TINY) & (q < math.inf)
        return np.where(normal, np.log(np.where(normal, q, 1.0)), np.log(s) - np.log(s0))


# Kernels: each closed form is written once, over checked prices s[..., n]
# and times t[...] > 0 that broadcast; every other caller goes through them.
# One state is s[n] and a float t.  Its per-state values are taken as numpy
# scalars (``[()]`` of a 0-d array), whose arithmetic rounds as a ufunc does
# but costs a fraction of a ufunc call.
def _z(spec: MarketSpec, s: np.ndarray, t) -> np.ndarray:
    """z_i = [log(S_i/S_i0) - (r - sigma_i^2/2) t] / (sigma_i sqrt(t)).

    The one place z is formed, and refused where it is not a finite float64:
    where the drift product or the division overflows, or sigma sqrt(t)
    underflows to 0.  Every other kernel reads a finite z.  A float t is one
    time for every price.
    """
    if not isinstance(t, float):
        t = np.asarray(t, dtype=float)[..., None]
    try:  # without a flag, log(S/S0) is np.log(S/S0): no quotient under- or overflowed
        with np.errstate(all="raise"):  # checking flags is cheaper than checking entries
            z = (np.log(s / spec.s0) - spec._log_drift * t) / (spec.sigma * np.sqrt(t))
    except FloatingPointError:
        with np.errstate(all="ignore"):  # a non-finite z is refused below
            z = (_log_ratio(s, spec.s0) - spec._log_drift * t) / (spec.sigma * np.sqrt(t))
    if not _all_finite(z):
        raise ValidationError("z-score is not a finite float64 at this state: it overflows, "
                              "or sigma sqrt(t) underflows to 0")
    return z


def _trtrs(a: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """Triangular solve per column: the LAPACK ``trtrs`` call ``solve_triangular`` makes.

    LAPACK rounds a lone column differently, so it is doubled.  The unit factor
    [[1.0]] of every one-asset spec solves to a copy of ``b`` without LAPACK.  A
    non-finite ``b`` gives a non-finite solution; a nonzero LAPACK ``info``, which
    a validated factor cannot give, goes through ``solve_triangular`` for its error.
    """
    if a.shape == (1, 1) and a[0, 0] == 1.0:
        return b / a[0, 0]
    rhs = np.repeat(b, 2, axis=1) if b.shape[1] == 1 else b
    # trtrs reads a Fortran-ordered factor; a C-ordered one is read as its transpose
    dtrtrs = _scipy("linalg.lapack").dtrtrs
    if a.flags.f_contiguous:
        x, info = dtrtrs(a, rhs, lower=lower)
    else:
        x, info = dtrtrs(a.T, rhs, lower=not lower, trans=1)
    if info:
        return _scipy("linalg").solve_triangular(a, rhs, lower=lower)
    return x[:, :b.shape[1]]


def _whiten(spec: MarketSpec, z: np.ndarray) -> np.ndarray:
    """w = L^{-1} z as columns of shape (n, points), points in C order of z[..., n].

    A w that overflows from a finite z is not finite: the callers check what they read.
    """
    return _trtrs(spec.lower, z.reshape(-1, spec.n).T, lower=True)


def _whitened(spec: MarketSpec, s: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """The state (z, w = L^{-1} z) that log C and b(S, t) both read; one state via ``_STATE``."""
    if s.ndim > 1 or not isinstance(t, float):
        z = _z(spec, s, t)
        return z, _whiten(spec, z)
    key = (s.tobytes(), t)
    slot = spec.__dict__.get(_STATE)
    if slot is None or slot[0] != key:
        z = _z(spec, s, t)
        w = _whiten(spec, z)
        z.flags.writeable = w.flags.writeable = False
        slot = spec.__dict__[_STATE] = (key, z, w, None)
    return slot[1], slot[2]


def _log_floor(n: int, t, T: float, rate: float):
    """log of the levered floor (T/t)^{n/2} e^{rt}: the price at z = 0, the cost of universality."""
    return 0.5 * n * np.log(T / t) + rate * t


def _log_levered_of(spec: MarketSpec, z: np.ndarray, w: np.ndarray, t, T: float,
                    needed=True) -> np.ndarray:
    """log C(S, t) = log floor + z' R^{-1} z / 2, from :func:`_whitened`.

    Refused where z' R^{-1} z = |w|^2, and so log C, is not a finite float64,
    unless ``needed`` is false there: such a log C is +inf.
    """
    slot = spec.__dict__.get(_STATE, (None,) * 4)
    quad = slot[3] if slot[2] is w else None  # |w|^2 of the slot's state, once formed
    if quad is None:
        with np.errstate(over="ignore"):  # an overflow is refused just below
            quad = np.add.reduce(w * w, axis=0).reshape(z.shape[:-1])[()]
        if slot[2] is w:
            spec.__dict__[_STATE] = (*slot[:3], quad)
    if not (_all_finite(quad) or _all_finite(quad[needed])):
        raise ValidationError(_QUAD_OVERFLOW)
    return _log_floor(spec.n, t, T, spec.rate) + 0.5 * quad


def _fractions_of(spec: MarketSpec, z: np.ndarray, w: np.ndarray, t) -> np.ndarray:
    """Levered best rule b(S, t) = M^{-1} R^{-1} z / sqrt(t), from :func:`_whitened`."""
    y = _trtrs(spec.lower.T, w, lower=False)
    root_t = np.sqrt(t) if isinstance(t, float) else np.sqrt(t)[..., None]
    return (y / spec.sigma[:, None]).T.reshape(z.shape) / root_t


def _log_unlevered_intrinsic(spec: MarketSpec, s: np.ndarray, z: np.ndarray, t) -> np.ndarray:
    """log V_t* of the rule clamped to [0, 1], from checked s[..., 1] and its z[..., 1].

    Cash rt for z <= 0, hold log(S/S0) for z >= sigma sqrt(t), rt + z^2/2 between.
    """
    z = z[..., 0][()]
    rt = spec.rate * t
    cap = spec.sigma[0] * np.sqrt(t)
    inner = np.minimum(abs(z), cap)  # z where it is used; |z| capped so no z^2 overflows
    return _where(z <= 0.0, rt,
                  _where(z >= cap, _log_ratio(s[..., 0], spec.s0[0]), rt + 0.5 * inner * inner))


def _log_levered(spec: MarketSpec, s: np.ndarray, t, T: float) -> np.ndarray:
    """log C(S, t) of checked states."""
    return _log_levered_of(spec, *_whitened(spec, s, t), t, T)


def _fractions(spec: MarketSpec, s: np.ndarray, t) -> np.ndarray:
    """b(S, t) of checked states; unlike log C it can be finite where z' R^{-1} z is not."""
    return _fractions_of(spec, *_whitened(spec, s, t), t)


def _finite_z(z) -> np.ndarray:
    """A caller's z as a float array, refused unless every entry is finite."""
    z = _reals(z, "z")
    if not _all_finite(z):
        raise ValidationError("z must be finite")
    return z


def corr_solve(spec: MarketSpec, z: np.ndarray) -> np.ndarray:
    """Solve corr @ x = z (shape (n,)) by two triangular solves with ``spec.lower``."""
    return _trtrs(spec.lower.T, _whiten(spec, _finite_z(z)), lower=False)[:, 0]


def corr_quad(spec: MarketSpec, z: np.ndarray) -> float:
    """z' corr^{-1} z = |L^{-1} z|^2 for z of shape (n,), summed as the kernels sum it."""
    w = _whiten(spec, _finite_z(z))
    return float(np.sum(w * w))


def z_score(spec: MarketSpec, s, t: float) -> np.ndarray:
    """Normalized log-price deviations z[n]; a unit normal under the martingale measure.

    z_i = [log(S_i/S_i0) - (rate - sigma_i^2/2) t] / (sigma_i sqrt(t))
    """
    s, t = _as_prices(spec, s, t)
    return _z(spec, s, t)


def best_rule(spec: MarketSpec, s, t: float, mode: str = "levered") -> RebalancingRule:
    """Best rebalancing rule in hindsight over [0, t].

    Levered: b = M^{-1} R^{-1} z / sqrt(t), the argmax of the concave
    quadratic log V_t(b).  Unlevered (one asset): the levered scalar clamped
    to [0, 1].
    """
    _check_mode(spec, mode)
    s, t = _as_prices(spec, s, t)
    with np.errstate(over="ignore"):  # a levered rule that overflows is refused just below
        b = _fractions(spec, s, t)
    if mode == "levered":
        return RebalancingRule(b=_representable(b, "log_price_levered"), mode="levered")
    return RebalancingRule(b=[min(max(b[0], 0.0), 1.0)], mode="unlevered")


def wealth_of_rule(spec: MarketSpec, s, t: float, rule: RebalancingRule) -> float:
    """Realized wealth V_t(b) of a $1 deposit, computed from (S, t) alone.

    The log wealth is rt + u' (z - R u / 2) with the exposure u = sqrt(t) M b
    formed first, so that b' Sigma b overflowing before it meets a small t
    loses nothing, and a u that overflows gives a log wealth of -inf rather
    than -inf + inf.  Where u holds inf and -inf, so that R u is NaN, the
    excess is m (v' z - m v' R v / 2) with v = (sigma / |sigma|_inf) (b / |b|_inf)
    and m = sqrt(t) |sigma|_inf |b|_inf: |v_i| <= 1 and v' R v > 0 form no NaN.
    A wealth too small for float64 is returned as 0.0.
    """
    s, t = _as_prices(spec, s, t)
    z = _z(spec, s, t)
    b = rule.b
    if b.shape != (spec.n,):
        raise ValidationError(f"rule has {b.shape[0]} fractions for {spec.n} assets")
    with np.errstate(over="ignore", invalid="ignore"):  # _exp refuses a NaN or +inf log wealth
        u = math.sqrt(t) * spec.sigma * b
        excess = float(u @ (z - 0.5 * (spec.corr @ u)))
        if math.isnan(excess):  # b != 0 here, since u = 0 gives 0.0
            sigma_max, b_max = float(spec.sigma.max()), float(abs(b).max())
            v = (spec.sigma / sigma_max) * (b / b_max)
            m = math.sqrt(t) * sigma_max * b_max
            excess = m * (float(v @ z) - 0.5 * m * float(v @ spec.corr @ v))
    return _exp(spec.rate * t + excess, "the log wealth rt + u' (z - R u / 2), u = sqrt(t) M b",
                zero_ok=True)


def intrinsic_value(spec: MarketSpec, s, t: float, mode: str = "levered") -> float:
    """Hindsight-optimal wealth V_t* accrued over [0, t] (the exercise value).

    Levered: exp(rt + z' R^{-1} z / 2).  Unlevered (one asset) is piecewise in
    z: all-cash e^{rt} for z <= 0, the levered expression for
    0 <= z <= sigma sqrt(t), and buy-and-hold S_t/S_0 for z >= sigma sqrt(t).
    The branches agree at both boundaries.  A V_t* that overflows float64 or
    underflows to 0 raises :class:`ValidationError`; use :func:`log_intrinsic_value`.
    """
    return _exp(log_intrinsic_value(spec, s, t, mode), "log_intrinsic_value")


def log_intrinsic_value(spec: MarketSpec, s, t: float, mode: str = "levered") -> float:
    """log V_t*; preferred for long horizons where V_t* overflows."""
    _check_mode(spec, mode)
    s, t = _as_prices(spec, s, t)
    if mode == "levered":
        return float(_log_levered(spec, s, t, t))  # log C at expiry T = t
    return float(_log_unlevered_intrinsic(spec, s, _z(spec, s, t), t))


def kelly_rule(spec: MarketSpec) -> tuple[RebalancingRule, float]:
    """Growth-optimal constant rule b* = Sigma^{-1}(mu - r 1) and its rate.

    Returns the rule together with the optimum asymptotic growth rate
    gamma* = r + (mu - r 1)' Sigma^{-1} (mu - r 1) / 2.
    """
    with np.errstate(over="ignore"):  # an overflow is refused just below
        excess_per_vol = (spec.mu - spec.rate) / spec.sigma
        if np.isfinite(excess_per_vol).all():
            y = corr_solve(spec, excess_per_vol)
            b = y / spec.sigma
            growth = spec.rate + 0.5 * float(excess_per_vol @ y)
            if np.isfinite(b).all() and math.isfinite(growth):
                return RebalancingRule(b=b, mode="levered"), growth
    raise ValidationError("the Kelly rule is not representable in float64")
