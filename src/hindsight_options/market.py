"""Market parameters and exact-lognormal correlated GBM path generation.

Prices follow dS_i/S_i = mu_i dt + sigma_i dW_i with Corr(dW_i, dW_j) = rho_ij
and a risk-free bond growing at the continuously-compounded rate.  Paths are
stepped with the exact lognormal transition, so the marginal distribution at
every grid time is free of discretization bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import ValidationError

# Cholesky pivots below this fraction of the largest diagonal entry are
# treated as a positive-definiteness failure (deterministic, scale-aware).
_PD_PIVOT_TOL = 1e-12

# The largest volatility whose square, and so Sigma = M R M, float64 holds.
_MAX_SIGMA = math.sqrt(np.finfo(float).max)

# Path-steps drawn (and, in the growth simulation, evaluated) per block.
_BLOCK_PATH_STEPS = 1 << 15

# Paths drawn from one random stream: path i is row i % _STREAM_PATHS of the
# stream SeedSequence((seed, i // _STREAM_PATHS)).
_STREAM_PATHS = 1024


@dataclass(frozen=True)
class MarketSpec:
    """Constant-coefficient market: drifts, volatilities, correlation, rate.

    Attributes
    ----------
    n : int
        Number of risky assets.
    mu : np.ndarray, shape (n,)
        Drift of each asset, per year.
    sigma : np.ndarray, shape (n,)
        Volatility of each asset, per sqrt(year); each > 0 and at most
        sqrt(float64 max) ~ 1.34e154, so that sigma^2 is finite.
    corr : np.ndarray, shape (n, n)
        Correlation matrix of the driving Brownian motions.  Must be
        symmetric, unit-diagonal, and positive definite.
    rate : float
        Continuously-compounded risk-free rate, per year.
    s0 : np.ndarray, shape (n,)
        Initial prices; each > 0.
    lower : np.ndarray, shape (n, n)
        Lower Cholesky factor of ``corr``, factored at construction.

    Construction validates the spec (:func:`validate_market`) and raises
    ``ValidationError`` naming the first bad field, so every spec that exists
    is valid.  The arrays are read-only float copies (the caller's stay
    writable), so the factor cannot go stale.
    """

    n: int
    mu: np.ndarray
    sigma: np.ndarray
    corr: np.ndarray
    rate: float
    s0: np.ndarray

    def __post_init__(self) -> None:
        for name, ndmin in (("mu", 1), ("sigma", 1), ("corr", 2), ("s0", 1)):
            try:
                value = np.array(getattr(self, name), dtype=float, ndmin=ndmin)
            except (TypeError, ValueError):
                raise ValidationError(f"{name} must be a rectangular array of numbers") from None
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        try:
            object.__setattr__(self, "rate", float(self.rate))
        except (TypeError, ValueError):
            raise ValidationError("rate must be a number") from None
        try:
            n = int(self.n)
            integral = n == self.n
        except (TypeError, ValueError, OverflowError):
            integral = False
        if not integral:
            raise ValidationError(f"n (asset count) must be an integer, got {self.n!r}")
        object.__setattr__(self, "n", n)
        validate_market(self)

    @cached_property
    def lower(self) -> np.ndarray:
        """Read-only lower Cholesky factor of ``corr``, factored once, at construction."""
        lower = cholesky_with_tolerance(self.corr)
        lower.flags.writeable = False
        return lower

    @cached_property
    def _log_drift(self) -> np.ndarray:
        """Read-only risk-neutral log-price drift r - sigma_i^2 / 2, formed once per spec."""
        drift = self.rate - 0.5 * self.sigma**2
        drift.flags.writeable = False
        return drift

    @classmethod
    def single(cls, mu: float, sigma: float, rate: float, s0: float = 1.0) -> "MarketSpec":
        """One-asset market."""
        return cls(n=1, mu=[mu], sigma=[sigma], corr=[[1.0]], rate=rate, s0=[s0])

    @classmethod
    def pair(cls, mu: Sequence[float], sigma: Sequence[float], rho: float,
             rate: float, s0: Sequence[float] = (1.0, 1.0)) -> "MarketSpec":
        """Two-asset market with a single correlation coefficient."""
        return cls(n=2, mu=mu, sigma=sigma, corr=[[1.0, rho], [rho, 1.0]],
                   rate=rate, s0=s0)


@dataclass(frozen=True)
class PricePath:
    """A simulated price history on a strictly increasing grid starting at 0.

    ``prices`` has shape (len(times), n) and is aligned row-for-row with
    ``times``; ``prices[0]`` equals the spec's initial prices.
    """

    times: np.ndarray
    prices: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        prices = np.asarray(self.prices, dtype=float)
        if prices.ndim == 1:
            prices = prices[:, None]
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "prices", prices)
        if times.ndim != 1 or times.shape[0] != prices.shape[0]:
            raise ValidationError("times and prices must align row-for-row")
        if times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise ValidationError("time grid must start at 0 and strictly increase")
        if np.any(prices <= 0) or not np.all(np.isfinite(prices)):
            raise ValidationError("prices must be strictly positive and finite")

    @classmethod
    def _checked(cls, times: np.ndarray, prices: np.ndarray) -> "PricePath":
        """A path over arrays that already meet every invariant, without re-checking them."""
        path = cls.__new__(cls)
        path.__dict__.update(times=times, prices=prices)
        return path


def cholesky_with_tolerance(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``a`` with a deterministic pivot test.

    Fails when any pivot drops below ``1e-12 * max(diag(a))``, which flags
    rank-deficient or indefinite matrices the same way on every platform.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    tol = _PD_PIVOT_TOL * float(np.max(np.diag(a)))
    lower = np.zeros_like(a)
    for j in range(n):
        pivot = a[j, j] - lower[j, :j] @ lower[j, :j]
        if pivot < tol:
            raise ValidationError(
                f"matrix is not positive definite (pivot {pivot:.3e} at index {j})"
            )
        lower[j, j] = math.sqrt(pivot)
        for i in range(j + 1, n):
            lower[i, j] = (a[i, j] - lower[i, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def validate_market(spec: MarketSpec) -> MarketSpec:
    """Check every MarketSpec invariant; return the spec unchanged if valid."""
    n = spec.n
    if n < 1:
        raise ValidationError("asset count must be >= 1")
    for name, vec in (("mu", spec.mu), ("sigma", spec.sigma), ("s0", spec.s0)):
        if vec.shape != (n,):
            raise ValidationError(f"{name} must have length {n}, got shape {vec.shape}")
        if not np.all(np.isfinite(vec)):
            raise ValidationError(f"{name} must be finite")
    if not math.isfinite(spec.rate):
        raise ValidationError("rate must be finite")
    if np.any(spec.sigma <= 0):
        raise ValidationError("volatilities must be strictly positive")
    if np.any(spec.sigma > _MAX_SIGMA):  # compared, not squared, so nothing warns
        raise ValidationError(f"sigma must be at most {_MAX_SIGMA!r}: its square overflows float64")
    if np.any(spec.s0 <= 0):
        raise ValidationError("initial prices must be strictly positive")
    corr = spec.corr
    if corr.shape != (n, n):
        raise ValidationError(f"correlation matrix must be {n}x{n}, got {corr.shape}")
    if not np.all(np.isfinite(corr)):
        raise ValidationError("correlation matrix must be finite")
    if not np.all(abs(corr - corr.T) <= 1e-12):
        raise ValidationError("correlation matrix must be symmetric")
    if not np.all(abs(np.diag(corr) - 1.0) <= 1e-12):
        raise ValidationError("correlation matrix must have a unit diagonal")
    if np.any(np.abs(corr) > 1.0 + 1e-12):
        raise ValidationError("correlation entries must lie in [-1, 1]")
    spec.lower  # positive definiteness
    return spec


def covariance(spec: MarketSpec) -> np.ndarray:
    """Covariance of instantaneous returns per unit time: diag(sigma) @ corr @ diag(sigma)."""
    m = np.diag(spec.sigma)
    return m @ spec.corr @ m


def _check_path_args(horizon: float, steps: int, n_paths: int, measure: str,
                     seed: int) -> None:
    """Reject path-grid arguments that cannot give finite, seeded paths."""
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValidationError("horizon must be positive and finite")
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    if n_paths < 1:
        raise ValidationError("n_paths must be >= 1")
    if measure not in ("physical", "risk_neutral"):
        raise ValidationError(f"unknown measure {measure!r}")
    if seed < 0:
        raise ValidationError("seed must be nonnegative")


def _streams(seed: int, n_total: int, per_stream: int) -> Iterator[tuple]:
    """``(first, rng, size)`` per stream: item i of ``n_total`` draws from the stream
    ``SeedSequence((seed, i // per_stream))``, whatever ``n_total`` and the reading order."""
    for first in range(0, n_total, per_stream):
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), first // per_stream)))
        yield first, rng, min(per_stream, n_total - first)


def _price_blocks(spec: MarketSpec, dt: float | np.ndarray, steps: int, n_paths: int,
                  measure: str, seed: int) -> Iterator[tuple[int, np.ndarray]]:
    """Draw paths block by block for a validated spec and checked arguments.

    ``dt`` is the length of every step, a float on a uniform grid, or an
    array of shape (steps, 1) holding the length of each; it broadcasts over
    the steps, so a uniform grid forms no per-step array.  Each step is the
    exact lognormal transition over its length.

    Yields ``(first, prices)`` where ``prices`` holds paths ``first, first + 1,
    ...`` with shape (paths in block, steps + 1, n).  A block holds at most
    ``_BLOCK_PATH_STEPS`` path-steps (at least one path), which bounds the
    memory of the draw and of what callers evaluate per block, and no block
    straddles two streams.  Path i is row ``i % _STREAM_PATHS`` of the draws
    of the stream ``SeedSequence((seed, i // _STREAM_PATHS))``, so its prices
    do not depend on ``n_paths`` or on the block it lands in, and path 0 draws
    what a one-path stream ``SeedSequence((seed, 0))`` does.
    """
    growth = spec.mu if measure == "physical" else np.full(spec.n, spec.rate)
    # A log-price beyond float64 gives a price of 0, inf or nan, refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        drift = (growth - 0.5 * spec.sigma**2) * dt
        vol = spec.sigma * np.sqrt(dt)
    log_s0 = np.log(spec.s0)
    block = max(1, _BLOCK_PATH_STEPS // steps)

    for start, rng, size in _streams(seed, n_paths, _STREAM_PATHS):
        for first in range(start, start + size, block):
            eps = rng.standard_normal((min(block, start + size - first), steps, spec.n))
            # A stacked matmul multiplies each path's draws on its own, exactly
            # as a per-path product would, so blocking leaves every value unchanged.
            eps = eps @ spec.lower.T
            prices = np.empty((len(eps), steps + 1, spec.n))
            prices[:, 0] = spec.s0
            with np.errstate(over="ignore", invalid="ignore"):
                eps *= vol
                eps += drift
                np.cumsum(eps, axis=1, out=eps)
                eps += log_s0
                np.exp(eps, out=prices[:, 1:])
            if np.any(prices <= 0) or not np.all(np.isfinite(prices)):
                raise ValidationError("simulated prices must be strictly positive and finite")
            yield first, prices


def simulate_paths(spec: MarketSpec, horizon: float, steps: int, n_paths: int,
                   measure: str = "physical", seed: int = 0) -> list[PricePath]:
    """Generate exact-lognormal GBM paths on a uniform grid over [0, horizon].

    Parameters
    ----------
    measure : {"physical", "risk_neutral"}
        Physical paths drift at ``mu``; risk-neutral paths drift at ``rate``.
    seed : int
        Nonnegative.  Path i draws row ``i % 1024`` of the stream derived
        from (seed, i // 1024), so path i is reproducible independently of
        ``n_paths`` and of evaluation order.

    Returns
    -------
    list[PricePath]
        ``n_paths`` paths, each with ``steps + 1`` grid points; paths that cannot
        be allocated raise :class:`ValidationError`.
    """
    _check_path_args(horizon, steps, n_paths, measure, seed)
    try:
        times = np.linspace(0.0, horizon, steps + 1)
        # _price_blocks checks every price, so the paths need only this grid check.
        if np.any(np.diff(times) <= 0):
            raise ValidationError("time grid must start at 0 and strictly increase")
        return [PricePath._checked(times, prices)
                for _, block in _price_blocks(spec, horizon / steps, steps, n_paths, measure,
                                              seed)
                for prices in block]
    except MemoryError:
        raise ValidationError(f"{n_paths} paths of {steps} steps do not fit in memory") from None


def save_market_spec(spec: MarketSpec, path: str) -> None:
    """Write a spec as a plain key-value file; matrix rows repeat the key."""
    lines = [f"n = {spec.n}",
             "mu = " + " ".join(repr(float(x)) for x in spec.mu),
             "sigma = " + " ".join(repr(float(x)) for x in spec.sigma)]
    for row in spec.corr:
        lines.append("corr = " + " ".join(repr(float(x)) for x in row))
    lines.append(f"rate = {spec.rate!r}")
    lines.append("s0 = " + " ".join(repr(float(x)) for x in spec.s0))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_market_spec(path: str) -> MarketSpec:
    """Parse the key-value spec format written by :func:`save_market_spec`."""
    values: dict[str, list[list[float]]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected 'key = values'")
            key, _, rhs = line.partition("=")
            key = key.strip().lower()
            try:
                row = [float(tok) for tok in rhs.split()]
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
            if not row:
                raise ValidationError(f"{path}:{lineno}: no values for key {key!r}")
            values.setdefault(key, []).append(row)

    missing = {"n", "mu", "sigma", "corr", "rate", "s0"} - set(values)
    if missing:
        raise ValidationError(f"{path}: missing keys: {sorted(missing)}")

    def scalar_row(key: str) -> list[float]:
        rows = values[key]
        if len(rows) != 1:
            raise ValidationError(f"{path}: key {key!r} given {len(rows)} times")
        return rows[0]

    n = scalar_row("n")[0]
    corr_rows = values["corr"]
    if len(corr_rows) != n:
        raise ValidationError(f"{path}: expected {n:g} corr rows, got {len(corr_rows)}")
    fields = dict(n=n, mu=scalar_row("mu"), sigma=scalar_row("sigma"), corr=corr_rows,
                  rate=scalar_row("rate")[0], s0=scalar_row("s0"))
    try:
        return MarketSpec(**fields)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
