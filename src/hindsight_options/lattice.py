"""Binomial-lattice pricing and replication of the hindsight allocation option.

The market is the standard recombining lattice: each period the stock moves
by u or d with 0 < d < R < u < inf, where R = 1 + r_per is the per-period gross
rate, and q = (R - d)/(u - d) is the risk-neutral up probability.  After j
ups out of N periods a fixed-fraction rule b holds wealth

    V_N(b) = R^N [1 + b(u/R - 1)]^j [1 + b(d/R - 1)]^{N-j},

whose hindsight maximizer is b(j, N) = R (j - Nq) / (N (u - d) q (1 - q)).
The levered payoff V_N(b(j, N)) collapses to (R/N)^N (j/q)^j ((N-j)/(1-q))^{N-j}
with the 0^0 := 1 convention; the unlevered payoff clamps b(j, N) to [0, 1],
which selects R^N below j = Nq and u^j d^{N-j} above j = Nq + N(u-d)q(1-q)/R.

Prices are expected discounted payoffs under q, in log space.  A closed sum
over terminal outcomes (log-gamma binomials, log-sum-exp) prices one node in
O(N); one backward sweep of C(k, n) = [q C(k+1, n+1) + (1-q) C(k, n+1)] / R
prices every node in O(N^2) for the demon, the induction table and the hedge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from .errors import ValidationError
from .hindsight import _exp, _representable
from .market import _integer


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice parameters: up/down factors, per-period simple rate, total steps."""

    u: float
    d: float
    r_per: float
    n_steps: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", float(self.u))
        object.__setattr__(self, "d", float(self.d))
        object.__setattr__(self, "r_per", float(self.r_per))
        object.__setattr__(self, "n_steps", _integer(self.n_steps, "n_steps"))
        if self.n_steps < 1:
            raise ValidationError("n_steps must be >= 1")
        if not 0.0 < self.d < self.gross_rate < self.u < math.inf:
            raise ValidationError("need 0 < d < 1 + r_per < u < inf")

    @property
    def gross_rate(self) -> float:
        return 1.0 + self.r_per

    @property
    def q(self) -> float:
        """Risk-neutral up probability, (R - d) / (u - d); always in (0, 1)."""
        return (self.gross_rate - self.d) / (self.u - self.d)

    @classmethod
    def crr(cls, sigma: float, rate: float, horizon: float, n_steps: int) -> "LatticeSpec":
        """Standard calibration u = e^{sigma sqrt(h)}, d = 1/u, R = e^{r h}."""
        n_steps = _integer(n_steps, "n_steps")
        if not (0.0 < horizon < math.inf and n_steps >= 1):
            raise ValidationError("need 0 < horizon < inf and n_steps >= 1")
        h = horizon / n_steps
        try:
            u = math.exp(sigma * math.sqrt(h))
            r_per = math.expm1(rate * h)
        except OverflowError:
            raise ValidationError("u = e^{sigma sqrt(h)} or R = e^{r h} overflows float64") from None
        return cls(u=u, d=1.0 / u, r_per=r_per, n_steps=n_steps)


SHANNON = dict(u=2.0, d=0.5, r_per=0.0)


def shannon_spec(n_steps: int) -> LatticeSpec:
    """The classic double-or-half, zero-rate market (q = 1/3)."""
    return LatticeSpec(n_steps=n_steps, **SHANNON)


@dataclass(frozen=True)
class LatticeState:
    """Position on the lattice: k upticks seen in the first n steps."""

    k: int
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _integer(self.k, "k"))
        object.__setattr__(self, "n", _integer(self.n, "n"))
        if not 0 <= self.k <= self.n:
            raise ValidationError("need 0 <= k <= n")


def _logsumexp(terms: np.ndarray) -> float:
    """log(sum(exp(terms))), shifted by the largest term; -inf when every term is -inf."""
    top = float(np.max(terms))
    if top == -math.inf:
        return top
    return top + math.log(float(np.sum(np.exp(terms - top))))


def _check_terminal(spec: LatticeSpec, j) -> np.ndarray:
    j = np.atleast_1d(np.asarray(j))
    if j.dtype.kind not in "biuf" or (  # a string or None is not a count
            j.dtype.kind not in "iu" and not np.all(np.isfinite(j) & (np.floor(j) == j))):
        raise ValidationError("uptick count must be a whole number")
    if np.any(j < 0) or np.any(j > spec.n_steps):
        raise ValidationError(f"uptick count must lie in [0, {spec.n_steps}]")
    return j.astype(float)


def _best_rule(spec: LatticeSpec, jf: np.ndarray) -> np.ndarray:
    """b(j, N) = R / (N (u - d)) * (j/q - (N - j)/(1 - q)) over float j.

    Where N/q overflows (q subnormal) so can N (u - d); every j then takes the
    same value as R / N * (j/(R - d) - (N - j)/((u - d)(1 - q))), by (u - d) q = R - d.
    """
    n, q, gross = spec.n_steps, spec.q, spec.gross_rate
    if n / q < math.inf:
        return gross / (n * (spec.u - spec.d)) * (jf / q - (n - jf) / (1.0 - q))
    return gross / n * (jf / (gross - spec.d) - (n - jf) / ((spec.u - spec.d) * (1.0 - q)))


def _xlogy_over_q(spec: LatticeSpec, jf: np.ndarray) -> np.ndarray:
    """j log(j / q), 0 at j = 0; j (log j - log q) where j / q overflows (q subnormal)."""
    q = spec.q
    if spec.n_steps / q < math.inf:
        return xlogy(jf, jf / q)
    with np.errstate(over="ignore"):  # the overflowed entries are replaced
        ratio = jf / q
    return np.where(np.isinf(ratio), xlogy(jf, jf) - jf * math.log(q), xlogy(jf, ratio))


def lattice_best_rule(spec: LatticeSpec, j: int) -> float:
    """Hindsight-optimal fraction b(j, N) after j ups in n_steps plays; zero when j = Nq."""
    return float(_best_rule(spec, _check_terminal(spec, j))[0])


def _log_payoff(spec: LatticeSpec, jf: np.ndarray, mode: str) -> np.ndarray:
    """:func:`lattice_log_payoff` over float j already known to lie in [0, N]."""
    n, q, gross = spec.n_steps, spec.q, spec.gross_rate
    levered = (n * math.log(gross / n) + _xlogy_over_q(spec, jf)
               + xlogy(n - jf, (n - jf) / (1.0 - q)))
    if mode == "levered":
        return levered
    if mode != "unlevered":
        raise ValidationError(f"unknown mode {mode!r}")
    b = _best_rule(spec, jf)
    cash = np.full_like(jf, n * math.log(gross))
    hold = jf * math.log(spec.u) + (n - jf) * math.log(spec.d)
    # Non-strict masks overlap exactly at clamp boundaries, where the max of
    # the competing branch formulas is taken (they agree there analytically).
    out = np.full_like(jf, -np.inf)
    for mask, value in ((b <= 0.0, cash),
                        ((b >= 0.0) & (b <= 1.0), levered),
                        (b >= 1.0, hold)):
        out[mask] = np.maximum(out[mask], value[mask])
    return out


def lattice_log_payoff(spec: LatticeSpec, j, mode: str = "levered") -> np.ndarray:
    """log of the terminal payoff after j ups; vectorized over j.

    Ties at the unlevered clamp boundaries evaluate every admissible branch
    and keep the maximum, which is always correct for a payoff defined as a
    max over b.
    """
    return _log_payoff(spec, _check_terminal(spec, j), mode)


def lattice_payoff(spec: LatticeSpec, j: int, mode: str = "levered") -> float:
    """Terminal payoff of the option after j ups out of n_steps."""
    return _exp(lattice_log_payoff(spec, j, mode)[0], "lattice_log_payoff", zero_ok=True)


def lattice_log_price(spec: LatticeSpec, state: LatticeState, mode: str = "levered") -> float:
    """log price in state (k, n): expected discounted payoff under q.

    Closed sum over the remaining N - n periods,

        C(k, n) = R^{-(N-n)} sum_j binom(N-n, j) q^j (1-q)^{N-n-j} payoff(k + j),

    accumulated by log-sum-exp.  Interest accrual matters here: the factored
    form C(k, n) = R^n q^{-k} (1-q)^{k-n} sum_j binom(...) ((j+k)/N)^{j+k} ...
    carries an R^n that vanishes only in zero-rate markets.
    """
    n_total = spec.n_steps
    if state.n > n_total:
        raise ValidationError(f"state is beyond the {n_total}-step lattice")
    remaining = n_total - state.n
    q = spec.q
    j = np.arange(remaining + 1, dtype=float)
    log_binom = (gammaln(remaining + 1) - gammaln(j + 1) - gammaln(remaining - j + 1))
    log_terms = (log_binom + j * math.log(q) + (remaining - j) * math.log(1.0 - q)
                 + _log_payoff(spec, state.k + j, mode)
                 - remaining * math.log(spec.gross_rate))
    return _logsumexp(log_terms)


def lattice_price(spec: LatticeSpec, state: LatticeState, mode: str = "levered") -> float:
    """Price in state (k, n); at n = N this is the payoff itself."""
    return _exp(lattice_log_price(spec, state, mode), "lattice_log_price", zero_ok=True)


def _log_node_rows(spec: LatticeSpec, mode: str = "levered"):
    """Yield (n, log C(., n)) for n = N, ..., 0, sweeping back from the payoff row.

    row_n = logaddexp(log q + row_{n+1}[1:], log(1-q) + row_{n+1}[:-1]) - log R.
    """
    log_up, log_down = math.log(spec.q), math.log1p(-spec.q)
    log_gross = math.log(spec.gross_rate)
    row = lattice_log_payoff(spec, np.arange(spec.n_steps + 1), mode)
    yield spec.n_steps, row
    for n in range(spec.n_steps - 1, -1, -1):
        row = np.logaddexp(log_up + row[1:], log_down + row[:-1]) - log_gross
        yield n, row


def induction_price_table(spec: LatticeSpec, mode: str = "levered") -> list[np.ndarray]:
    """Prices at every node, the exp of the log-space backward sweep.

    Returns ``table`` with ``table[n][k]`` the price after n steps and k ups;
    ``table[N]`` is the payoff row.  The discounted price process is a
    q-martingale by construction, C(k, n) = [q C(k+1, n+1) + (1-q) C(k, n+1)] / R.
    A price not representable in float64 raises :class:`ValidationError`;
    price single nodes of such lattices with :func:`lattice_log_price`.
    """
    rows = [row for _, row in _log_node_rows(spec, mode)][::-1]
    _exp(max(float(row.max()) for row in rows), "lattice_log_price", zero_ok=True)
    return [np.exp(row) for row in rows]


def hedge_lattice_path(spec: LatticeSpec, moves, mode: str = "levered") -> np.ndarray:
    """Self-financing delta-hedge wealth along paths of up (1) / down (0) moves.

    ``moves[..., N]`` gives ``wealth[..., N + 1]``: one :func:`induction_price_table`
    serves every path, and each step holds delta = [C(k+1, n+1) - C(k, n+1)] / (s (u - d))
    shares.  Starts with wealth C(0, 0); exact replication makes the wealth equal
    the node price C(k, n) at every step, ending at the payoff.  The stock starts
    at 1: the wealth does not depend on its scale.
    """
    moves = np.asarray(moves)
    if moves.shape[-1:] != (spec.n_steps,) or not np.all(np.isin(moves, (0, 1))):
        raise ValidationError(f"moves must be {spec.n_steps} entries of 0 or 1")
    moves = moves.astype(int)
    table = induction_price_table(spec, mode)
    wealth = np.empty(moves.shape[:-1] + (spec.n_steps + 1,))
    wealth[..., 0] = table[0][0]
    s = np.ones(moves.shape[:-1])
    k = np.zeros(moves.shape[:-1], dtype=int)
    for n in range(spec.n_steps):
        delta = (table[n + 1][k + 1] - table[n + 1][k]) / (s * (spec.u - spec.d))
        cash = wealth[..., n] - delta * s
        s = s * np.where(moves[..., n], spec.u, spec.d)
        k = k + moves[..., n]
        wealth[..., n + 1] = delta * s + cash * spec.gross_rate
    return wealth


@dataclass(frozen=True)
class DemonLedger:
    """One simulated double-or-half run: stock vs. replication wealth per step."""

    steps: np.ndarray
    upticks: np.ndarray
    stock: np.ndarray
    wealth: np.ndarray


def demon_simulation(n_steps: int, p: float, seed: int) -> DemonLedger:
    """Replicate the option through one coin-flip run of the double-or-half market.

    The coin comes up heads (stock doubles) with physical probability p; the
    stock sits at 2^{2k - n} after k upticks in n steps, and the replicating
    account holds C(k, n) / C(0, 0) per initial dollar.
    """
    if not 0.0 <= p <= 1.0:
        raise ValidationError("p must lie in [0, 1]")
    spec = shannon_spec(n_steps)
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    ups = (rng.random(n_steps) < p).astype(int)
    k = np.concatenate([[0], np.cumsum(ups)])
    n = np.arange(n_steps + 1)
    log_c = np.array([row[k[step]] for step, row in _log_node_rows(spec)])[::-1]
    log_wealth = log_c - log_c[0]
    _exp(float(log_wealth.max()), "lattice_log_price")
    with np.errstate(over="ignore"):  # exp2 of an integer is exact until it overflows
        stock = _representable(np.exp2((2 * k - n).astype(float)), "lattice_log_price")
    return DemonLedger(steps=n, upticks=k, stock=stock, wealth=np.exp(log_wealth))
