"""Independent oracle for the hybrid Monte Carlo kernel: the full-row auction.

Where :func:`pbslab.simulator._hybrid_block` samples only the three order
statistics that decide an auction, this module draws every bidder's value
from its own uniform, finds the winner by argmax over all bids with uniform
random tie-breaking and the price from the runner-up bid. The tests hold
the kernel to it, bit for bit, on rows built with the same order
statistics (:func:`full_uniforms`).
"""

import numpy as np

from pbslab.private_equilibrium import EquilibriumSolution


def pick_winners(bids: np.ndarray, tie_u: np.ndarray) -> np.ndarray:
    """Row-wise argmax with uniform random tie-breaking among top bids."""
    winners = np.argmax(bids, axis=1)
    top = bids[np.arange(bids.shape[0]), winners]
    tie_rows = np.flatnonzero((bids == top[:, None]).sum(axis=1) > 1)
    for r in tie_rows:
        tied = np.flatnonzero(bids[r] == top[r])
        winners[r] = tied[min(int(tie_u[r] * tied.size), tied.size - 1)]
    return winners


def full_rows(solution: EquilibriumSolution, u: np.ndarray) -> dict[str, np.ndarray]:
    """Play one batch of auctions from one uniform per bidder (integrated
    first, then neutral) and a last tie-break uniform per row."""
    config = solution.config
    n_int, n_neu = config.n_integrated, config.n_neutral
    m = u.shape[0]
    vals_int = np.asarray(config.integrated_values.quantile(u[:, :n_int]),
                          dtype=float).reshape(m, n_int)
    vals_neu = np.asarray(config.neutral_values.quantile(u[:, n_int:n_int + n_neu]),
                          dtype=float).reshape(m, n_neu)
    bids_neu = solution.bid_function(vals_neu)

    values = np.concatenate([vals_int, vals_neu], axis=1)
    bids = np.concatenate([vals_int, bids_neu], axis=1)  # integrated bid truthfully
    winner = pick_winners(bids, u[:, -1])
    rows = np.arange(m)
    winning_bid = bids[rows, winner]
    runner_up = np.partition(bids, -2, axis=1)[:, -2]
    integrated_won = winner < n_int

    # integrated winners pay the next-highest bid, neutral winners their own
    payment = np.where(integrated_won, runner_up, winning_bid)
    winner_value = values[rows, winner]
    return {
        "winner": winner,
        "integrated_won": integrated_won,
        "winning_bid": winning_bid,
        "payment": payment,
        "winner_value": winner_value,
        "surplus": winner_value - payment,
    }


def full_uniforms(solution: EquilibriumSolution, u: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Full rows for :func:`full_rows` with the order statistics that the
    kernel samples from its ``(m, 4)`` rows ``u``.

    Each class's top uniform and the integrated second are computed as the
    kernel computes them; the class's other uniforms lie strictly below
    (below the second for the integrated class), and the kernel's tie-break
    uniform goes last.
    """
    config = solution.config
    n_int, n_neu = config.n_integrated, config.n_neutral

    def top_of(v, k):  # kept below 1, where a quantile may be infinite
        return np.minimum(v ** (1 / k), np.nextafter(1.0, 0.0))

    def below(top, k):
        return np.minimum(top[:, None] * rng.random((len(u), k)),
                          np.nextafter(top, 0.0)[:, None])

    integrated = []
    if n_int:
        int_top = top_of(u[:, 1], n_int)
        integrated = [int_top[:, None]]
        if n_int > 1:
            second = int_top * u[:, 2] ** (1 / (n_int - 1))
            integrated += [second[:, None], below(second, n_int - 2)]
    neu_top = top_of(u[:, 0], n_neu)
    neutral = [neu_top[:, None], below(neu_top, n_neu - 1)]
    return np.concatenate(integrated + neutral + [u[:, 3:4]], axis=1)
