"""Numerical laboratory for block-builder auction equilibria.

Solves the private-value hybrid auction (integrated builders face a
second-price rule, neutral builders pay their bid) and the common-value
candlestick auction (a fast bidder may revise after the price moves), and
verifies both equilibria by seeded Monte Carlo simulation.
"""

__version__ = "0.1.0"
