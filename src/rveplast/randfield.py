"""Position-keyed i.i.d. sampling of the random spring parameters.

Each edge carries a triple (a, h, sigma_y) of independent uniform draws.
The draw for parameter rho of the edge with tail node (x, y) and type alpha
is a pure function of (seed, sample_id, x, y, alpha, rho): values are
produced by a counter-based hash of the key tuple, never by a sequential
stream.  Consequently a realization sampled on a small box is bitwise the
restriction of the realization sampled on any larger box, which is what the
nested-restriction error study relies on.

Edges that wrap around the periodic cell are keyed by their tail node's
absolute position, so a wrapped edge at L=6 carries a different value than
the interior edge connecting the same lattice sites at L=42.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import K

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_PARAMS = ("a", "h", "sigma_y")


class ConfigError(ValueError):
    """Invalid material-law or run configuration."""


@dataclass(frozen=True)
class MaterialLaw:
    """Uniform-distribution intervals for the three spring parameters.

    Defaults: a ~ U(1e6, 2e6), h ~ U(1.25e6, 2e6), sigma_y ~ U(0.9e3, 1.1e3).
    """

    a: tuple[float, float] = (1.0e6, 2.0e6)
    h: tuple[float, float] = (1.25e6, 2.0e6)
    sigma_y: tuple[float, float] = (0.9e3, 1.1e3)

    def __post_init__(self):
        for name in ("a", "h"):
            lo, hi = getattr(self, name)
            if not (0.0 < lo <= hi < np.inf):
                raise ConfigError(f"{name} interval must satisfy 0 < lo <= hi < inf, got [{lo}, {hi}]")
        lo, hi = self.sigma_y
        if not (0.0 <= lo <= hi < np.inf):
            raise ConfigError(f"sigma_y interval must satisfy 0 <= lo <= hi < inf, got [{lo}, {hi}]")

    @classmethod
    def point_mass(cls, a: float, h: float, sigma_y: float) -> "MaterialLaw":
        """Degenerate law: every edge carries exactly (a, h, sigma_y)."""
        return cls((a, a), (h, h), (sigma_y, sigma_y))


@dataclass(frozen=True)
class Realization:
    """Material parameters on all K * L**2 edges of one periodic cell.

    Arrays are flat with the edge indexing of the lattice module
    (edge = alpha * L**2 + node), i.e. ``a.reshape(K, L * L)[alpha]`` is
    the per-tail-node array of type-alpha values.
    """

    L: int
    seed: int
    sample_id: int
    law: MaterialLaw
    a: np.ndarray = field(repr=False)
    h: np.ndarray = field(repr=False)
    sy: np.ndarray = field(repr=False)

    def by_type(self, name: str) -> np.ndarray:
        """View of parameter ``name`` with shape (K, L*L)."""
        return getattr(self, name).reshape(K, self.L**2)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: bijective uint64 avalanche."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _keyed_uniform(seed, sample_id, x, y, channel) -> np.ndarray:
    """Uniform double in [0, 1) for each key tuple (vectorized).

    The key fields are folded into the hash state one by one, each pass
    through the SplitMix64 finalizer, so every field fully avalanches.
    """
    with np.errstate(over="ignore"):  # uint64 wraparound is the hash semantics
        state = _mix(np.uint64(seed) ^ _GAMMA)
        for part in (sample_id, x, y, channel):
            state = _mix(state ^ (np.asarray(part, dtype=np.uint64) * _GAMMA))
    return (state >> np.uint64(11)).astype(np.float64) * 2.0**-53


def sample(law: MaterialLaw, seed: int, sample_id: int, L: int) -> Realization:
    """Draw one realization of the material parameters on the cell of side L.

    Values depend on absolute node positions only, not on L; the same
    (seed, sample_id) at different L agree bitwise on the common sub-box.
    """
    if L < 1:
        raise ConfigError(f"lattice side must be >= 1, got {L}")
    x = np.tile(np.arange(L, dtype=np.uint64), L)
    y = np.repeat(np.arange(L, dtype=np.uint64), L)
    # one pass over the channels alpha * 3 + rho, broadcast against the nodes
    channel = np.arange(K * len(_PARAMS), dtype=np.uint64)[:, None]
    u = _keyed_uniform(seed, sample_id, x, y, channel).reshape(K, len(_PARAMS), L * L)
    arrays = {}
    for rho, name in enumerate(_PARAMS):
        lo, hi = getattr(law, name)
        arrays[name] = (lo + u[:, rho] * (hi - lo)).ravel()
    return Realization(
        L=int(L),
        seed=int(seed),
        sample_id=int(sample_id),
        law=law,
        a=arrays["a"],
        h=arrays["h"],
        sy=arrays["sigma_y"],
    )


def restrict(big: Realization, L: int) -> Realization:
    """Sub-realization on the box [0, L)^2 of a realization on a larger box.

    Bitwise equal to sample(big.law, big.seed, big.sample_id, L).
    """
    if L > big.L:
        raise ValueError(f"cannot restrict L={big.L} to larger L={L}")
    if L < 1:
        raise ValueError(f"lattice side must be >= 1, got {L}")
    if L == big.L:
        return big
    x = np.tile(np.arange(L), L)
    y = np.repeat(np.arange(L), L)
    node_big = y * big.L + x
    idx = np.concatenate([alpha * big.L**2 + node_big for alpha in range(K)])
    return Realization(
        L=int(L),
        seed=big.seed,
        sample_id=big.sample_id,
        law=big.law,
        a=big.a[idx],
        h=big.h[idx],
        sy=big.sy[idx],
    )
