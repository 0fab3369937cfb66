"""Received-power decomposition and SINR evaluation.

Each user samples a single tap of its length-(2L-1) received vector: MUs
the tap selected by the ZF sweep, FUs the central tap. Powers of distinct
users add incoherently (independent unit-power symbols), so every
interference term is a sum of per-user transmit power times a squared
response norm.

All of those norms, and each user's power at its sampling tap, come from
one Coupling per realization: the combined response of every beam at
every victim, reduced once to a response energy and a sampled power.
"""

from dataclasses import dataclass

import numpy as np

from .linops import responses


@dataclass(frozen=True)
class PowerBreakdown:
    """Watts at one user's sampling tap, split by origin."""

    sig: float
    isi: float
    co: float
    cross: float
    noise: float


def coupling_terms(filters, cirs, taps, first=0):
    """Per-unit-power coupling of K beams with V victim users.

    filters (M, K, L) and cirs (M, V, L) share the M transmit antennas.
    Returns (energy (V, K), signal (K,)): energy[v, k] sums |r|^2 over all
    2L-1 taps of beam k's combined response r at victim v
    (linops.responses), and signal[k] is |r[taps[k] - 1]|^2 at beam k's
    own victim, first + k.
    """
    _, K, L = filters.shape
    bands = 2 * L - 1
    taps = np.broadcast_to(np.asarray(taps, dtype=int), (K,))
    if ((taps < 1) | (taps > bands)).any():
        raise ValueError(f"selected taps {taps.tolist()} outside 1..{bands}")
    resp = responses(filters, cirs)
    beams = np.arange(K)
    signal = np.abs(resp[first + beams, beams, taps - 1]) ** 2
    return np.sum(np.abs(resp) ** 2, axis=-1), signal


@dataclass(frozen=True)
class Coupling:
    """Per-unit-power coupling of one realization's beams with its users.

    Rows are the victim users, the N0 MUs then the N1 FUs. Beams (columns)
    serve users first, first+1, ...: all R = N0 + N1 beams (first = 0),
    the N0 ZF beams alone (first = 0) or the N1 TR beams alone
    (first = N0). energy[v, k] is beam k's response energy at victim v;
    signal[k] is beam k's power at its own victim's sampling tap. Only
    couple, macro_coupling and femto_coupling build it, and the power
    layer reads the beams through it alone.
    """

    n0: int
    first: int
    energy: np.ndarray
    signal: np.ndarray

    @property
    def n1(self):
        return self.energy.shape[0] - self.n0

    @property
    def macro(self):
        """Columns of the ZF beams."""
        if self.first != 0:
            raise ValueError("coupling holds no ZF beams")
        return slice(0, self.n0)

    @property
    def femto(self):
        """Columns of the TR beams."""
        start = self.n0 - self.first
        if start + self.n1 > self.energy.shape[1]:
            raise ValueError("coupling holds no TR beams")
        return slice(start, start + self.n1)

    def breakdown(self, v, p0, p1, noise_power, cross_override=None):
        """Power components at victim v (MUs then FUs).

        p0 and p1 are the macro and femto powers; cross_override replaces
        the other tier's term, which is then not read: p0 may be None at
        an FU, and a coupling of the TR beams alone serves.
        """
        mu = v < self.n0
        own, own_p = (self.macro, p0) if mu else (self.femto, p1)
        row = self.energy[v]
        col = v - self.first
        k = col - own.start
        main = own_p[k] * self.signal[col]
        isi = own_p[k] * row[col] - main
        same = own_p * row[own]
        same[k] = 0.0
        if cross_override is not None:
            cross = float(cross_override)
        else:
            other, other_p = (self.femto, p1) if mu else (self.macro, p0)
            cross = np.sum(other_p * row[other])
        return PowerBreakdown(sig=main, isi=isi, co=np.sum(same), cross=cross,
                              noise=noise_power)


def victim_sinrs(energy, signal, powers, n0, noise, cross_override=None):
    """SINR of every victim, the n0 MUs then the FUs.

    energy (R, R) and signal (R,) couple R beams with their R victim users,
    victim v's own beam in column v (a Coupling of every beam, or
    coupling_terms of one tier alone with n0 = 0); powers (R,) are the
    transmit powers. Beams of a victim's own tier add co-tier
    interference, the others cross-tier interference; cross_override,
    when given, replaces the cross-tier term at every FU.
    """
    p = np.asarray(powers, dtype=float)
    weighted = energy * p
    np.fill_diagonal(weighted, 0.0)
    fu = np.arange(p.size) >= n0
    same = fu[:, None] == fu[None, :]
    co = np.where(same, weighted, 0.0).sum(axis=1)
    cross = np.where(same, 0.0, weighted).sum(axis=1)
    if cross_override is not None:
        cross[n0:] = cross_override
    isi = p * (np.diagonal(energy) - signal)
    return p * signal / (isi + co + cross + noise)


def macro_coupling(channels, u, alpha):
    """Coupling of the ZF beams alone."""
    energy, signal = coupling_terms(
        u, np.concatenate([channels.h0, channels.h01], axis=1), alpha)
    return Coupling(n0=channels.h0.shape[1], first=0, energy=energy,
                    signal=signal)


def femto_coupling(channels, g, beta):
    """Coupling of the TR beams alone, all sampled at tap beta."""
    n0 = channels.h10.shape[1]
    energy, signal = coupling_terms(
        g, np.concatenate([channels.h10, channels.h1], axis=1), beta,
        first=n0)
    return Coupling(n0=n0, first=n0, energy=energy, signal=signal)


def couple(channels, beams):
    """Every beam of a BeamformerSet against every victim."""
    macro = macro_coupling(channels, beams.u, beams.alpha)
    femto = femto_coupling(channels, beams.g, beams.beta)
    return Coupling(n0=macro.n0, first=0,
                    energy=np.hstack([macro.energy, femto.energy]),
                    signal=np.concatenate([macro.signal, femto.signal]))


def mu_breakdown(channels, beams, p0, p1, n, noise_power):
    """Power components at MU n sampled at its selected tap."""
    return couple(channels, beams).breakdown(n, p0, p1, noise_power)


def fu_breakdown(channels, beams, p0, p1, j, noise_power,
                 cross_override=None):
    """Power components at FU j sampled at the central tap.

    cross_override replaces the macro-induced term; the femto solver uses
    it with the tolerated cap, since actual macro powers are unknown when
    the femto tier commits its allocation. The macro beams are then not
    read.
    """
    v = channels.h0.shape[1] + j
    if cross_override is None:
        if p0 is None:
            raise ValueError("need macro powers or an explicit cross override")
        coupling = couple(channels, beams)
    else:
        coupling = femto_coupling(channels, beams.g, beams.beta)
    return coupling.breakdown(v, p0, p1, noise_power, cross_override)


def sinr(b):
    """sig over (isi + co + cross + noise)."""
    denom = b.isi + b.co + b.cross + b.noise
    if denom == 0.0:
        raise ValueError("SINR undefined: zero interference and zero noise")
    return b.sig / denom
