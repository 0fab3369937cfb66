"""Received-power decomposition and SINR evaluation.

Each user samples a single tap of its length-(2L-1) received vector: MUs
the tap selected by the ZF sweep, FUs the central tap. Powers of distinct
users add incoherently (independent unit-power symbols), so every
interference term is a sum of per-user transmit power times a squared
response norm.

All of those norms, and each user's power at its sampling tap, come from
one Coupling per realization: the combined response of every beam at
every victim, reduced once to the per-unit-power signal, ISI and
co-channel coefficients that every SINR and every power design reads.
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

    filters (..., M, K, L) and cirs (..., M, V, L) share the M transmit
    antennas and any leading stack axes, and taps broadcasts to (..., K).
    Returns (energy (..., V, K), signal (..., K)): energy[v, k] sums |r|^2
    over all 2L-1 taps of beam k's combined response r at victim v
    (linops.responses), and signal[k] is |r[taps[k] - 1]|^2 at beam k's
    own victim, first + k.
    """
    *lead, _, K, L = filters.shape
    bands = 2 * L - 1
    taps = np.broadcast_to(np.asarray(taps, dtype=int), (*lead, K))
    if ((taps < 1) | (taps > bands)).any():
        raise ValueError(f"selected taps {taps.tolist()} outside 1..{bands}")
    resp = responses(filters, cirs)
    beams = np.arange(K)
    own = resp[..., first + beams, beams, :]
    signal = np.abs(np.take_along_axis(own, taps[..., None] - 1, axis=-1)[
        ..., 0]) ** 2
    return np.sum(np.abs(resp) ** 2, axis=-1), signal


@dataclass(frozen=True)
class Coupling:
    """Per-unit-power SINR coefficients of R beams at their R victims.

    Beam v serves victim v, and the first n0 of each are the MUs (ZF
    beams), the rest the FUs (TR beams). pl_sig_coeff[v] is the power a
    unit of p_v puts at victim v's sampling tap, pu_isi_coeff[v] the rest
    of beam v's response energy there, and pu_co_coeff[v, k] the energy of
    beam k at victim v (zero diagonal). Victim v meets its target gamma_v
    when p_v pl_sig_coeff[v] >= gamma_v (p_v pu_isi_coeff[v]
    + (pu_co_coeff p)[v] + z_v), free of any target here. Exact channels
    give the coefficients themselves (from_energy; couple builds both
    tiers), the robust design floors and ceilings on them
    (robust.assemble_bounds). A Coupling owns its three arrays and makes
    them read-only when built, so blocks of them can be handed out as
    views. The power layer reads the beams through a Coupling alone.
    """

    pl_sig_coeff: np.ndarray
    pu_isi_coeff: np.ndarray
    pu_co_coeff: np.ndarray
    n0: int = 0

    def __post_init__(self):
        for coeff in (self.pl_sig_coeff, self.pu_isi_coeff, self.pu_co_coeff):
            coeff.flags.writeable = False

    @classmethod
    def from_energy(cls, energy, signal, n0=0):
        """Coupling of response energies energy (R, R) and signal (R,).

        energy[v, k] is beam k's response energy at victim v and signal[v]
        beam v's power at its own victim's sampling tap
        (coupling_terms); the ISI is the rest of the diagonal. energy is
        copied, and signal becomes the Coupling's own array. Both may
        stack realizations along leading axes (unstack splits them).
        """
        co = np.array(energy, dtype=float)
        isi = np.diagonal(co, axis1=-2, axis2=-1) - signal
        victims = np.arange(co.shape[-1])
        co[..., victims, victims] = 0.0
        return cls(signal, isi, co, n0)

    def unstack(self):
        """One Coupling per realization of a stacked Coupling's first axis,
        each a view of its slice."""
        return [Coupling(*coeffs, self.n0) for coeffs in zip(
            self.pl_sig_coeff, self.pu_isi_coeff, self.pu_co_coeff)]

    @property
    def n1(self):
        return self.pl_sig_coeff.shape[-1] - self.n0

    @property
    def macro(self):
        """Rows and columns of the MUs and their ZF beams."""
        return slice(0, self.n0)

    @property
    def femto(self):
        """Rows and columns of the FUs and their TR beams."""
        return slice(self.n0, self.pl_sig_coeff.shape[-1])

    def breakdown(self, v, p0, p1, noise_power, cross_override=None):
        """Power components at victim v (MUs then FUs).

        p0 and p1 are the macro and femto powers; cross_override replaces
        the other tier's term, which is then not read: p0 may be None at
        an FU.
        """
        mu = v < self.n0
        own, own_p = (self.macro, p0) if mu else (self.femto, p1)
        row = self.pu_co_coeff[v]
        p = own_p[v - own.start]
        if cross_override is not None:
            cross = float(cross_override)
        else:
            other, other_p = (self.femto, p1) if mu else (self.macro, p0)
            cross = np.sum(other_p * row[other])
        return PowerBreakdown(sig=p * self.pl_sig_coeff[v],
                              isi=p * self.pu_isi_coeff[v],
                              co=np.sum(own_p * row[own]), cross=cross,
                              noise=noise_power)


def victim_terms(coupling, powers, noise, cross_override=None):
    """(signal, rest) watts of every victim of a Coupling, MUs then FUs.

    powers (R,) are the transmit powers of its beams; signal is each
    victim's power at its sampling tap, rest its ISI, co-tier, cross-tier
    and noise power there. Beams of a victim's own tier add co-tier
    interference, the others cross-tier interference; cross_override,
    when given, replaces the cross-tier term at every FU.
    """
    n0 = coupling.n0
    p = np.asarray(powers, dtype=float)
    weighted = coupling.pu_co_coeff * p
    fu = np.arange(p.size) >= n0
    same = fu[:, None] == fu[None, :]
    co = np.where(same, weighted, 0.0).sum(axis=1)
    cross = np.where(same, 0.0, weighted).sum(axis=1)
    if cross_override is not None:
        cross[n0:] = cross_override
    isi = p * coupling.pu_isi_coeff
    return p * coupling.pl_sig_coeff, isi + co + cross + noise


def victim_sinrs(coupling, powers, noise, cross_override=None):
    """SINR of every victim of a Coupling: signal over rest (victim_terms)."""
    signal, rest = victim_terms(coupling, powers, noise, cross_override)
    return signal / rest


def couple(channels, beams):
    """Every beam of a BeamformerSet against every victim.

    Channels and beams may stack realizations along leading axes, and the
    Coupling's arrays then stack the same way.
    """
    n0 = channels.h0.shape[-2]
    macro = coupling_terms(
        beams.u, np.concatenate([channels.h0, channels.h01], axis=-2),
        beams.alpha)
    femto = coupling_terms(
        beams.g, np.concatenate([channels.h10, channels.h1], axis=-2),
        beams.beta, first=n0)
    return Coupling.from_energy(
        np.concatenate([macro[0], femto[0]], axis=-1),
        np.concatenate([macro[1], femto[1]], axis=-1), n0)


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
    if cross_override is not None:
        femto = Coupling.from_energy(
            *coupling_terms(beams.g, channels.h1, beams.beta))
        return femto.breakdown(j, p0, p1, noise_power, cross_override)
    if p0 is None:
        raise ValueError("need macro powers or an explicit cross override")
    return couple(channels, beams).breakdown(channels.h0.shape[1] + j, p0, p1,
                                             noise_power)


def sinr(b):
    """sig over (isi + co + cross + noise)."""
    denom = b.isi + b.co + b.cross + b.noise
    if denom == 0.0:
        raise ValueError("SINR undefined: zero interference and zero noise")
    return b.sig / denom
