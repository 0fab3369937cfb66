"""Network geometry and tapped-delay-line channel generation.

Distances are in meters, tap variances follow the ITU power-delay profiles
scaled by a distance power law.  Profile dBm columns are relative weights
(0 dBm maps to 1.0); absolute scaling is irrelevant because only power
ratios enter any SINR.
"""

import json
from dataclasses import dataclass, field, fields
from importlib import resources

import numpy as np

from .errors import ConfigError

# tier radii and placement distance (meters)
D_MACRO = 300.0
D_FEMTO = 30.0
D_MBS_FBS = 100.0

# pathloss exponents for outdoor, indoor, and cross-tier links
EXP_MACRO = 4.0
EXP_FEMTO = 3.0
EXP_CROSS = 3.5


@dataclass(frozen=True)
class TapProfile:
    """Power-delay profile: per-tap relative delay (ns) and average power (dBm)."""

    name: str
    delays_ns: tuple
    powers_dbm: tuple

    @property
    def n_taps(self):
        return len(self.powers_dbm)

    @property
    def linear_powers(self):
        return np.power(10.0, np.asarray(self.powers_dbm, dtype=float) / 10.0)


def _load_catalog():
    raw = json.loads(
        resources.files("hetnet_tr").joinpath("data/itu_profiles.json").read_text()
    )
    catalog = {}
    for key, entry in raw.items():
        prof = TapProfile(
            name=entry["name"],
            delays_ns=tuple(entry["delays_ns"]),
            powers_dbm=tuple(entry["powers_dbm"]),
        )
        delays = np.asarray(prof.delays_ns, dtype=float)
        if prof.n_taps < 1 or delays[0] != 0.0 or (np.diff(delays) <= 0).any():
            raise ConfigError(f"profile '{key}': delays must increase from 0")
        if prof.powers_dbm[0] != 0:
            raise ConfigError(f"profile '{key}': first tap must be 0 dBm")
        catalog[key] = prof
    return catalog


_CATALOG = None


def get_profile(key):
    """Catalog lookup: 'indoor_office', 'vehicular', or 'outdoor_to_indoor'."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _load_catalog()
    try:
        return _CATALOG[key]
    except KeyError:
        raise ConfigError(f"unknown tap profile '{key}'") from None


@dataclass
class ScenarioConfig:
    """System-level parameters; dB/dBm fields convert to linear only here."""

    m0: int = 4
    m1: int = 4
    n0: int = 2
    n1: int = 2
    taps: int = 6
    gamma_m_db: float = 1.0
    gamma_f_db: float = 2.0
    p_tol_dbm: float = -10.0
    noise_power: float = 1e-12
    d_macro: float = D_MACRO
    d_femto: float = D_FEMTO
    d_mbs_fbs: float = D_MBS_FBS
    exp_macro: float = EXP_MACRO
    exp_femto: float = EXP_FEMTO
    exp_cross: float = EXP_CROSS
    seed: int = 12345

    @property
    def gamma_m(self):
        return 10.0 ** (self.gamma_m_db / 10.0)

    @property
    def gamma_f(self):
        return 10.0 ** (self.gamma_f_db / 10.0)

    @property
    def p_tol(self):
        """Cross-tier interference cap in watts."""
        return 10.0 ** ((self.p_tol_dbm - 30.0) / 10.0)

    def validate(self):
        for f in fields(self):
            if f.type is float and not np.isfinite(getattr(self, f.name)):
                raise ConfigError(
                    f"{f.name} must be finite, got {getattr(self, f.name)}")
        if min(self.m0, self.m1, self.n0, self.n1, self.taps) < 1:
            raise ConfigError("antenna/user/tap counts must be >= 1")
        longest = max(get_profile(key).n_taps for key, _ in _LINK_RULES.values())
        if self.taps < longest:
            raise ConfigError(
                f"taps must cover the longest channel profile: got "
                f"{self.taps} < {longest}")
        if self.m0 * self.taps < (2 * self.taps - 1) * self.n0:
            raise ConfigError(
                "macro ZF needs M0*L >= (2L-1)*N0; got "
                f"{self.m0}*{self.taps} < {2 * self.taps - 1}*{self.n0}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.noise_power <= 0.0:
            raise ConfigError("noise_power must be positive")
        for key, linear in (("gamma_m_db", "gamma_m"),
                            ("gamma_f_db", "gamma_f"), ("p_tol_dbm", "p_tol")):
            try:
                finite = np.isfinite(getattr(self, linear))
            except OverflowError:
                finite = False
            if not finite:
                raise ConfigError(
                    f"{key} must be finite in linear units: "
                    f"{getattr(self, key):g} overflows a double")
            # a target of 0 is met by zero power, which no solve certifies
            if key != "p_tol_dbm" and not getattr(self, linear) > 0.0:
                raise ConfigError(
                    f"{key} must be positive in linear units: "
                    f"{getattr(self, key):g} underflows to 0")
        if min(self.d_macro, self.d_femto, self.d_mbs_fbs) <= 0.0:
            raise ConfigError("radii and placement distance must be positive")
        # place_nodes resamples zero distances, and a disc whose squared
        # radius underflows yields nothing else
        for key in ("d_macro", "d_femto"):
            radius = float(getattr(self, key))
            if radius * radius < np.finfo(float).tiny:
                raise ConfigError(
                    f"{key} = {radius:g} m is below double precision: its "
                    f"square {radius * radius:g} is not a normal double")
        # place_nodes squares every link distance, and none exceeds this
        far = float(self.d_mbs_fbs) + max(float(self.d_macro),
                                          float(self.d_femto))
        if not np.isfinite(far * far):
            key = max(("d_macro", "d_femto", "d_mbs_fbs"),
                      key=lambda k: getattr(self, k))
            raise ConfigError(
                f"{key} = {getattr(self, key):g} m puts the farthest link, "
                f"d_mbs_fbs + max(d_macro, d_femto) = {far:g} m, beyond "
                f"double precision: its square is not finite")
        return self


@dataclass
class Geometry:
    """Link distances in meters for one random placement.

    d_0n: MBS to MU_n.  d_1j: FBS to FU_j.  d_01j: MBS to FU_j.
    d_10n: FBS to MU_n.  d_mbs_fbs: MBS to FBS.
    """

    d_0n: np.ndarray
    d_1j: np.ndarray
    d_01j: np.ndarray
    d_10n: np.ndarray
    d_mbs_fbs: float = D_MBS_FBS


@dataclass
class ChannelSet:
    """All four link groups as (antennas, users, taps) complex arrays."""

    h0: np.ndarray    # MBS -> MU,  (M0, N0, L)
    h1: np.ndarray    # FBS -> FU,  (M1, N1, L)
    h10: np.ndarray   # FBS -> MU,  (M1, N0, L)
    h01: np.ndarray   # MBS -> FU,  (M0, N1, L)

    @property
    def taps(self):
        return self.h0.shape[2]


def _uniform_disc(rng, n, radius):
    """n points uniform in a disc: radius scales as sqrt of a uniform draw."""
    r = radius * np.sqrt(rng.random(n))
    theta = 2.0 * np.pi * rng.random(n)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def place_nodes(config, rng):
    """Drop the FBS, MUs, and FUs and return all pairwise link distances.

    The FBS sits exactly d_mbs_fbs meters from the MBS at a uniform angle.
    MUs are uniform in the macro disc, FUs uniform in the femto disc.
    Degenerate zero distances are resampled.
    """
    theta = 2.0 * np.pi * rng.random()
    fbs = config.d_mbs_fbs * np.array([np.cos(theta), np.sin(theta)])

    mu = _uniform_disc(rng, config.n0, config.d_macro)
    d_0n = np.linalg.norm(mu, axis=1)
    d_10n = np.linalg.norm(mu - fbs, axis=1)
    while (d_0n == 0.0).any() or (d_10n == 0.0).any():
        bad = (d_0n == 0.0) | (d_10n == 0.0)
        mu[bad] = _uniform_disc(rng, int(bad.sum()), config.d_macro)
        d_0n = np.linalg.norm(mu, axis=1)
        d_10n = np.linalg.norm(mu - fbs, axis=1)

    fu_local = _uniform_disc(rng, config.n1, config.d_femto)
    d_1j = np.linalg.norm(fu_local, axis=1)
    while (d_1j == 0.0).any():
        bad = d_1j == 0.0
        fu_local[bad] = _uniform_disc(rng, int(bad.sum()), config.d_femto)
        d_1j = np.linalg.norm(fu_local, axis=1)
    d_01j = np.linalg.norm(fu_local + fbs, axis=1)

    return Geometry(d_0n=d_0n, d_1j=d_1j, d_01j=d_01j, d_10n=d_10n,
                    d_mbs_fbs=config.d_mbs_fbs)


def draw_cirs(profile, distances, exponent, L, n_tx, rng):
    """CIRs from n_tx antennas to users at distances: (n_tx, users, L).

    Tap l at distance d is CN(0, sigma_l^2 / d^exponent), independent across
    taps, sigma_l^2 the profile's relative linear power, zero-padded to L.
    Every distance is checked, then one C-order standard normal block
    (n_tx, users, 2, taps) is drawn: real taps, then imaginary taps.
    """
    powers = profile.linear_powers
    n_users, n_taps = len(distances), profile.n_taps
    var = np.empty((n_users, n_taps))
    for i, distance in enumerate(distances):
        if distance <= 0.0:
            raise ValueError(f"link distance must be positive, got {distance}")
        if n_taps > L:
            raise ValueError(
                f"profile '{profile.name}' has {n_taps} taps, more than L={L}")
        # a scalar power: an array np.power may round the loss differently
        with np.errstate(over="ignore", divide="ignore"):
            loss = np.float64(distance) ** exponent
            var[i] = powers / loss
        if not (0.0 < loss < np.inf and np.isfinite(var[i]).all()):
            raise ConfigError(f"tap variance zero or not finite at {distance:g} "
                              f"m with path-loss exponent {exponent:g}")
    z = rng.standard_normal((n_tx, n_users, 2, n_taps))
    cirs = np.zeros((n_tx, n_users, L), dtype=complex)
    cirs[..., :n_taps] = np.sqrt(var / 2.0) * (z[..., 0, :] + 1j * z[..., 1, :])
    return cirs


# profile key and pathloss-exponent attribute for each link group
_LINK_RULES = {
    "h0": ("vehicular", "exp_macro"),
    "h1": ("indoor_office", "exp_femto"),
    "h01": ("outdoor_to_indoor", "exp_cross"),
    "h10": ("outdoor_to_indoor", "exp_cross"),
}


def draw_channel_set(config, geometry, rng):
    """One draw_cirs block per link group, drawn h0, h1, h10, h01.

    Macro links use the Vehicular profile (exponent 4), femto links the
    Indoor Office profile (exponent 3), and both cross-tier groups the
    Outdoor-to-Indoor profile (exponent 3.5) at their own geometry.
    """
    def group(name, n_tx, distances):
        key, exp_attr = _LINK_RULES[name]
        return draw_cirs(get_profile(key), distances,
                         getattr(config, exp_attr), config.taps, n_tx, rng)

    return ChannelSet(h0=group("h0", config.m0, geometry.d_0n),
                      h1=group("h1", config.m1, geometry.d_1j),
                      h10=group("h10", config.m1, geometry.d_10n),
                      h01=group("h01", config.m0, geometry.d_01j))
