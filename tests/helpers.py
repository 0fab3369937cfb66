"""Shared scenario builders for the test suite."""

import numpy as np

from hetnet_tr.beamform import BeamformerSet, design_beamformers
from hetnet_tr.channel import ScenarioConfig, draw_channel_set, place_nodes
from hetnet_tr.sinr import Coupling, couple


def random_scenario(seed, n1=2, **cfg_kwargs):
    """One validated config, placement, and channel draw."""
    cfg = ScenarioConfig(n1=n1, seed=seed, **cfg_kwargs).validate()
    rng = np.random.default_rng(seed)
    geo = place_nodes(cfg, rng)
    ch = draw_channel_set(cfg, geo, rng)
    return cfg, geo, ch


def designed_scenario(seed, n1=2, **cfg_kwargs):
    """Scenario plus the full two-tier beamformer design."""
    cfg, geo, ch = random_scenario(seed, n1=n1, **cfg_kwargs)
    return cfg, geo, ch, design_beamformers(ch)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def tr_coupling(channels, g, beta):
    """couple() of TR beams g beside silent ZF beams.

    Its TR columns, MU rows included, are those of any full coupling of g;
    for channels whose MUs admit no ZF design.
    """
    n0 = channels.h0.shape[1]
    silent = BeamformerSet(u=np.zeros_like(channels.h0),
                           alpha=np.ones(n0, dtype=int), g=g, beta=beta)
    return couple(channels, silent)


def macro_coupling(delta, caps):
    """Coupling whose MUs pose the per-user problems of macro_kkt_oracle.

    MU n has main-tap power 1, own ISI delta[n] and no leakage onto the
    other MUs; FU j's row holds caps[:, j], the interference a unit of each
    MU's power causes there. solve_macro with cross_star = nabla and
    noise = 0 then solves p >= gamma (delta p + nabla) under caps p <= p_tol.
    """
    caps = np.asarray(caps, dtype=float)
    n0, n1 = caps.shape
    co = np.zeros((n0 + n1, n0 + n1))
    co[n0:, :n0] = caps.T
    return Coupling(np.ones(n0 + n1),
                    np.concatenate([np.asarray(delta, dtype=float),
                                    np.zeros(n1)]), co, n0)
