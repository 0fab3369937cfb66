"""Shared scenario builders for the test suite."""

import numpy as np

from hetnet_tr.beamform import BeamformerSet, design_beamformers
from hetnet_tr.channel import ScenarioConfig, draw_channel_set, place_nodes
from hetnet_tr.sinr import couple


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
