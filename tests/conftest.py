"""Shared fixtures: default-resolution measures, canonicalized domains, and
the bent scan and the bent and wavy certificates, which several modules
read and which each take tens of seconds; and the tracemalloc peak of a
call, which the memory tests of several modules measure the same way."""

import tracemalloc

import numpy as np
import pytest

from capfold.bounds import planar_bound_certificate
from capfold.directions import canonicalize, scan_caps
from capfold.measures import (
    ConformalDomain,
    disk_quadrature,
    pullback_measure,
    sphere_quadrature,
)


@pytest.fixture(scope="session")
def uniform_disk():
    return disk_quadrature(96, 192)


@pytest.fixture(scope="session")
def bent_domain():
    """The workhorse asymmetric domain z + 0.3 z^2."""
    return ConformalDomain([1.0, 0.3])


@pytest.fixture(scope="session")
def bent_canonical(bent_domain):
    """Canonicalized pullback measure of z + 0.3 z^2 with its transform."""
    raw = pullback_measure(bent_domain, 96, 192)
    return canonicalize(raw)


@pytest.fixture(scope="session")
def bent_scan(bent_canonical):
    """Cap scan of the canonicalized z + 0.3 z^2 measure."""
    canon, _ = bent_canonical
    return scan_caps(canon)


@pytest.fixture(scope="session")
def bent_certificate(bent_domain):
    return planar_bound_certificate(bent_domain, "bent")


@pytest.fixture(scope="session")
def wavy_certificate():
    return planar_bound_certificate(ConformalDomain([1.0, 0.2, 0.05]), "wavy")


@pytest.fixture(scope="session")
def sphere3_uniform():
    g = sphere_quadrature(3, resolution=16)
    return g.scaled(1.0 / g.total_mass)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture(scope="session")
def peak_bytes():
    """``peak_bytes(call)``: the tracemalloc peak, in bytes, of a second
    ``call()``; the first, untraced, fills the caches the call reads."""

    def measure(call):
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure
