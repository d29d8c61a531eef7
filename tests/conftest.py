import json
from pathlib import Path

import pytest

import hmtlab as hl

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def oracles():
    return json.loads((DATA_DIR / "oracles.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def grids():
    cache = {}

    def get(n_points=2048, eps=1e-6):
        key = (n_points, eps)
        if key not in cache:
            cache[key] = hl.make_grid(n_points, eps)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def green_tables(grids):
    cache = {}

    def get(n, potential="hardy", n_points=2048, eps=1e-6, tol=1e-8):
        # potential is a descriptor: zero | hardy | hardy+lambda=<x> | const=<x>
        key = (n, potential, n_points, eps, tol)
        if key not in cache:
            cache[key] = hl.solve_green(
                n, hl.Potential.parse(potential), grids(n_points, eps), tol=tol, max_iter=2000
            )
        return cache[key]

    return get


@pytest.fixture(scope="session")
def transplant_maps(green_tables):
    cache = {}

    def get(n, beta=0.0, potential="hardy", n_points=4096, eps=1e-6, tol=1e-10,
            n_t=8192, t_min=1e-8):
        key = (n, beta, potential, n_points, eps, tol, n_t, t_min)
        if key not in cache:
            table = green_tables(n, potential, n_points, eps, tol)
            cache[key] = hl.make_maps(table, beta=beta, n_t=n_t, t_min=t_min)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def corpora(grids):
    cache = {}

    def get(n, size=50, seed=1234, n_points=4096, eps=1e-6):
        key = (n, size, seed, n_points, eps)
        if key not in cache:
            cache[key] = hl.seeded_corpus(grids(n_points, eps), n, size, seed).rows()
        return cache[key]

    return get


@pytest.fixture(scope="session")
def bump_corpora(grids):
    cache = {}

    def get(n, size=50, seed=777, n_points=4096, eps=1e-6):
        key = (size, seed, n_points, eps)  # the corpus does not depend on n
        if key not in cache:
            cache[key] = hl.bump_corpus(grids(n_points, eps), size, seed)
        return cache[key]

    return get
