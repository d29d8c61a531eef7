"""Transplantation of profiles through the Green function and its certificates.

Given the maps built from a converged Green table, a non-increasing radial
profile u is pushed to v(t) = u(a(t)) on the t-grid.  The change of
variables turns the gradient energy of u into a pure t-energy plus a
phi-weighted excess, and the potential term into a phi'-weighted integral;
the Hardy-type lemma bounds the excess by the potential integral, which is
exactly what makes the deficit energy of u dominate the Dirichlet energy
of v.  Every identity and inequality in that chain is evaluated here with
independent quadratures and reported as a defect or a signed margin.

The chain runs on a (k, N) stack of profiles as on one: ``pushforward``,
``check_mt_comparison`` and ``transplant_report`` take either, do each
step for all rows in one set of array operations and sum each row on its
own (``quad_core.integrate``), so a report does not depend on the rows
certified with it.  A stack gives one report per row; one profile is the
one-row case, and ``verify_grad_identity`` and ``verify_hardy_identity``
read its report.  Its n-th-power integrals go through ``power_integral``
but the t-side gradient pair, which shares one |v'|^n buffer.  The MT
exponent is formed once and serves v too when v holds u's node values, as
on the image grid: at n >= 4 it is a libm pow, over ten times the cost of the check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError
from .functionals import (
    RadialProfile,
    grad_energy,
    mt_exponent,
    mt_integrand,
    nonincreasing_majorant,
    potential_term,
    power_integral,
    singular_mt,
)
from .green import TransplantMaps
from .quad_core import int_pow, integrate, make_constants

__all__ = [
    "TransplantReport",
    "check_mt_comparison",
    "pushforward",
    "transplant_report",
    "verify_grad_identity",
    "verify_hardy_identity",
]


@dataclass
class TransplantReport:
    """Defects and margins of the full transplantation chain for one profile."""

    grad_u: float
    grad_v: float
    hardy_u: float
    identity_grad_defect: float
    identity_hardy_defect: float
    hardy_lemma_margin: float
    key_margin: float
    mt_comparison_margin: float
    psi_identity_defect: float
    overflow: bool

    def to_dict(self) -> dict:
        """The fields, in field order; shallow, as asdict's deep copy costs more than the report."""
        return dict(vars(self))


class MTComparison(NamedTuple):
    margin: float
    identity_defect: float
    overflow: bool


def pushforward(u: RadialProfile, maps: TransplantMaps) -> RadialProfile:
    """v(t) = u(a(t)) sampled on the t-grid; non-increasing with v = 0 at t -> 1.

    On the image grid of u's own grid (``maps.image_of``) a(t_i) = r_i, so v
    is u's node data; elsewhere u's monotone cubic is evaluated at a(t).
    A stack of profiles gives the stack of their pushforwards.
    """
    if not u.is_nonincreasing(tol=1e-9):
        raise PreconditionError("pushforward requires a non-increasing profile; rearrange first")
    vals = u.values if u.grid is maps.image_of else u(maps.a)
    vals = nonincreasing_majorant(vals)  # monotone composition, minus jitter
    return RadialProfile(maps.t_grid, vals, enforce_zero_boundary=True)


def _t_integrals(v: RadialProfile, maps: TransplantMaps):
    """The chain's t-side integrals (grad_v, grad_phi, hardy_t) of v, each omega times

        int |v'|^n t^(n-1) dt,  int |v'|^n t^(n-1) phi dt,  int v^n phi' (-ln t)^(1-n) dt.
    """
    n = maps.n
    c = make_constants(n)
    vp_pow = int_pow(np.abs(v.slopes), n)
    vp_pow *= maps.t_grid.nodes_pow(n - 1)
    grad_v = c.omega * integrate(vp_pow, maps.t_grid)
    vp_pow *= maps.phi
    grad_phi = c.omega * integrate(vp_pow, maps.t_grid)
    hardy_t = c.omega * power_integral(v.values, n, maps.t_grid, maps.hardy_weight)
    return grad_v, grad_phi, hardy_t


def verify_grad_identity(u: RadialProfile, v: RadialProfile, maps: TransplantMaps) -> float:
    """Relative defect of grad_energy(u) = omega int |v'|^n t^(n-1) (1 + phi) dt, for one profile."""
    return _chain(u, v, maps).identity_grad_defect


def verify_hardy_identity(u: RadialProfile, v: RadialProfile, maps: TransplantMaps) -> float:
    """Relative defect of int V |u|^n dx = omega int v^n phi' (-ln t)^(1-n) dt, for one profile."""
    return _chain(u, v, maps).identity_hardy_defect


def check_mt_comparison(u: RadialProfile, v: RadialProfile, maps: TransplantMaps) -> MTComparison:
    """Comparison of the singular exponential integrals of u and v at the maps' beta.

    margin = e^((1-beta/n) alpha_n c_g) * singular_mt(v) - singular_mt(u),
    nonnegative because a(t)/t stays below e^(c_g/gamma).  Also verifies the
    intermediate identity writing singular_mt(u) as a psi-weighted t-integral.
    On a stack every field holds one entry per profile.
    """
    n, beta = maps.n, maps.beta
    c = make_constants(n)
    x = mt_exponent(u.values, n, beta)
    mt_u = singular_mt(u, n, beta, exponent=x)
    vals_v, clamped_v = mt_integrand(v.values, v.grid, n, beta,
                                     exponent=x if np.array_equal(u.values, v.values) else None)
    mt_v = c.omega * integrate(vals_v, maps.t_grid)
    margin = np.exp((1.0 - beta / n) * c.alpha_n * maps.c_g) * mt_v - mt_u.value
    vals_v *= maps.psi
    mt_u_via_t = c.omega * integrate(vals_v, maps.t_grid)
    identity_defect = abs(mt_u_via_t - mt_u.value) / np.maximum(1.0, mt_u.value)
    return MTComparison(margin, identity_defect, mt_u.overflow | clamped_v.any(axis=-1))


def transplant_report(u: RadialProfile, maps: TransplantMaps):
    """Run the full certification chain at the maps' beta.

    One admissible profile gives its TransplantReport; a (k, N) stack gives
    the list of its k rows' reports, each equal to the report of its row alone.
    """
    return _chain(u, pushforward(u, maps), maps)


def _chain(u: RadialProfile, v: RadialProfile, maps: TransplantMaps):
    """transplant_report of u, given its pushforward v."""
    n = maps.n
    hardy_u = potential_term(u, maps.potential, n)
    grad_u = grad_energy(u, n)
    grad_v, grad_phi, hardy_t = _t_integrals(v, maps)
    mt = check_mt_comparison(u, v, maps)
    columns = {
        "grad_u": grad_u,
        "grad_v": grad_v,
        "hardy_u": hardy_u,
        "identity_grad_defect": abs(grad_u - (grad_v + grad_phi)) / np.maximum(1.0, grad_u),
        "identity_hardy_defect": abs(hardy_u - hardy_t) / np.maximum(1.0, hardy_u),
        "hardy_lemma_margin": grad_phi - hardy_t,
        "key_margin": (grad_u - hardy_u) - grad_v,
        "mt_comparison_margin": mt.margin,
        "psi_identity_defect": mt.identity_defect,
        "overflow": mt.overflow,
    }
    rows = zip(*(np.atleast_1d(col).tolist() for col in columns.values()))
    reports = [TransplantReport(**dict(zip(columns, row))) for row in rows]
    return reports if u.values.ndim == 2 else reports[0]
