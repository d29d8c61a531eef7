"""Transplantation of profiles through the Green function and its certificates.

Given the maps built from a converged Green table, a non-increasing radial
profile u is pushed to v(t) = u(a(t)) on the t-grid.  The change of
variables turns the gradient energy of u into a pure t-energy plus a
phi-weighted excess, and the potential term into a phi'-weighted integral;
the Hardy-type lemma bounds the excess by the potential integral, which is
exactly what makes the deficit energy of u dominate the Dirichlet energy
of v.  Every identity and inequality in that chain is evaluated here with
independent quadratures and reported as a defect or a signed margin.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple, Tuple

import numpy as np

from .errors import PreconditionError
from .functionals import (
    RadialProfile,
    clamped_exp,
    grad_energy,
    mt_exponent,
    potential_term,
    singular_mt,
)
from .green import TransplantMaps
from .quad_core import integrate, make_constants

__all__ = [
    "TransplantReport",
    "MTComparison",
    "pushforward",
    "verify_grad_identity",
    "verify_hardy_identity",
    "check_mt_comparison",
    "transplant_report",
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
    grad_defect_signed: float
    hardy_defect_signed: float

    def to_dict(self) -> dict:
        """The reported fields, in field order; the two signed defects stay internal."""
        return {key: getattr(self, key) for key in _REPORTED}


_REPORTED = tuple(f.name for f in fields(TransplantReport)
                  if f.name not in ("grad_defect_signed", "hardy_defect_signed"))


class MTComparison(NamedTuple):
    margin: float
    identity_defect: float
    overflow: bool


def pushforward(u: RadialProfile, maps: TransplantMaps) -> RadialProfile:
    """v(t) = u(a(t)) sampled on the t-grid; non-increasing with v = 0 at t -> 1."""
    if not u.is_nonincreasing(tol=1e-9):
        raise PreconditionError("pushforward requires a non-increasing profile; rearrange first")
    vals = u.evaluate(maps.a_plan) if u.grid is maps.r_grid else u(maps.a)
    vals = np.maximum.accumulate(vals[::-1])[::-1]  # monotone composition, minus jitter
    return RadialProfile(maps.t_grid, vals, enforce_zero_boundary=True)


def _t_integrals(v: RadialProfile, maps: TransplantMaps) -> Tuple[float, float, float]:
    """The chain's t-side integrals (grad_v, grad_phi, hardy_t), each omega times

        int |v'|^n t^(n-1) dt,  int |v'|^n t^(n-1) phi dt,  int v^n phi' (-ln t)^(1-n) dt.
    """
    n = maps.n
    c = make_constants(n)
    vp_pow = np.abs(v.derivative) ** n * maps.t_grid.nodes_pow(n - 1)
    grad_v = c.omega * integrate(vp_pow, maps.t_grid)
    grad_phi = c.omega * integrate(vp_pow * maps.phi, maps.t_grid)
    hardy_t = c.omega * integrate(v.values**n * maps.hardy_weight, maps.t_grid)
    return grad_v, grad_phi, hardy_t


def verify_grad_identity(u: RadialProfile, v: RadialProfile, maps: TransplantMaps) -> float:
    """Relative defect of grad_energy(u) = omega int |v'|^n t^(n-1) (1 + phi) dt."""
    grad_u = grad_energy(u, maps.n)
    grad_v, grad_phi, _ = _t_integrals(v, maps)
    return abs(grad_u - (grad_v + grad_phi)) / max(1.0, grad_u)


def verify_hardy_identity(u: RadialProfile, v: RadialProfile, maps: TransplantMaps) -> float:
    """Relative defect of int V |u|^n dx = omega int v^n phi' (-ln t)^(1-n) dt."""
    hardy_u = potential_term(u, maps.potential, maps.n)
    _, _, hardy_t = _t_integrals(v, maps)
    return abs(hardy_u - hardy_t) / max(1.0, hardy_u)


def check_mt_comparison(u: RadialProfile, v: RadialProfile, maps: TransplantMaps) -> MTComparison:
    """Comparison of the singular exponential integrals of u and v at the maps' beta.

    margin = e^((1-beta/n) alpha_n c_g) * singular_mt(v) - singular_mt(u),
    nonnegative because a(t)/t stays below e^(c_g/gamma).  Also verifies the
    intermediate identity writing singular_mt(u) as a psi-weighted t-integral.
    """
    n, beta = maps.n, maps.beta
    c = make_constants(n)
    mt_u = singular_mt(u, n, beta)
    mt_v = singular_mt(v, n, beta)
    factor = np.exp((1.0 - beta / n) * c.alpha_n * maps.c_g)
    margin = factor * mt_v.value - mt_u.value

    exp_v, clamped = clamped_exp(mt_exponent(v.values, n, beta))
    integrand = exp_v * maps.t_grid.nodes_pow(n - beta - 1.0) * maps.psi
    mt_u_via_t = c.omega * integrate(integrand, maps.t_grid)
    identity_defect = abs(mt_u_via_t - mt_u.value) / max(1.0, mt_u.value)
    return MTComparison(margin, identity_defect,
                        mt_u.overflow or mt_v.overflow or bool(clamped.any()))


def transplant_report(u: RadialProfile, maps: TransplantMaps) -> TransplantReport:
    """Run the full certification chain for one admissible profile at the maps' beta."""
    n = maps.n
    v = pushforward(u, maps)
    grad_v, grad_phi, hardy_t = _t_integrals(v, maps)
    grad_u = grad_energy(u, n)
    hardy_u = potential_term(u, maps.potential, n)
    d_grad_signed = grad_u - (grad_v + grad_phi)
    d_hardy_signed = hardy_u - hardy_t
    mt = check_mt_comparison(u, v, maps)
    return TransplantReport(
        grad_u=grad_u,
        grad_v=grad_v,
        hardy_u=hardy_u,
        identity_grad_defect=abs(d_grad_signed) / max(1.0, grad_u),
        identity_hardy_defect=abs(d_hardy_signed) / max(1.0, hardy_u),
        hardy_lemma_margin=grad_phi - hardy_t,
        key_margin=(grad_u - hardy_u) - grad_v,
        mt_comparison_margin=mt.margin,
        psi_identity_defect=mt.identity_defect,
        overflow=mt.overflow,
        grad_defect_signed=d_grad_signed,
        hardy_defect_signed=d_hardy_signed,
    )
