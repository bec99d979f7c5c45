"""Right-hand side of the compressible reacting Navier-Stokes equations.

Assembles eqs. (1)-(4) of the paper in conservative form:

    d(rho)/dt     = -div(rho u)
    d(rho u_a)/dt = -div(rho u_a u) - grad_a p + div(tau_a.)
    d(rho e0)/dt  = -div(u (rho e0 + p)) + div(tau . u) - div(q)
    d(rho Y_i)/dt = -div(rho Y_i u) - div(J_i) + W_i omega_i

with the stress tensor of eq. (14), mixture-averaged species diffusion
of eq. (19) (with the mass-conserving correction velocity enforcing
eq. 15), and the heat flux of eq. (20). Body forces, radiation, Dufour
effect, and barodiffusion are neglected per §2.2-2.5; the Soret term is
optional via the transport model.

Two engines assemble the identical arithmetic:

* ``"batched"`` (default) — the production path. All scalars needing
  d/dx_b (velocity components, T, wbar, every Y_i, and later the
  per-variable flux fields) are packed into one ``(nfields, ...)`` stack
  and differentiated with a single vectorized stencil sweep per
  direction (~3 large sweeps per direction instead of ~2·ndim + 2·ns
  small ones). All intermediate storage comes from a
  :class:`~repro.core.workspace.Workspace` arena, thermo/transport
  properties are memoized per state buffer (shared between the flux
  assembly, the reaction heat release, and :meth:`stable_dt`), and
  results can land in a caller-supplied ``out`` array — a warm
  steady-state evaluation performs zero large engine allocations
  (``rhs.bytes_allocated`` telemetry gauge reads 0).
* ``"naive"`` — the original one-sweep-per-(variable, direction)
  formulation, kept as a bitwise reference and escape hatch
  (``REPRO_RHS_ENGINE=naive``).

The two are bit-exact against each other: same operator coefficients,
same per-element operation order within every field (enforced by
``tests/test_rhs_engine.py``). The diffusive-flux assembly is the kernel
§4.1 restructures; both the batched engine and
:mod:`repro.loopopt.diffflux` call the shared fused implementation in
:mod:`repro.core.kernels`.
"""

from __future__ import annotations

import os

import numpy as np

from repro.backend import resolve_backend
from repro.core.derivatives import gradient_operators
from repro.core.kernels import species_diffusive_flux_dir
from repro.core import nscbc
from repro.core.workspace import Workspace
from repro.telemetry import resolve as resolve_telemetry
from repro.util.constants import RU

#: recognised RHS engine names
ENGINES = ("batched", "naive")


class _EvalProps:
    """Memoized thermo/transport bundle for one state buffer."""

    __slots__ = ("u", "version", "content", "rho", "vel", "T", "p", "Y",
                 "e0", "wbar", "props", "h_i")


class CompressibleRHS:
    """Callable RHS ``f(t, u) -> du/dt`` over conserved arrays.

    Parameters
    ----------
    state:
        A :class:`~repro.core.state.State` used for primitive decoding
        (supplies mechanism, grid, temperature cache).
    transport:
        Transport model with an ``evaluate(T, p, Y)`` method, or None for
        inviscid (Euler) operation.
    boundaries:
        Mapping ``(axis, side) -> BoundarySpec``.
    reacting:
        Include chemical source terms.
    telemetry:
        :class:`~repro.telemetry.Telemetry` backend; kernel blocks are
        traced under the §4 inventory names (THERMOPROPS,
        COMPUTESPECIESDIFFFLUX, COMPUTEHEATFLUX, REACTION_RATES), with
        derivative sweeps nesting their own DERIVATIVES spans so
        exclusive times split out TAU-style. (With the batched engine
        the species-gradient sweeps live in the shared stacked sweep, so
        their DERIVATIVES time no longer nests inside
        COMPUTESPECIESDIFFFLUX.)
    engine:
        ``"batched"`` (default) or ``"naive"``; when None the
        ``REPRO_RHS_ENGINE`` environment variable decides.
    backend:
        Array backend executing the hot kernels: an
        :class:`~repro.backend.ArrayBackend` instance, a registered name
        (``"numpy"``, ``"numba"``, ``"torch"``), or None — in which case
        the ``REPRO_RHS_BACKEND`` environment variable decides, falling
        back to the bitwise-pinned NumPy reference. Non-reference
        backends require the batched engine (the naive engine is the
        reference oracle and stays pure NumPy by definition).
    workspace:
        Optional shared :class:`~repro.core.workspace.Workspace`; by
        default each RHS owns a private arena.
    reaction_delegate:
        Optional hook taking over the chemical source-term evaluation:
        called as ``delegate(rhs, t, rho, T, Y)`` in place of the
        internal ``mech.production_rates`` call. Returning a mass
        production-rate array ``(Ns,) + S`` applies it exactly as the
        internal path would; returning ``None`` *defers* the reaction
        terms entirely — the caller adds them later (the chemistry
        load balancer of :mod:`repro.parallel.chemlb` does this to ship
        per-cell reaction work between ranks). Whenever the delegate is
        consulted, the primitive inputs it saw are stashed on
        :attr:`last_reaction_inputs` as ``(rho, T, Y)`` views (valid
        until the next evaluation).

    Notes
    -----
    With the batched engine, ``__call__`` accepts an optional ``out``
    array (advertised via :attr:`supports_out`) and diagnostic arrays
    such as :attr:`last_heat_release` are workspace-owned — valid until
    the next evaluation.
    """

    def __init__(self, state, transport=None, boundaries=None, reacting=True,
                 telemetry=None, engine=None, workspace=None,
                 reaction_delegate=None, backend=None):
        self.state = state
        self.mech = state.mech
        self.grid = state.grid
        self.transport = transport
        self.boundaries = dict(boundaries or {})
        self.reacting = bool(reacting)
        self.telemetry = resolve_telemetry(telemetry)
        self.backend = resolve_backend(backend)
        self.ops = gradient_operators(
            self.grid, telemetry=self.telemetry, backend=self.backend
        )
        self.ndim = self.grid.ndim
        self._needs_nscbc = any(
            spec.kind != "periodic" for spec in self.boundaries.values()
        )
        if engine is None:
            engine = os.environ.get("REPRO_RHS_ENGINE") or "batched"
        if engine not in ENGINES:
            raise ValueError(f"unknown RHS engine {engine!r}; choose from {ENGINES}")
        if engine == "naive" and not self.backend.is_reference:
            raise ValueError(
                f"RHS backend {self.backend.name!r} requires the batched engine; "
                "the naive engine is the bitwise reference oracle"
            )
        self.engine = engine
        self.workspace = workspace if workspace is not None else Workspace(
            telemetry=self.telemetry, backend=self.backend
        )
        self.telemetry.gauge(f"rhs.backend.{self.backend.name}").set(1.0)
        self.reaction_delegate = reaction_delegate
        self._props_cache = None
        #: populated after every evaluation — kernel-level diagnostics
        self.last_heat_release = None
        #: (rho, T, Y) views from the last delegated evaluation
        self.last_reaction_inputs = None

    @property
    def supports_out(self) -> bool:
        """Whether ``__call__`` computes directly into an ``out`` array."""
        return self.engine == "batched"

    # ------------------------------------------------------------------
    def __call__(self, t, u, out=None):
        if self.engine == "naive":
            du = self._call_naive(t, u)
            if out is not None:
                out[...] = du
                return out
            return du
        return self._call_batched(t, u, out)

    # ------------------------------------------------------------------
    # memoized thermo/transport properties
    # ------------------------------------------------------------------
    def _eval_props(self, u) -> _EvalProps:
        """Primitives + transport + species enthalpies for ``u``, memoized.

        One evaluation is shared between the diffusive-flux, heat-flux,
        and reaction consumers of a single RHS call, and between
        :meth:`stable_dt` and the first integrator stage of a step (both
        see the same buffer). A hit needs the same buffer object, the
        same state version token (bumped by
        :meth:`~repro.core.state.State.mark_modified`), and content
        exactly equal to a copy taken when the memo was filled:
        low-storage RK stages update ``u`` in place between evaluations,
        and on a periodic box that update conserves every sum, so no
        cheaper fingerprint can tell the stages apart.
        """
        st = self.state
        u = np.asarray(u, dtype=float)
        cache = self._props_cache
        if (
            cache is not None
            and cache.u is u
            and cache.version == st.version
            and np.array_equal(cache.content, u)
        ):
            self.telemetry.counter("rhs.props_cache_hits").inc()
            return cache
        be = self.backend
        ws = self.workspace.bind(be)
        with self.telemetry.span("THERMOPROPS"):
            rho, vel, T, p, Y, e0, wbar = st.primitives_ws(u, ws, backend=be)
            props = None
            if self.transport is not None:
                props = be.transport_evaluate(self.transport, T, p, Y, workspace=ws)
            h_i = None
            if self.transport is not None or (self.reacting and self.mech.n_reactions):
                h_i = be.species_enthalpy_mass(self.mech, T)
        pc = _EvalProps()
        pc.u, pc.version, pc.content = u, st.version, u.copy()
        pc.rho, pc.vel, pc.T, pc.p, pc.Y, pc.e0, pc.wbar = rho, vel, T, p, Y, e0, wbar
        pc.props, pc.h_i = props, h_i
        self._props_cache = pc
        return pc

    # ------------------------------------------------------------------
    # batched engine
    # ------------------------------------------------------------------
    def _call_batched(self, t, u, out=None):
        st = self.state
        mech = self.mech
        ndim = self.ndim
        tel = self.telemetry
        ws = self.workspace.bind(self.backend)
        ws.begin_eval()
        u = np.asarray(u, dtype=float)
        if out is not None:
            if out.shape != u.shape:
                raise ValueError(f"out has shape {out.shape}, expected {u.shape}")
            if np.may_share_memory(out, u):
                raise ValueError("out must not alias the state array")
        pc = self._eval_props(u)
        rho, vel, T, p, Y, e0, wbar = (
            pc.rho, pc.vel, pc.T, pc.p, pc.Y, pc.e0, pc.wbar
        )
        S = rho.shape
        ns = mech.n_species
        nt = st.n_transported
        viscous = self.transport is not None
        needs_nscbc = self._needs_nscbc

        # -- primitive gradients: one stacked sweep per direction --------
        # stack layout: [vel_0..vel_{ndim-1}, T] (+ [wbar, Y_0..Y_{ns-1}]
        # when viscous) (+ [rho, p] when characteristic boundaries need
        # them); pure-periodic Euler needs no primitive gradients at all
        grads = None
        idx_t = idx_w = idx_y = idx_rho = idx_p = None
        if viscous or needs_nscbc:
            nf = ndim + 1
            idx_t = ndim
            if viscous:
                idx_w = nf
                idx_y = nf + 1
                nf += 1 + ns
            if needs_nscbc:
                idx_rho = nf
                idx_p = nf + 1
                nf += 2
            gstack = ws.array("rhs.gstack", (nf,) + S)
            gstack[0:ndim] = ws.array("state.vel", (ndim,) + S)
            gstack[idx_t] = T
            if viscous:
                gstack[idx_w] = wbar
                gstack[idx_y : idx_y + ns] = Y
            if needs_nscbc:
                gstack[idx_rho] = rho
                gstack[idx_p] = p
            grads = ws.array("rhs.grads", (ndim, nf) + S)
            for b in range(ndim):
                self.ops[b].apply_stack(gstack, axis=b, out=grads[b])

        tmp_s = ws.array("rhs.tmp_s", S)
        if viscous:
            props = pc.props
            mu, lam, dcoef = props.viscosity, props.conductivity, props.diffusivities
            # divergence and stress tensor, eq. (14); tau is symmetric so
            # only the upper triangle is stored (shared views, no copies)
            div_u = ws.array("rhs.div_u", S)
            div_u[...] = grads[0, 0]
            for a in range(1, ndim):
                div_u += grads[a, a]
            tau_buf = ws.array("rhs.tau", (ndim * (ndim + 1) // 2,) + S)
            tau = [[None] * ndim for _ in range(ndim)]
            idx = 0
            for a in range(ndim):
                for b in range(a, ndim):
                    t_ab = tau_buf[idx]
                    idx += 1
                    # grad_vel[a][b] + grad_vel[b][a] with
                    # grad_vel[a][b] = d(vel_a)/dx_b = grads[b, a]
                    np.add(grads[b, a], grads[a, b], out=t_ab)
                    t_ab *= mu
                    if a == b:
                        np.multiply(mu, 2.0 / 3.0, out=tmp_s)
                        tmp_s *= div_u
                        t_ab -= tmp_s
                    tau[a][b] = t_ab
                    tau[b][a] = t_ab
            # species diffusive fluxes, eq. (19) + correction (eq. 15)
            with tel.span("COMPUTESPECIESDIFFFLUX"):
                flux_j = ws.array("rhs.flux_j", (ns, ndim) + S)
                tmp_ns = ws.array("rhs.tmp_ns", (ns,) + S)
                neg_rho_d = ws.array("rhs.neg_rho_d", (ns,) + S)
                np.negative(rho, out=tmp_s)
                np.multiply(tmp_s[None], dcoef, out=neg_rho_d)
                gw = ws.array("rhs.gw", S)
                soret = props.thermal_diffusion_ratios is not None
                if soret:
                    # prefactor chain (((-rho·D)·theta)·W_i/wbar), grouped
                    # exactly as the reference engine's expression
                    soret_pref = ws.array("rhs.soret_pref", (ns,) + S)
                    np.multiply(neg_rho_d, props.thermal_diffusion_ratios,
                                out=soret_pref)
                    np.divide(mech.weights.reshape((-1,) + (1,) * rho.ndim),
                              wbar[None], out=tmp_ns)
                    soret_pref *= tmp_ns
                    glnt = ws.array("rhs.glnt", S)
                for b in range(ndim):
                    np.divide(grads[b, idx_w], wbar, out=gw)
                    gy_b = grads[b, idx_y : idx_y + ns]
                    if soret:
                        np.divide(grads[b, idx_t], T, out=glnt)
                        species_diffusive_flux_dir(
                            Y, gy_b, neg_rho_d, gw, out=flux_j[:, b],
                            soret_pref=soret_pref, grad_lnT_dir=glnt,
                            tmp=tmp_ns,
                        )
                    else:
                        species_diffusive_flux_dir(
                            Y, gy_b, neg_rho_d, gw, out=flux_j[:, b],
                        )
                    np.sum(flux_j[:, b], axis=0, out=tmp_s)
                    np.multiply(Y, tmp_s[None], out=tmp_ns)
                    flux_j[:, b] -= tmp_ns
            # heat flux, eq. (20)
            with tel.span("COMPUTEHEATFLUX"):
                h_i = pc.h_i
                flux_q = ws.array("rhs.flux_q", (ndim,) + S)
                hq = ws.array("rhs.hq", S)
                neg_lam = ws.array("rhs.neg_lam", S)
                np.negative(lam, out=neg_lam)
                for b in range(ndim):
                    np.multiply(h_i, flux_j[:, b], out=tmp_ns)
                    np.sum(tmp_ns, axis=0, out=hq)
                    np.multiply(neg_lam, grads[b, idx_t], out=flux_q[b])
                    flux_q[b] += hq

        # -- flux divergence: one stacked sweep per direction ------------
        if out is None:
            du = np.empty_like(u)
        else:
            du = out
        du.fill(0.0)
        fstack = ws.array("rhs.fstack", (st.nvar,) + S)
        dstack = ws.array("rhs.dstack", (st.nvar,) + S)
        ie = st.i_energy
        for b in range(ndim):
            ub = vel[b]
            np.multiply(rho, ub, out=fstack[st.i_rho])
            for a in range(ndim):
                fa = fstack[st.i_mom(a)]
                np.multiply(rho, vel[a], out=fa)
                fa *= ub
                if a == b:
                    fa += p
                if viscous:
                    fa -= tau[a][b]
            fe = fstack[ie]
            np.multiply(rho, e0, out=fe)
            fe += p
            fe *= ub
            if viscous:
                np.multiply(tau[0][b], vel[0], out=tmp_s)
                for a in range(1, ndim):
                    np.multiply(tau[a][b], vel[a], out=hq)
                    tmp_s += hq
                fe -= tmp_s
                fe += flux_q[b]
            for k in range(nt):
                fy = fstack[st.i_species(k)]
                np.multiply(rho, Y[k], out=fy)
                fy *= ub
                if viscous:
                    fy += flux_j[k, b]
            self.ops[b].apply_stack(fstack, axis=b, out=dstack)
            du -= dstack

        # -- chemical sources --------------------------------------------
        if self.reacting and mech.n_reactions:
            if self.reaction_delegate is not None:
                self.last_reaction_inputs = (rho, T, Y)
                wdot_mass = self.reaction_delegate(self, t, rho, T, Y)
            else:
                with tel.span("REACTION_RATES"):
                    wdot_mass = self.backend.production_rates(mech, rho, T, Y)
            if wdot_mass is not None:
                du[st.species_slice] += wdot_mass[:nt]
                hr = ws.array("rhs.heat_release", S)
                tmp_ns = ws.array("rhs.tmp_ns", (ns,) + S)
                np.multiply(pc.h_i, wdot_mass, out=tmp_ns)
                np.sum(tmp_ns, axis=0, out=hr)
                np.negative(hr, out=hr)
                self.last_heat_release = hr
            else:
                # deferred: the delegating caller owns the source terms
                self.last_heat_release = None
        else:
            self.last_heat_release = ws.zeros("rhs.heat_release", S)

        # -- characteristic boundary handling -----------------------------
        if needs_nscbc:
            grad_vel = [[grads[b, a] for b in range(ndim)] for a in range(ndim)]
            grad_rho = [grads[b, idx_rho] for b in range(ndim)]
            grad_p = [grads[b, idx_p] for b in range(ndim)]
            gy = (
                np.moveaxis(grads[:, idx_y : idx_y + ns], 0, 1)
                if viscous else None
            )
            nscbc.apply_boundary_conditions(
                self, t, u, du,
                rho=rho, vel=vel, T=T, p=p, Y=Y,
                grad_rho=grad_rho, grad_p=grad_p,
                grad_vel=grad_vel, grad_y=gy,
            )
        if not self.backend.is_reference:
            # JIT effort so far (first evaluation pays the compiles)
            tel.gauge("rhs.backend.compile_count").set(
                float(self.backend.compile_count)
            )
            tel.gauge("rhs.backend.compile_seconds").set(
                self.backend.compile_seconds
            )
        ws.end_eval()
        return du

    # ------------------------------------------------------------------
    # naive (reference) engine — the original formulation, unbatched
    # ------------------------------------------------------------------
    def _call_naive(self, t, u):
        st = self.state
        mech = self.mech
        ndim = self.ndim
        tel = self.telemetry
        with tel.span("THERMOPROPS"):
            rho, vel, T, p, Y, e0 = st.primitives(u)

        # -- primitive gradients ---------------------------------------
        grad_vel = [[self.ops[b].apply_naive(vel[a], axis=b) for b in range(ndim)] for a in range(ndim)]
        grad_T = [self.ops[b].apply_naive(T, axis=b) for b in range(ndim)]

        h_i = None
        viscous = self.transport is not None
        if viscous:
            with tel.span("THERMOPROPS"):
                props = self.transport.evaluate(T, p, Y)
                mu, lam, dcoef = props.viscosity, props.conductivity, props.diffusivities
                wbar = mech.mean_weight(Y)
            grad_w = [self.ops[b].apply_naive(wbar, axis=b) for b in range(ndim)]
            div_u = sum(grad_vel[a][a] for a in range(ndim))
            # stress tensor, eq. (14)
            tau = [[None] * ndim for _ in range(ndim)]
            for a in range(ndim):
                for b in range(a, ndim):
                    t_ab = mu * (grad_vel[a][b] + grad_vel[b][a])
                    if a == b:
                        t_ab = t_ab - (2.0 / 3.0) * mu * div_u
                    tau[a][b] = t_ab
                    tau[b][a] = t_ab
            # species diffusive fluxes, eq. (19) + correction (eq. 15);
            # the DERIVATIVES spans of the Y sweeps nest inside this span
            with tel.span("COMPUTESPECIESDIFFFLUX"):
                grad_y = np.empty((mech.n_species, ndim) + rho.shape)
                for i in range(mech.n_species):
                    for b in range(ndim):
                        grad_y[i, b] = self.ops[b].apply_naive(Y[i], axis=b)
                flux_j = np.empty_like(grad_y)
                for b in range(ndim):
                    gw = grad_w[b] / wbar
                    for i in range(mech.n_species):
                        flux_j[i, b] = -rho * dcoef[i] * (grad_y[i, b] + Y[i] * gw)
                    if props.thermal_diffusion_ratios is not None:
                        glnt = grad_T[b] / T
                        theta = props.thermal_diffusion_ratios
                        wr = mech.weights.reshape((-1,) + (1,) * rho.ndim) / wbar[None]
                        flux_j[:, b] += -rho[None] * dcoef * theta * wr * glnt[None]
                    correction = flux_j[:, b].sum(axis=0)
                    flux_j[:, b] -= Y * correction[None]
            # heat flux, eq. (20)
            with tel.span("COMPUTEHEATFLUX"):
                h_i = mech.species_enthalpy_mass(T)
                flux_q = [
                    -lam * grad_T[b] + (h_i * flux_j[:, b]).sum(axis=0)
                    for b in range(ndim)
                ]

        # -- flux divergence --------------------------------------------
        du = np.zeros_like(u)
        for b in range(ndim):
            ub = vel[b]
            conv_rho = rho * ub
            du[st.i_rho] -= self.ops[b].apply_naive(conv_rho, axis=b)
            for a in range(ndim):
                f = rho * vel[a] * ub
                if a == b:
                    f = f + p
                if viscous:
                    f = f - tau[a][b]
                du[st.i_mom(a)] -= self.ops[b].apply_naive(f, axis=b)
            f_e = (rho * e0 + p) * ub
            if viscous:
                f_e = f_e - sum(tau[a][b] * vel[a] for a in range(ndim)) + flux_q[b]
            du[st.i_energy] -= self.ops[b].apply_naive(f_e, axis=b)
            for k in range(st.n_transported):
                f_y = rho * Y[k] * ub
                if viscous:
                    f_y = f_y + flux_j[k, b]
                du[st.i_species(k)] -= self.ops[b].apply_naive(f_y, axis=b)

        # -- chemical sources --------------------------------------------
        if self.reacting and mech.n_reactions:
            if self.reaction_delegate is not None:
                self.last_reaction_inputs = (rho, T, Y)
                wdot_mass = self.reaction_delegate(self, t, rho, T, Y)
            else:
                with tel.span("REACTION_RATES"):
                    wdot_mass = mech.production_rates(rho, T, Y)
            if wdot_mass is not None:
                for k in range(st.n_transported):
                    du[st.i_species(k)] += wdot_mass[k]
                if h_i is None:
                    h_i = mech.species_enthalpy_mass(T)
                self.last_heat_release = -(h_i * wdot_mass).sum(axis=0)
            else:
                # deferred: the delegating caller owns the source terms
                self.last_heat_release = None
        else:
            self.last_heat_release = np.zeros_like(rho)

        # -- characteristic boundary handling -----------------------------
        if self._needs_nscbc:
            grad_p = [self.ops[b].apply_naive(p, axis=b) for b in range(ndim)]
            grad_rho = [self.ops[b].apply_naive(rho, axis=b) for b in range(ndim)]
            gy = grad_y if viscous else None
            nscbc.apply_boundary_conditions(
                self, t, u, du,
                rho=rho, vel=vel, T=T, p=p, Y=Y,
                grad_rho=grad_rho, grad_p=grad_p,
                grad_vel=grad_vel, grad_y=gy,
            )
        return du

    # ------------------------------------------------------------------
    def stable_dt(self, u=None, cfl=0.8, fourier=0.4):
        """Acoustic + diffusive stable time step estimate.

        Shares the memoized primitives/transport evaluation with the RHS
        proper — calling ``stable_dt`` and then evaluating the RHS on
        the same buffer (the start-of-step pattern) performs the
        expensive property evaluation once.
        """
        st = self.state
        pc = self._eval_props(st.u if u is None else u)
        rho, vel, T, p, Y = pc.rho, pc.vel, pc.T, pc.p, pc.Y
        a = self.mech.sound_speed(T, Y)
        dt = np.inf
        for axis in range(self.ndim):
            dx = 1.0 / np.abs(self.grid.inv_metric[axis]).max()
            vmax = float((np.abs(vel[axis]) + a).max())
            dt = min(dt, cfl * dx / vmax)
        if self.transport is not None:
            props = pc.props
            nu = float((props.viscosity / rho).max())
            alpha = float(
                (props.conductivity / (rho * self.mech.cp_mass(T, Y))).max()
            )
            dmax = max(nu, alpha, float(props.diffusivities.max()))
            dx = self.grid.min_spacing
            if dmax > 0:
                dt = min(dt, fourier * dx * dx / dmax)
        return dt

    def species_internal_energies(self, T):
        """Per-species specific internal energies e_i [J/kg]."""
        h = self.mech.species_enthalpy_mass(T)
        w = self.mech.weights.reshape((-1,) + (1,) * np.ndim(T))
        return h - RU * np.asarray(T)[None] / w
