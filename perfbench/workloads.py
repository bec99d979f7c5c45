"""The benchmark's three workloads, built through the public solver APIs.

Every workload is a closed loop: one driver process advances one solver
step after step, each step starting when the previous one returns.
Every solver switch is passed explicitly (telemetry, tracing and
observability off), so no environment variable can change what is
measured.

* ``jet_explicit`` — the §6.2 lifted H2/air jet at 1 atm, explicit
  chemistry at the CFL time step, NSCBC inflow/outflow, serial. The
  only workload where explicit kinetics and every flow layer run in
  one process; it never touches implicit chemistry or the parallel
  runtime, so gains there must leave it unchanged.
* ``jet_strang`` — the same jet at 100 atm (laminar), Strang-split
  ``rosw2`` chemistry at the fixed acoustic time step. Implicit
  chemistry is most of the step and the RHS is non-reacting, so an
  implicit-chemistry gain shows only here.
* ``stripe_2rank`` — the periodic reacting H2 fuel stripe with an
  off-centre hot spot, 2x1 ranks with greedy chemistry load balancing.
  The only workload with halo exchange and chemistry load balancing;
  periodic, so NSCBC is bypassed. Its end-to-end steps run on the
  in-process transport; its traced episodes run the same stripe on the
  multiprocessing transport (one worker process per rank, the IPC
  layer), whose results must match the in-process ones to 1e-12. Timed
  end to end, the two-worker run needs both cores at once and moves
  with any load on either, by more than the end-to-end bounds.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.chemistry import h2_li2004
from repro.core import Grid, S3DSolver, State
from repro.parallel.decomp import CartesianDecomposition
from repro.parallel.solver import ParallelPeriodicSolver
from repro.scenarios import H2_LEWIS, fuel_and_coflow, lifted_jet
from repro.telemetry import NULL_TELEMETRY
from repro.transport import ConstantLewisTransport
from repro.util.constants import P_ATM

#: species whose statistics enter the output summary
SUMMARY_SPECIES = ("H2", "O2", "OH", "HO2")

#: serial-solver switches, all explicit (none left to the environment)
SERIAL_SWITCHES = dict(
    rhs_engine="batched", rhs_backend="numpy", telemetry=False,
    tracing=False, observability="off", chemistry_method="rosw2",
    fixed_substeps=None, chem_load_balance="off", transport="inprocess",
    parallel_recovery="off",
)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One named benchmark input and how to run it."""

    name: str
    why: str
    shape: tuple
    #: timed steps per episode (after the warm-up step)
    steps: int
    #: distinct inputs the seed selects between (``seed % variants``)
    variants: int

    @property
    def points(self) -> int:
        return int(np.prod(self.shape))

    def build(self, input_seed: int, workers: bool = False):
        """A fresh runner for this workload's input ``input_seed``;
        ``workers`` runs the stripe's ranks in worker processes."""
        if self.name == "stripe_2rank":
            return StripeRunner(self.shape,
                                "multiprocessing" if workers else "inprocess")
        return JetRunner(self.shape, input_seed,
                         strang=self.name == "jet_strang")


class JetRunner:
    """The lifted jet on :class:`~repro.core.solver.S3DSolver`."""

    def __init__(self, shape, input_seed: int, strang: bool):
        nx, ny = shape
        if strang:
            built, _ = lifted_jet(nx=nx, ny=ny, seed=input_seed, fluct=0.0,
                                  p=100.0 * P_ATM, chemistry_mode="strang")
        else:
            built, _ = lifted_jet(nx=nx, ny=ny, seed=input_seed,
                                  chemistry_mode="explicit")
        # rebuild on the scenario's state with every switch explicit
        cfg = dataclasses.replace(built.config, **SERIAL_SWITCHES,
                                  chemistry_mode=built.chemistry_mode)
        if strang:
            # the acoustic step of the initial state, held fixed
            cfg.dt = built.rhs.stable_dt(cfl=cfg.cfl)
        self.solver = S3DSolver(built.state, cfg,
                                transport=built.rhs.transport, reacting=True)
        self.world = None

    def step(self) -> None:
        self.solver.step()

    def settings(self) -> dict:
        s, cfg = self.solver, self.solver.config
        return {
            "solver": "S3DSolver", "shape": list(s.state.grid.shape),
            "scheme": s.integrator.name, "cfl": cfg.cfl,
            "dt": None if cfg.dt is None else float(cfg.dt),
            "filter_interval": cfg.filter_interval,
            "filter_alpha": cfg.filter_alpha, "rhs_engine": s.rhs.engine,
            "rhs_backend": s.rhs.backend.name,
            "chemistry_mode": s.chemistry_mode,
            "chemistry_method": cfg.chemistry_method,
            "telemetry_enabled": bool(getattr(s.telemetry, "enabled", False)),
            "observability_enabled": bool(s.health.enabled),
            "boundaries": {f"{a}{side}": spec.kind
                           for (a, side), spec in sorted(cfg.boundaries.items())},
        }

    def close(self) -> None:
        pass


#: the stripe's fixed time step [s] (acoustic CFL ~0.4 at 48x48)
STRIPE_DT = 2.0e-8

#: chemlb imbalance trigger: the hot spot leaves rank 0 about 8% above
#: the mean chemistry load, under the solver's default 1.1 trigger
CHEMLB_THRESHOLD = 1.05


def stripe_state(mech, grid) -> State:
    """A 65/35 H2/N2 fuel stripe at 400 K in 1300 K air, tanh shear
    layers, and an off-centre +500 K hot spot in the lower layer — so
    rank 0 holds most of the reaction work."""
    y_fuel, y_air = fuel_and_coflow(mech)
    xx, yy = grid.meshgrid()
    stripe = 0.5 * (np.tanh((yy - 0.6e-3) / 1.5e-4)
                    - np.tanh((yy - 1.4e-3) / 1.5e-4))
    Y = (y_fuel[:, None, None] * stripe[None]
         + y_air[:, None, None] * (1.0 - stripe[None]))
    spot = np.exp(-((xx - 0.5e-3) ** 2 + (yy - 0.6e-3) ** 2)
                  / (2 * (2.0e-4) ** 2))
    T = 400.0 * stripe + 1300.0 * (1.0 - stripe) + 500.0 * spot
    u_jet = 60.0 * stripe + 4.0 * (1.0 - stripe)
    rho = mech.density(P_ATM, T, Y)
    return State.from_primitive(mech, grid, rho, [u_jet, 0.0], T, Y)


class StripeRunner:
    """The reacting stripe on :class:`~repro.parallel.solver.ParallelPeriodicSolver`."""

    def __init__(self, shape, comm_transport: str):
        mech = h2_li2004()
        grid = Grid(shape, (2.0e-3, 2.0e-3), periodic=(True, True))
        state = stripe_state(mech, grid)
        transport = ConstantLewisTransport(mech, lewis=H2_LEWIS, mu_ref=1.8e-5,
                                           t_ref=300.0, exponent=0.7)
        decomp = CartesianDecomposition(shape, (2, 1), periodic=(True, True))
        self.solver = ParallelPeriodicSolver(
            mech, grid, decomp, transport=transport, reacting=True,
            scheme="ck45", filter_alpha=0.25, filter_interval=1,
            telemetry=NULL_TELEMETRY, rhs_engine="batched", rhs_backend="numpy",
            chemistry_mode="explicit", chemistry_method="rosw2",
            chem_load_balance="greedy", chemlb_threshold=CHEMLB_THRESHOLD,
            rank_telemetry=False,
            observability="off", comm_transport=comm_transport,
            parallel_recovery="off", tracing=False, fixed_substeps=None,
        )
        self.solver.set_state(state.u)
        self.world = self.solver.world

    def step(self) -> None:
        self.solver.step(STRIPE_DT)

    def settings(self) -> dict:
        s = self.solver
        return {
            "solver": "ParallelPeriodicSolver", "shape": list(s.grid.shape),
            "ranks": list(s.decomp.proc_shape), "comm_transport": s.world.name,
            "scheme": "ck45", "dt": STRIPE_DT,
            "filter_interval": s.filter_interval, "filter_alpha": 0.25,
            "chemistry_mode": s.chemistry_mode,
            "chem_load_balance": s.chemlb.policy if s.chemlb else "off",
            "chemlb_threshold": s.chemlb.threshold if s.chemlb else None,
            "rhs_engine": "batched", "rhs_backend": "numpy",
            "telemetry_enabled": bool(getattr(s.telemetry, "enabled", False)),
            "tracing": bool(s.tracing),
            "observability_enabled": bool(s.health.enabled),
            "parallel_recovery": s.recovery_policy,
        }

    def close(self) -> None:
        self.solver.close()


WORKLOADS = {
    w.name: w for w in (
        Workload("jet_explicit",
                 "lifted H2 jet at 1 atm, explicit chemistry, NSCBC, serial: "
                 "kinetics, Newton-T and every flow layer in one process",
                 shape=(72, 48), steps=10, variants=4),
        Workload("jet_strang",
                 "lifted H2 jet at 100 atm, Strang rosw2 chemistry at the fixed "
                 "acoustic dt: implicit chemistry is most of the step",
                 shape=(36, 24), steps=10, variants=1),
        Workload("stripe_2rank",
                 "periodic reacting H2 stripe, 2 ranks, greedy chemlb: the only "
                 "workload with halo exchange and chemlb; traced runs add 2 "
                 "worker processes (IPC)",
                 shape=(48, 48), steps=10, variants=1),
    )
}
