"""Tests for the simulated-MPI parallel substrate."""

import numpy as np
import pytest

from repro.core import Grid, SolverConfig, S3DSolver, ic
from repro.core.config import periodic_boundaries
from repro.core.derivatives import DerivativeOperator
from repro.core.filters import FilterOperator
from repro.parallel import (
    CartesianDecomposition,
    HaloExchanger,
    SimMPI,
    block_range,
)
from repro.parallel.solver import (
    ParallelPeriodicSolver,
    parallel_derivative,
    parallel_filter,
)
from repro.transport import ConstantLewisTransport
from tests.conftest import hot_spot_box


class TestSimMPI:
    def test_send_recv(self):
        world = SimMPI(2)
        world.comm(0).Send(np.arange(4.0), dest=1, tag=7)
        out = world.comm(1).Recv(source=0, tag=7)
        np.testing.assert_array_equal(out, np.arange(4.0))

    def test_message_ordering_fifo(self):
        world = SimMPI(2)
        c0 = world.comm(0)
        c0.Send(np.array([1.0]), dest=1, tag=0)
        c0.Send(np.array([2.0]), dest=1, tag=0)
        c1 = world.comm(1)
        assert c1.Recv(source=0, tag=0)[0] == 1.0
        assert c1.Recv(source=0, tag=0)[0] == 2.0

    def test_recv_without_message_raises(self):
        world = SimMPI(2)
        with pytest.raises(RuntimeError, match="no pending message"):
            world.comm(0).Recv(source=1, tag=0)

    def test_send_copies_buffer(self):
        world = SimMPI(2)
        buf = np.zeros(3)
        world.comm(0).Send(buf, dest=1)
        buf[:] = 9.0
        np.testing.assert_array_equal(world.comm(1).Recv(source=0), np.zeros(3))

    def test_probe(self):
        world = SimMPI(2)
        assert not world.comm(1).probe(source=0)
        world.comm(0).Send(np.zeros(1), dest=1)
        assert world.comm(1).probe(source=0)

    def test_log_accounting(self):
        world = SimMPI(3)
        world.comm(0).Send(np.zeros(10), dest=1)
        world.comm(1).Send(np.zeros(5), dest=2)
        assert world.log.count == 2
        assert world.log.total_bytes == 15 * 8
        assert world.log.by_pair()[(0, 1)] == 80

    def test_invalid_rank(self):
        world = SimMPI(2)
        with pytest.raises(ValueError):
            world.comm(5)
        with pytest.raises(ValueError):
            world.comm(0).Send(np.zeros(1), dest=9)

    def test_allreduce(self):
        world = SimMPI(3)
        results = [world.comm(r).allreduce_sum(r + 1) for r in range(3)]
        assert results[:2] == [None, None]
        assert results[2] == 6


class TestBlockRange:
    def test_even_split(self):
        assert block_range(12, 3, 0) == (0, 4)
        assert block_range(12, 3, 2) == (8, 12)

    def test_remainder_to_leading(self):
        assert block_range(10, 3, 0) == (0, 4)
        assert block_range(10, 3, 1) == (4, 7)
        assert block_range(10, 3, 2) == (7, 10)

    def test_covers_exactly(self):
        parts = [block_range(17, 5, i) for i in range(5)]
        assert parts[0][0] == 0 and parts[-1][1] == 17
        for a, b in zip(parts, parts[1:]):
            assert a[1] == b[0]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            block_range(10, 3, 3)


class TestDecomposition:
    def test_rank_coords_roundtrip(self):
        d = CartesianDecomposition((8, 8, 8), (2, 2, 2))
        for rank in range(8):
            assert d.rank_of(d.coords(rank)) == rank

    def test_neighbors_periodic(self):
        d = CartesianDecomposition((8,), (4,), periodic=(True,))
        assert d.neighbor(0, 0, -1) == 3
        assert d.neighbor(3, 0, 1) == 0

    def test_neighbors_wall(self):
        d = CartesianDecomposition((8,), (4,), periodic=(False,))
        assert d.neighbor(0, 0, -1) is None
        assert d.neighbor(3, 0, 1) is None

    def test_scatter_gather_roundtrip(self):
        d = CartesianDecomposition((9, 7), (3, 2))
        rng = np.random.default_rng(0)
        a = rng.random((9, 7))
        np.testing.assert_array_equal(d.gather(d.scatter(a)), a)

    def test_scatter_with_leading_axis(self):
        d = CartesianDecomposition((6, 6), (2, 3))
        a = np.random.default_rng(1).random((4, 6, 6))
        back = d.gather(d.scatter(a, leading_axes=1), leading_axes=1)
        np.testing.assert_array_equal(back, a)

    def test_is_uniform(self):
        assert CartesianDecomposition((8, 8), (2, 2)).is_uniform()
        assert not CartesianDecomposition((9, 8), (2, 2)).is_uniform()

    def test_invalid_proc_count(self):
        with pytest.raises(ValueError):
            CartesianDecomposition((4,), (8,))


class TestHaloExchange:
    def test_matches_global_slicing_periodic(self):
        d = CartesianDecomposition((16, 12), (2, 2), periodic=(True, True))
        world = SimMPI(4)
        h = HaloExchanger(d, world, width=3)
        a = np.random.default_rng(2).random((16, 12))
        ext = h.exchange(d.scatter(a))
        padded = np.pad(a, 3, mode="wrap")
        for rank in range(4):
            sl = d.local_slices(rank)
            want = padded[
                sl[0].start : sl[0].stop + 6, sl[1].start : sl[1].stop + 6
            ]
            np.testing.assert_array_equal(ext[rank], want)

    def test_wall_boundaries_no_ghosts(self):
        d = CartesianDecomposition((8,), (2,), periodic=(False,))
        world = SimMPI(2)
        h = HaloExchanger(d, world, width=2)
        a = np.arange(8.0)
        ext = h.exchange(d.scatter(a))
        assert ext[0].shape == (6,)  # 4 owned + 2 right ghosts only
        np.testing.assert_array_equal(ext[0][:4], a[:4])
        np.testing.assert_array_equal(ext[0][4:], a[4:6])

    def test_message_size_matches_halo(self):
        d = CartesianDecomposition((16,), (2,), periodic=(True,))
        world = SimMPI(2)
        h = HaloExchanger(d, world, width=4)
        h.exchange(d.scatter(np.zeros(16)))
        sizes = set(world.log.message_sizes())
        assert sizes == {4 * 8}

    def test_world_size_mismatch(self):
        d = CartesianDecomposition((8,), (2,))
        with pytest.raises(ValueError, match="world size"):
            HaloExchanger(d, SimMPI(3))


class TestDistributedOperators:
    def test_parallel_derivative_bitwise(self):
        rng = np.random.default_rng(3)
        f = rng.random((32, 24))
        op = DerivativeOperator(32, 0.1, periodic=True)
        ref = op.apply(f, axis=0)
        d = CartesianDecomposition((32, 24), (4, 2), periodic=(True, True))
        par = parallel_derivative(f, d, SimMPI(8), axis=0, spacing=0.1)
        np.testing.assert_array_equal(par, ref)

    def test_parallel_filter_bitwise(self):
        rng = np.random.default_rng(4)
        f = rng.random((20, 30))
        ref = FilterOperator(30, periodic=True, alpha=0.5).apply(f, axis=1)
        d = CartesianDecomposition((20, 30), (2, 3), periodic=(True, True))
        par = parallel_filter(f, d, SimMPI(6), axis=1, alpha=0.5)
        np.testing.assert_array_equal(par, ref)

    def test_s3d_message_scale(self):
        """A 50^3 block exchanging 4 ghost layers of one variable moves
        ~80 kB per face message — the figure quoted in §2.6."""
        d = CartesianDecomposition((100, 50, 50), (2, 1, 1), periodic=(True, True, True))
        world = SimMPI(2)
        h = HaloExchanger(d, world, width=4)
        h.exchange(d.scatter(np.zeros((100, 50, 50))))
        per_face = [r for r in world.log.records if r.tag in (0, 1)]
        assert per_face[0].nbytes == 4 * 50 * 50 * 8  # 80 kB


class TestParallelSolverEquivalence:
    def test_from_default_config_steps(self, h2_mech, h2_air_stoich):
        state = hot_spot_box(h2_mech, h2_air_stoich)
        d = CartesianDecomposition((24, 24), (2, 2), periodic=(True, True))
        par = ParallelPeriodicSolver.from_config(h2_mech, state.grid, d,
                                                 SolverConfig(), SimMPI(4))
        assert par.integrator.name == "rkf45"
        par.set_state(state.u)
        par.step(2e-8)
        assert par.step_count == 1 and np.isfinite(par.gather_state()).all()

    def test_rejects_blocks_thinner_than_deep_halo(self, h2_mech):
        grid = Grid((16, 16), (2e-3, 2e-3), periodic=(True, True))
        d = CartesianDecomposition((16, 16), (2, 1), periodic=(True, True))
        with pytest.raises(ValueError,
                           match=r"rank 0's block is 8 cells deep on axis 0"):
            ParallelPeriodicSolver(h2_mech, grid, d, SimMPI(2))
        grid = Grid((18, 18), (2e-3, 2e-3), periodic=(True, True))
        d = CartesianDecomposition((18, 18), (2, 1), periodic=(True, True))
        ParallelPeriodicSolver(h2_mech, grid, d, SimMPI(2))  # 9 deep: legal

    @pytest.mark.parametrize("scheme", ["rkf45", "rk4", "ck45"])
    @pytest.mark.parametrize("case", ["stoich", "air"])
    def test_matches_serial_reacting_viscous(self, case, scheme, h2_mech,
                                             h2_air_stoich, air_box):
        # every ERK scheme, on a stoichiometric box and on the air box
        # whose in-place low-storage stages keep every sum unchanged
        state = air_box if case == "air" else hot_spot_box(h2_mech,
                                                           h2_air_stoich)
        grid = state.grid
        tr = ConstantLewisTransport(h2_mech)
        cfg = SolverConfig(boundaries=periodic_boundaries(2), dt=2e-8,
                           filter_interval=1, filter_alpha=0.2, scheme=scheme)
        serial = S3DSolver(state.copy(), cfg, transport=tr, reacting=True)
        for _ in range(3):
            serial.step()
        world = SimMPI(4)
        d = CartesianDecomposition((24, 24), (2, 2), periodic=(True, True))
        par = ParallelPeriodicSolver(h2_mech, grid, d, world, transport=tr,
                                     reacting=True, scheme=scheme,
                                     filter_alpha=0.2)
        par.set_state(state.u)
        for _ in range(3):
            par.step(2e-8)
        up = par.gather_state()
        ref = serial.state.u
        scale = np.abs(ref).reshape(ref.shape[0], -1).max(axis=1)
        rel = (np.abs(up - ref).reshape(ref.shape[0], -1).max(axis=1)
               / np.maximum(scale, 1e-300))
        assert rel.max() < 1e-10

    def test_requires_periodic(self, h2_mech):
        grid = Grid((24, 24), (1e-3, 1e-3), periodic=(True, False))
        d = CartesianDecomposition((24, 24), (2, 2), periodic=(True, False))
        with pytest.raises(ValueError, match="periodic"):
            ParallelPeriodicSolver(h2_mech, grid, d, SimMPI(4))
