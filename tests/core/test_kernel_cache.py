"""Kernel-matrix cache and kernel-weight validation regressions.

The cache regressions pin two production bugs:

* the module-level ``_MATRIX_CACHE`` OrderedDict used to be mutated
  without a lock, so concurrent scheduler calls in the server worker
  pool could corrupt it mid-``move_to_end`` — the hammering test runs
  many threads through hit/miss/evict churn and then audits the
  internal byte ledger;
* eviction used to count entries, not bytes, so a handful of
  long-horizon bands could pin hundreds of megabytes — the eviction
  tests drive the byte cap directly and check the exported
  ``sor_kernel_matrix_cache_bytes`` gauge.

The validation regressions pin the ``log1p(-p)`` trap: a kernel
returning p = 1 at nonzero distance used to silently write −inf into
the survival state; the objective and its oracle must now refuse it with a
:class:`~repro.common.errors.KernelValidationError` naming the kernel
and the offending distance.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.common.errors import KernelValidationError
from repro.core.scheduling import (
    CoverageObjective,
    GaussianKernel,
    SchedulingPeriod,
    TriangularKernel,
    clear_kernel_matrix_cache,
    kernel_matrices,
    kernel_matrix_cache_bytes,
    validate_kernel_weights,
)
from repro.core.scheduling import objective as objective_module
from repro.core.scheduling.reference import ReferenceCoverageObjective
from repro.obs import MetricsRegistry, use_metrics

PERIOD = SchedulingPeriod(0.0, 600.0, 64)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_kernel_matrix_cache()
    yield
    clear_kernel_matrix_cache()


class StubKernel:
    """Uncacheable kernel emitting a fixed off-diagonal probability.

    Deliberately has no ``cache_key`` so invalid weights can never
    poison the shared cache and the uncached build path gets exercised.
    """

    def __init__(self, off_diagonal: float) -> None:
        self.off_diagonal = off_diagonal

    def probability(self, distance: float) -> float:
        return 1.0 if distance == 0.0 else float(self.off_diagonal)

    def support(self) -> float:
        return 30.0


# ----------------------------------------------------------------------
# cache sharing and byte accounting
# ----------------------------------------------------------------------
class TestCacheSharing:
    def test_hit_returns_the_shared_entry(self):
        kernel = GaussianKernel(sigma=45.0)
        first = kernel_matrices(PERIOD, kernel)
        second = kernel_matrices(PERIOD, GaussianKernel(sigma=45.0))
        assert second is first
        assert kernel_matrix_cache_bytes() == first.nbytes

    def test_distinct_keys_accumulate_bytes(self):
        a = kernel_matrices(PERIOD, GaussianKernel(sigma=45.0))
        b = kernel_matrices(PERIOD, GaussianKernel(sigma=60.0))
        assert a is not b
        assert kernel_matrix_cache_bytes() == a.nbytes + b.nbytes

    def test_uncacheable_kernel_builds_fresh_every_time(self):
        kernel = StubKernel(0.5)
        first = kernel_matrices(PERIOD, kernel)
        second = kernel_matrices(PERIOD, kernel)
        assert first is not second
        assert kernel_matrix_cache_bytes() == 0
        assert np.array_equal(first.weights, second.weights)

    def test_bytes_gauge_tracks_the_ledger(self):
        registry = MetricsRegistry()
        with use_metrics(registry):
            built = kernel_matrices(PERIOD, GaussianKernel(sigma=45.0))
            gauge = registry.gauge("sor_kernel_matrix_cache_bytes")
            assert gauge.value() == float(built.nbytes)
            clear_kernel_matrix_cache()
            assert gauge.value() == 0.0


# ----------------------------------------------------------------------
# eviction by bytes, not entry count
# ----------------------------------------------------------------------
class TestByteEviction:
    def test_over_cap_insert_evicts_least_recently_used(self, monkeypatch):
        k1 = GaussianKernel(sigma=45.0)
        k2 = GaussianKernel(sigma=60.0)
        # Size both entries first, then rerun under a cap that holds
        # exactly one of them.
        cap = max(
            kernel_matrices(PERIOD, k1).nbytes,
            kernel_matrices(PERIOD, k2).nbytes,
        )
        clear_kernel_matrix_cache()
        monkeypatch.setattr(objective_module, "_MATRIX_CACHE_MAX_BYTES", cap)
        registry = MetricsRegistry()
        with use_metrics(registry):
            first = kernel_matrices(PERIOD, k1)
            second = kernel_matrices(PERIOD, k2)
            assert kernel_matrix_cache_bytes() == second.nbytes
            # k1 was evicted: a fresh build, and it in turn evicts k2.
            rebuilt = kernel_matrices(PERIOD, k1)
            assert rebuilt is not first
            assert kernel_matrices(PERIOD, k1) is rebuilt
            assert registry.counter(
                "sor_kernel_matrix_cache_evictions_total"
            ).value() == 2.0

    def test_oversized_entry_bypasses_the_cache(self, monkeypatch):
        monkeypatch.setattr(objective_module, "_MATRIX_CACHE_MAX_BYTES", 1)
        kernel = GaussianKernel(sigma=45.0)
        first = kernel_matrices(PERIOD, kernel)
        second = kernel_matrices(PERIOD, kernel)
        assert first is not second
        assert kernel_matrix_cache_bytes() == 0

    def test_objectives_still_correct_under_byte_pressure(self, monkeypatch):
        """Eviction changes residency, never the returned floats."""
        reference = kernel_matrices(PERIOD, GaussianKernel(sigma=45.0))
        clear_kernel_matrix_cache()
        monkeypatch.setattr(objective_module, "_MATRIX_CACHE_MAX_BYTES", 1)
        uncached = kernel_matrices(PERIOD, GaussianKernel(sigma=45.0))
        assert np.array_equal(uncached.weights, reference.weights)
        assert np.array_equal(
            uncached.complement_band, reference.complement_band
        )


# ----------------------------------------------------------------------
# the concurrency regression
# ----------------------------------------------------------------------
class TestConcurrentAccess:
    def test_hammering_threads_leave_a_consistent_ledger(self, monkeypatch):
        """Many threads, few slots: constant hit/miss/evict churn.

        Before the lock, this interleaving could lose entries
        mid-``move_to_end`` or double-count bytes; now the ledger must
        equal the sum of resident entries exactly, with every thread
        receiving structurally valid matrices.
        """
        kernels = [GaussianKernel(sigma=40.0 + i) for i in range(6)]
        probe = kernel_matrices(PERIOD, kernels[0])
        clear_kernel_matrix_cache()
        monkeypatch.setattr(
            objective_module,
            "_MATRIX_CACHE_MAX_BYTES",
            int(2.5 * probe.nbytes),
        )
        errors: list[BaseException] = []
        start = threading.Barrier(8)

        def hammer(worker: int) -> None:
            try:
                start.wait()
                for iteration in range(200):
                    kernel = kernels[(worker + iteration) % len(kernels)]
                    built = kernel_matrices(PERIOD, kernel)
                    assert built.window >= 1
                    assert (
                        built.complement_band.shape[0]
                        == 2 * built.window + 1
                    )
            except BaseException as exc:  # noqa: BLE001 - audit below
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(index,)) for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        with objective_module._MATRIX_CACHE_LOCK:
            resident = sum(
                entry.nbytes
                for entry in objective_module._MATRIX_CACHE.values()
            )
            assert objective_module._matrix_cache_bytes == resident
        assert kernel_matrix_cache_bytes() <= int(2.5 * probe.nbytes)

    def test_racing_builders_share_one_winner(self):
        """Concurrent misses for the same key converge on one entry."""
        kernel = GaussianKernel(sigma=45.0)
        results: list[object] = []
        start = threading.Barrier(8)

        def build() -> None:
            start.wait()
            results.append(kernel_matrices(PERIOD, kernel))

        threads = [threading.Thread(target=build) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cached = kernel_matrices(PERIOD, kernel)
        assert kernel_matrix_cache_bytes() == cached.nbytes
        for built in results:
            assert np.array_equal(built.weights, cached.weights)


# ----------------------------------------------------------------------
# kernel-weight validation: the log1p(-1.0) trap
# ----------------------------------------------------------------------
class TestKernelValidation:
    @pytest.mark.parametrize(
        "bad", [1.0, 1.5, -0.25, float("nan")], ids=["one", "big", "neg", "nan"]
    )
    def test_numpy_backend_rejects_bad_off_diagonal(self, bad):
        with pytest.raises(KernelValidationError) as excinfo:
            CoverageObjective(PERIOD, StubKernel(bad))
        message = str(excinfo.value)
        assert "StubKernel" in message
        assert "at distance" in message
        assert "[0, 1)" in message

    @pytest.mark.parametrize(
        "bad", [1.0, 1.5, -0.25, float("nan")], ids=["one", "big", "neg", "nan"]
    )
    def test_reference_backend_rejects_bad_off_diagonal(self, bad):
        with pytest.raises(KernelValidationError):
            ReferenceCoverageObjective(PERIOD, StubKernel(bad))

    def test_diagonal_probability_of_one_is_legal(self):
        """p(0) = 1 is the spec — the −inf on the diagonal is deliberate."""
        objective = CoverageObjective(PERIOD, StubKernel(0.999))
        reference = ReferenceCoverageObjective(PERIOD, StubKernel(0.999))
        assert objective.add(3) == reference.add(3)
        assert objective.value() == pytest.approx(reference.value(), rel=1e-9)

    def test_error_names_the_offending_distance(self):
        kernel = StubKernel(1.0)
        with pytest.raises(KernelValidationError, match="at distance 20s"):
            validate_kernel_weights([1.0, 0.5, 1.0], kernel, 10.0)

    def test_valid_kernels_pass(self):
        validate_kernel_weights(
            [1.0, 0.5, 0.0], GaussianKernel(sigma=45.0), 10.0
        )
        validate_kernel_weights(
            np.array([1.0, 0.999999]), TriangularKernel(width=90.0), 10.0
        )
