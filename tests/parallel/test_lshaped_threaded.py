"""Stress tests: the L-shaped protocol under real thread interleaving.

Whatever order the OS schedules the processor threads in, the protocol
must keep the network functionally equivalent and reduce literals.  We
run several repetitions because interleavings differ run to run.
"""

import sys

import pytest

from repro.network.simulate import random_equivalence_check
from repro.parallel.lshaped_threaded import lshaped_kernel_extract_threaded


class TestThreadedLShaped:
    @pytest.mark.parametrize("rep", range(4))
    def test_function_preserved_across_interleavings(self, small_circuit, rep):
        out = lshaped_kernel_extract_threaded(small_circuit, 3, seed=rep)
        assert random_equivalence_check(
            small_circuit, out, vectors=128, outputs=small_circuit.outputs
        )

    @pytest.mark.parametrize("rep", range(5))
    def test_four_threads_under_fine_switching(self, small_circuit, rep):
        """Four threads with a tiny switch interval, so one thread's
        one-pass value-table fill runs while others add cube records."""
        prev = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            out = lshaped_kernel_extract_threaded(small_circuit, 4, seed=rep)
        finally:
            sys.setswitchinterval(prev)
        assert out.literal_count() < small_circuit.literal_count()
        assert random_equivalence_check(
            small_circuit, out, vectors=128, outputs=small_circuit.outputs
        )

    def test_reduces_literals(self, small_circuit):
        out = lshaped_kernel_extract_threaded(small_circuit, 2)
        assert out.literal_count() < small_circuit.literal_count()

    def test_quality_comparable_to_deterministic(self, small_circuit):
        from repro.parallel.lshaped import lshaped_kernel_extract

        det = lshaped_kernel_extract(small_circuit, 3)
        thr = lshaped_kernel_extract_threaded(small_circuit, 3)
        # interleaving differs, but both should land near each other
        assert thr.literal_count() <= det.final_lc * 1.15

    def test_single_thread_degenerate(self, small_circuit):
        out = lshaped_kernel_extract_threaded(small_circuit, 1)
        assert random_equivalence_check(
            small_circuit, out, vectors=64, outputs=small_circuit.outputs
        )

    def test_two_level_circuit(self, small_pla_circuit):
        out = lshaped_kernel_extract_threaded(small_pla_circuit, 4)
        assert random_equivalence_check(
            small_pla_circuit, out, vectors=128,
            outputs=small_pla_circuit.outputs,
        )

    def test_original_untouched(self, small_circuit):
        before = small_circuit.literal_count()
        lshaped_kernel_extract_threaded(small_circuit, 2)
        assert small_circuit.literal_count() == before

    def test_paper_example(self, eq1_network):
        from repro.network.simulate import exhaustive_equivalence_check

        out = lshaped_kernel_extract_threaded(eq1_network, 2)
        assert out.literal_count() <= 25
        assert exhaustive_equivalence_check(
            eq1_network, out, outputs=["F", "G", "H"]
        )
