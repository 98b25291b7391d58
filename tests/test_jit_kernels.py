"""The optional ``CHRONO_JIT`` kernels and their numpy fallbacks.

``repro.sim.jit`` resolves its kernel set lazily from the environment:
numpy is always the default and the reference; ``CHRONO_JIT=1`` swaps
in numba versions only when numba is importable, and degrades silently
to numpy when it is not (numba is never a required dependency).  When
the numba kernels are active they must be bit-identical to the numpy
path -- the ledger fold and the price fold sit on the engine's
equivalence-gated trajectory.
"""

import numpy as np
import pytest

from repro.sim import jit

try:
    import numba  # noqa: F401

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False


@pytest.fixture(autouse=True)
def _clean_resolution(monkeypatch):
    """Each test resolves the flag from its own environment."""
    jit.reset()
    yield
    jit.reset()


def sample_run(rng, n_pages=257):
    probs = rng.random(n_pages)
    probs /= probs.sum()
    access = rng.random(n_pages) * 100.0
    window = rng.random(n_pages) * 10.0
    return probs, access, window


class TestNumpyDefault:
    def test_flag_unset_uses_numpy(self, monkeypatch):
        monkeypatch.delenv("CHRONO_JIT", raising=False)
        assert not jit.jit_enabled()

    def test_flag_zero_uses_numpy(self, monkeypatch):
        monkeypatch.setenv("CHRONO_JIT", "0")
        assert not jit.jit_enabled()

    def test_ledger_fold_accumulates_both_counters(self, monkeypatch):
        monkeypatch.delenv("CHRONO_JIT", raising=False)
        rng = np.random.default_rng(0)
        probs, access, window = sample_run(rng)
        base_access, base_window = access.copy(), window.copy()
        buf = np.empty_like(probs)
        jit.ledger_fold(probs, 50.0, access, window, buf)
        np.testing.assert_array_equal(access, base_access + probs * 50.0)
        np.testing.assert_array_equal(window, base_window + probs * 50.0)

    def test_price_fold_masked_rows_only(self, monkeypatch):
        """The masked pricing fold writes exactly the indexed rows,
        with the reference tier-order accumulation (coef = rf*read +
        wf*write, then *mass, summed per tier)."""
        monkeypatch.delenv("CHRONO_JIT", raising=False)
        rng = np.random.default_rng(4)
        n_segs, n_tiers = 13, 3
        mass = rng.random((n_segs, n_tiers)) * 5.0
        wf = rng.random(n_segs)
        rf = 1.0 - wf
        read_lats = rng.random(n_tiers) * 100.0
        write_lats = rng.random(n_tiers) * 300.0
        idx = np.array([0, 2, 5, 11], dtype=np.int64)
        out = np.full(n_segs, -1.0)
        jit.price_fold(mass, rf, wf, read_lats, write_lats, idx, out)
        expected = np.full(n_segs, -1.0)
        acc = np.zeros(idx.size)
        for tier_id in range(n_tiers):
            coef = rf[idx] * read_lats[tier_id]
            coef += wf[idx] * write_lats[tier_id]
            coef *= mass[idx, tier_id]
            acc += coef
        expected[idx] = acc
        np.testing.assert_array_equal(out, expected)
        assert out[1] == -1.0  # untouched rows keep their value


class TestGracefulDegradation:
    @pytest.mark.skipif(
        HAVE_NUMBA, reason="degradation path needs numba absent"
    )
    def test_flag_without_numba_falls_back_to_numpy(self, monkeypatch):
        """CHRONO_JIT=1 on a machine without numba must not raise and
        must leave the numpy kernels active."""
        monkeypatch.setenv("CHRONO_JIT", "1")
        assert not jit.jit_enabled()
        rng = np.random.default_rng(1)
        probs, access, window = sample_run(rng)
        jit.ledger_fold(probs, 10.0, access, window, np.empty_like(probs))

    def test_reset_rereads_environment(self, monkeypatch):
        monkeypatch.setenv("CHRONO_JIT", "0")
        assert not jit.jit_enabled()
        monkeypatch.setenv("CHRONO_JIT", "1")
        # Cached resolution: the flag change is invisible until reset.
        assert not jit.jit_enabled()
        jit.reset()
        assert jit.jit_enabled() == HAVE_NUMBA


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
class TestNumbaBitIdentity:
    """Active only when numba is importable (CI runs the suite once
    with CHRONO_JIT=1 when it is); the compiled kernels must reproduce
    the numpy results bit for bit."""

    def test_ledger_fold_bit_identical(self, monkeypatch):
        rng = np.random.default_rng(2)
        probs, access, window = sample_run(rng, n_pages=4_099)
        buf = np.empty_like(probs)
        ref_access, ref_window = access.copy(), window.copy()
        monkeypatch.setenv("CHRONO_JIT", "0")
        jit.ledger_fold(probs, 123.456, ref_access, ref_window, buf)
        jit.reset()
        monkeypatch.setenv("CHRONO_JIT", "1")
        assert jit.jit_enabled()
        jit.ledger_fold(probs, 123.456, access, window, buf)
        np.testing.assert_array_equal(access, ref_access)
        np.testing.assert_array_equal(window, ref_window)

    def test_price_fold_bit_identical(self, monkeypatch):
        rng = np.random.default_rng(5)
        n_segs, n_tiers = 1_025, 4
        mass = rng.random((n_segs, n_tiers)) * 10.0
        wf = rng.random(n_segs)
        rf = 1.0 - wf
        read_lats = rng.random(n_tiers) * 100.0
        write_lats = rng.random(n_tiers) * 300.0
        idx = np.flatnonzero(rng.random(n_segs) < 0.5)
        ref = np.zeros(n_segs)
        out = np.zeros(n_segs)
        monkeypatch.setenv("CHRONO_JIT", "0")
        jit.price_fold(mass, rf, wf, read_lats, write_lats, idx, ref)
        jit.reset()
        monkeypatch.setenv("CHRONO_JIT", "1")
        assert jit.jit_enabled()
        jit.price_fold(mass, rf, wf, read_lats, write_lats, idx, out)
        np.testing.assert_array_equal(out, ref)
