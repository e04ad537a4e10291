"""The no-numpy fallback of :mod:`repro.kernels.tables`, actually run.

The ``except ImportError`` arm and the pure-Python compile path used to
be dead weight on CI machines (numpy is always importable there), so a
regression in them would ship silently.  These tests force the fallback
two ways — monkeypatching the module seam and re-importing under
``REPRO_FORCE_NO_NUMPY=1`` in a subprocess — and pin that the
pure-Python tables are bit-identical to the numpy-compiled ones.
"""

import os
import subprocess
import sys

import pytest

from repro.kernels import tables as ktables
from repro.kernels.tables import (
    MAX_TABLE_ASSOC,
    PURE_PYTHON_MAX_ASSOC,
    clear_kernel_cache,
    compile_tables,
    numpy_or_none,
    tables_supported,
)

pytestmark = pytest.mark.skipif(
    numpy_or_none() is None,
    reason="these tests compare the fallback against numpy-built tables",
)


@pytest.fixture
def forced_no_numpy(monkeypatch):
    """Disable numpy at the module seam with clean table caches.

    The base-table cache must be cleared on both sides of the patch:
    entries compiled *with* numpy must not leak into the no-numpy run,
    and the polluted no-numpy entries must not survive into later tests.
    """
    clear_kernel_cache()
    saved = dict(ktables._BASE_TABLES)
    ktables._BASE_TABLES.clear()
    monkeypatch.setattr(ktables, "_np", None)
    yield
    ktables._BASE_TABLES.clear()
    ktables._BASE_TABLES.update(saved)
    clear_kernel_cache()


def ipv_for(k, salt=3):
    import random

    rng = random.Random(salt + k)
    return tuple(rng.randrange(k) for _ in range(k + 1))


class TestPurePythonCompile:
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_tables_bit_identical_to_numpy(self, k, forced_no_numpy):
        entries = ipv_for(k)
        pure = compile_tables(k, entries)
        assert pure is not None
        # Recompile the same (k, entries) with numpy restored.
        ktables._BASE_TABLES.clear()
        clear_kernel_cache()
        ktables._np = numpy = __import__("numpy")
        try:
            accel = compile_tables(k, entries)
        finally:
            ktables._np = None  # fixture teardown restores the real seam
        assert pure.victim == accel.victim
        assert pure.pos == accel.pos
        assert pure.hit == accel.hit
        assert pure.fill == accel.fill

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_supported_up_to_pure_python_limit(self, k, forced_no_numpy):
        assert tables_supported(k)
        assert compile_tables(k, ipv_for(k)) is not None

    def test_k16_unsupported_without_numpy(self, forced_no_numpy):
        assert PURE_PYTHON_MAX_ASSOC < MAX_TABLE_ASSOC
        assert not tables_supported(MAX_TABLE_ASSOC)
        assert compile_tables(MAX_TABLE_ASSOC, ipv_for(16)) is None
        # Every scalar consumer then takes its bit-walk fallback.
        from repro.engine.scalar import ScalarStreamSimulator
        from repro.policies.plru import (
            DGIPPRPolicy,
            GIPPRPolicy,
            TreePLRUPolicy,
        )

        assert ScalarStreamSimulator(4, 16, ipv_for(16)).kernel_mode == "walk"
        for policy in (
            TreePLRUPolicy(4, 16), GIPPRPolicy(4, 16), DGIPPRPolicy(4, 16),
        ):
            assert policy.kernel_mode == "walk"

    def test_numpy_or_none_reflects_patch(self, forced_no_numpy):
        assert numpy_or_none() is None


class TestForcedImportEnv:
    def test_repro_force_no_numpy_takes_import_error_arm(self):
        """A fresh interpreter under REPRO_FORCE_NO_NUMPY=1 must compile
        pure-Python tables that match this process's numpy-built ones."""
        k = 8
        entries = ipv_for(k)
        code = (
            "import hashlib\n"
            "from repro.kernels import tables as t\n"
            "assert t.numpy_or_none() is None\n"
            f"assert not t.tables_supported({MAX_TABLE_ASSOC})\n"
            f"tab = t.compile_tables({k}, {entries!r})\n"
            "digest = hashlib.sha256(tab.victim.tobytes()"
            " + tab.pos.tobytes() + tab.hit.tobytes()"
            " + tab.fill.tobytes()).hexdigest()\n"
            "print(digest)\n"
        )
        env = dict(os.environ, REPRO_FORCE_NO_NUMPY="1")
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        import hashlib

        here = compile_tables(k, entries)
        digest = hashlib.sha256(
            here.victim.tobytes() + here.pos.tobytes()
            + here.hit.tobytes() + here.fill.tobytes()
        ).hexdigest()
        assert out.stdout.strip() == digest

    def test_columnar_engine_refuses_in_subprocess(self):
        """Without numpy the columnar engine raises ColumnarUnavailable —
        it must not silently fall back to a scalar path."""
        code = (
            "from repro.engine.columnar import (BatchSimulator,"
            " ColumnarUnavailable, columnar_supported)\n"
            "assert not columnar_supported(4)\n"
            "try:\n"
            "    BatchSimulator(16, 4, [(0, 0, 0, 0, 0)])\n"
            "except ColumnarUnavailable as exc:\n"
            "    assert 'REPRO_FORCE_NO_NUMPY' in str(exc)\n"
            "else:\n"
            "    raise SystemExit('BatchSimulator ran without numpy')\n"
        )
        env = dict(os.environ, REPRO_FORCE_NO_NUMPY="1")
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
