"""Tests for the host-side convenience API."""

import numpy as np
import pytest

from repro.host import Device, HostError
from repro.kernels import saxpy_kernel


def _saxpy_on(backend):
    dev = Device(backend, memory_words=1 << 14)
    n = 128
    x = dev.array(np.arange(float(n)))
    y = dev.array(np.ones(n))
    out = dev.empty(n)
    result = dev.launch(
        saxpy_kernel(), n, a=2.0, x=x, y=y, out=out, n=n
    )
    np.testing.assert_allclose(out.to_numpy(), 2.0 * np.arange(n) + 1.0)
    return result


@pytest.mark.parametrize("backend", ["interp", "vgiw", "fermi", "sgmf"])
def test_saxpy_on_every_backend(backend):
    result = _saxpy_on(backend)
    if backend != "interp":
        assert result.cycles > 0


def test_array_roundtrip_and_write():
    dev = Device("interp")
    a = dev.array([1.0, 2.0, 3.0], name="a")
    assert len(a) == 3
    np.testing.assert_array_equal(a.to_numpy(), [1.0, 2.0, 3.0])
    a.write([4.0, 5.0, 6.0])
    np.testing.assert_array_equal(a.to_numpy(), [4.0, 5.0, 6.0])
    with pytest.raises(HostError, match="holds 3 words"):
        a.write([1.0])


def test_unknown_backend_rejected():
    with pytest.raises(HostError, match="unknown backend"):
        Device("tpu")


def test_unknown_backend_lists_registry_and_suggests():
    """The registry's diagnosis — every registered name plus a
    nearest-match hint — surfaces unchanged through Device."""
    from repro.engine import UnknownEngineError, create_engine

    with pytest.raises(UnknownEngineError) as excinfo:
        create_engine("vgwi")
    message = str(excinfo.value)
    for name in ("vgiw", "fermi", "sgmf", "interp"):
        assert name in message
    assert "did you mean 'vgiw'?" in message

    with pytest.raises(HostError) as host_excinfo:
        Device("vgwi")
    assert str(host_excinfo.value) == message


def test_missing_params_rejected():
    dev = Device("interp")
    with pytest.raises(HostError, match="missing kernel parameters"):
        dev.launch(saxpy_kernel(), 8, a=1.0)


def test_foreign_array_rejected():
    dev1, dev2 = Device("interp"), Device("interp")
    a = dev1.array([1.0])
    out = dev1.empty(1)
    with pytest.raises(HostError, match="another device"):
        dev2.launch(saxpy_kernel(), 1, a=1.0, x=a, y=a, out=out, n=1)


def test_last_result_is_kept():
    dev = Device("vgiw", memory_words=1 << 12)
    n = 32
    x = dev.array(np.zeros(n))
    y = dev.array(np.zeros(n))
    out = dev.empty(n)
    result = dev.launch(saxpy_kernel(), n, a=0.0, x=x, y=y, out=out, n=n)
    assert dev.last_result is result
    assert result.bbs.reconfigurations >= 1


def test_optimize_can_be_disabled():
    dev = Device("interp", optimize=False)
    n = 16
    x = dev.array(np.ones(n))
    y = dev.array(np.zeros(n))
    out = dev.empty(n)
    dev.launch(saxpy_kernel(), n, a=3.0, x=x, y=y, out=out, n=n)
    np.testing.assert_array_equal(out.to_numpy(), 3.0 * np.ones(n))
