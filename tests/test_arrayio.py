"""Byte-stable, crash-safe array archives."""

import tracemalloc

import numpy as np
import pytest

from nnrslab.arrayio import load_arrays, save_arrays
from synth import writestr_save_arrays


def test_round_trip_and_byte_stable(tmp_path):
    arrays = dict(b=np.arange(6).reshape(2, 3), a=np.linspace(0.0, 1.0, 5))
    first, second = tmp_path / "one.bin", tmp_path / "two.bin"
    save_arrays(first, **arrays)
    save_arrays(second, **arrays)
    assert first.read_bytes() == second.read_bytes()
    back = load_arrays(first)
    assert sorted(back) == ["a", "b"]
    np.testing.assert_array_equal(back["b"], arrays["b"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.bin", "two.bin"]


def test_streamed_members_equal_writestr_reference(tmp_path):
    rng = np.random.default_rng(3)
    arrays = dict(
        scalar=np.float64(2.5), zero_d=np.array(7, dtype=np.int32),
        empty=np.zeros((0, 4)), ints=np.arange(12, dtype=np.int64).reshape(3, 4),
        fortran=np.asfortranarray(rng.normal(size=(5, 3))),
        strided=rng.normal(size=(6, 4))[::2, 1:],
        meta=np.frombuffer(b'{"magic": 1}', dtype=np.uint8), wide=rng.normal(size=(300, 1000)),
    )
    streamed, reference = tmp_path / "streamed.bin", tmp_path / "reference.bin"
    save_arrays(streamed, **arrays)
    writestr_save_arrays(reference, **arrays)
    assert streamed.read_bytes() == reference.read_bytes()
    back = load_arrays(streamed)
    for name, array in arrays.items():
        assert back[name].dtype == np.asarray(array).dtype
        np.testing.assert_array_equal(back[name], array)
    assert np.isfortran(back["fortran"])


def test_save_holds_no_serialized_copy(tmp_path):
    # each member is streamed: the peak is about one member's bytes (the
    # chunk numpy copies out), not the member plus its serialized copy
    rng = np.random.default_rng(4)
    arrays = dict(w=rng.normal(size=(128, 10000)), e=rng.normal(size=(10000, 64)))
    largest = max(a.nbytes for a in arrays.values())
    tracemalloc.start()
    try:
        save_arrays(tmp_path / "big.bin", **arrays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * largest


def test_failed_save_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.bin"
    save_arrays(path, a=np.zeros(3), b=np.ones(3))
    before = path.read_bytes()
    real = np.lib.format.write_array
    calls = []

    def fail_second(fh, array, *args, **kwargs):
        calls.append(1)
        if len(calls) == 2:  # the first member is already in the archive
            raise OSError("disk full")
        return real(fh, array, *args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", fail_second)
    with pytest.raises(OSError, match="disk full"):
        save_arrays(path, a=np.full(3, 7.0), b=np.full(3, 8.0))
    assert len(calls) == 2
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]


def test_not_an_archive(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not an archive")
    with pytest.raises(ValueError, match="not an array archive"):
        load_arrays(path)
