"""Deterministic binary serialization of named numpy arrays.

``np.savez`` stamps zip entries with the current time, so two identical
saves differ at the byte level. Index-building and checkpointing promise
byte-identical reruns, hence this thin replacement: same on-disk format
(a zip of ``.npy`` members, readable by ``np.load``) but with a fixed
entry timestamp and a fixed member order.

Saves go through :func:`replacing`, so a failed or killed one leaves the
previous file intact. :func:`write_csv` is the one CSV table writer.
"""

import contextlib
import csv
import os
import zipfile

import numpy as np

_EPOCH = (1980, 1, 1, 0, 0, 0)  # earliest timestamp zip can represent


@contextlib.contextmanager
def replacing(path, mode="wb", **open_kwargs):
    """Write to ``<path>.<pid>.tmp``, renamed over `path` on a clean exit.

    Readers see the old file or the complete new one. A write that
    raises removes the temporary file; a killed one can leave it behind.
    """
    path = os.fspath(path)
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """Write a header row and then `rows` to `path` through :func:`replacing`,
    in UTF-8 with csv.writer's dialect: lines end in CRLF and a float is
    written as its repr, so callers pass Python floats, not numpy ones.
    `rows` is consumed one row at a time."""
    with replacing(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def save_arrays(path, **arrays) -> None:
    """Write named arrays to `path` as a zip of .npy members, byte-stably.
    Each member is streamed in, with zip64 headers where writestr would
    use them, so no serialized copy of it is held."""
    with replacing(path) as fh, zipfile.ZipFile(fh, "w", compression=zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            array = np.asarray(arrays[name])
            info = zipfile.ZipInfo(name + ".npy", date_time=_EPOCH)
            with zf.open(info, "w", force_zip64=array.nbytes * 1.05 > zipfile.ZIP64_LIMIT) as zm:
                np.lib.format.write_array(zm, array)


def _read_header(fh):
    """(shape, fortran_order, dtype) from the header of a .npy stream."""
    version = np.lib.format.read_magic(fh)
    if version == (1, 0):
        return np.lib.format.read_array_header_1_0(fh)
    return np.lib.format.read_array_header_2_0(fh)


def _read_into(fh, name, target) -> np.ndarray:
    """Read the .npy stream `fh` into the C-contiguous array `target`, in
    chunks of the size np.lib.format.read_array reads."""
    shape, fortran, dtype = _read_header(fh)
    if (shape, dtype, fortran) != (target.shape, target.dtype, False):
        raise ValueError("%s is a %s %s array, not a %s %s one"
                         % (name, shape, dtype, target.shape, target.dtype))
    buf = memoryview(target.reshape(-1)).cast("B")
    for lo in range(0, len(buf), np.lib.format.BUFFER_SIZE):
        chunk = fh.read(min(np.lib.format.BUFFER_SIZE, len(buf) - lo))
        if not chunk:
            raise ValueError("%s is truncated" % name)
        buf[lo:lo + len(chunk)] = chunk
    return target


def load_arrays(path, into=None) -> dict:
    """Read back a mapping of name -> array written by :func:`save_arrays`.

    `into`, if given, is called with {name: shape} of every member before
    any data is read and returns {name: array}: those members are read
    straight into those arrays (C-contiguous, of the member's shape and
    dtype) instead of new ones.
    """
    try:
        zf = zipfile.ZipFile(path)
    except zipfile.BadZipFile as exc:
        raise ValueError("%s is not an array archive: %s" % (path, exc)) from None
    with zf:
        members = {info.filename[:-len(".npy")]: info for info in zf.infolist()}
        targets = {}
        if into is not None:
            shapes = {}
            for name, info in members.items():
                with zf.open(info) as fh:
                    shapes[name] = _read_header(fh)[0]
            targets = into(shapes)
        arrays = {}
        for name, info in members.items():
            with zf.open(info) as fh:
                arrays[name] = (_read_into(fh, name, targets[name]) if name in targets
                                else np.lib.format.read_array(fh, allow_pickle=False))
        return arrays
