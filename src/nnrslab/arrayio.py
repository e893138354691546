"""Deterministic binary serialization of named numpy arrays.

``np.savez`` stamps zip entries with the current time, so two identical
saves differ at the byte level. Index-building and checkpointing promise
byte-identical reruns, hence this thin replacement: same on-disk format
(a zip of ``.npy`` members, readable by ``np.load``) but with a fixed
entry timestamp and a fixed member order.

Saves go through :func:`replacing`, so a failed or killed one leaves the
previous file intact. :func:`load_arrays` reads every member back with
``np.lib.format.read_array``. :func:`write_csv` is the one CSV table
writer.
"""

import contextlib
import csv
import os
import re
import zipfile

import numpy as np

_EPOCH = (1980, 1, 1, 0, 0, 0)  # earliest timestamp zip can represent
TMP_NAME = re.compile(r".+\.[0-9]+\.tmp\Z")  # the name of a file replacing() writes


@contextlib.contextmanager
def replacing(path, mode="wb", **open_kwargs):
    """Write to ``<path>.<pid>.tmp``, renamed over `path` on a clean exit.

    Readers see the old file or the complete new one. A write that
    raises removes the temporary file; a killed one can leave it behind,
    for whoever next holds the directory's lock to remove (cli._DirLock).
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


def load_arrays(path) -> dict:
    """Read back a mapping of name -> array written by :func:`save_arrays`."""
    try:
        zf = zipfile.ZipFile(path)
    except zipfile.BadZipFile as exc:
        raise ValueError("%s is not an array archive: %s" % (path, exc)) from None
    with zf:
        arrays = {}
        for info in zf.infolist():
            with zf.open(info) as fh:
                arrays[info.filename[:-len(".npy")]] = np.lib.format.read_array(
                    fh, allow_pickle=False)
        return arrays
