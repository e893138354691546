"""Deterministic binary serialization of named numpy arrays.

``np.savez`` stamps zip entries with the current time, so two identical
saves differ at the byte level. Index-building and checkpointing promise
byte-identical reruns, hence this thin replacement: same on-disk format
(a zip of ``.npy`` members, readable by ``np.load``) but with a fixed
entry timestamp and a fixed member order.

Saves go through :func:`replacing`, so a failed or killed one leaves the
previous file intact.
"""

import contextlib
import io
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


def save_arrays(path, **arrays) -> None:
    """Write named arrays to `path` as a zip of .npy members, byte-stably."""
    with replacing(path) as fh, zipfile.ZipFile(fh, "w", compression=zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asarray(arrays[name]))
            info = zipfile.ZipInfo(name + ".npy", date_time=_EPOCH)
            zf.writestr(info, buf.getvalue())


def load_arrays(path) -> dict:
    """Read back a mapping of name -> array written by :func:`save_arrays`."""
    with np.load(path, allow_pickle=False) as data:
        return {name: data[name] for name in data.files}
