"""Deterministic binary serialization of named numpy arrays.

``np.savez`` stamps zip entries with the current time, so two identical
saves differ at the byte level. Index-building and checkpointing promise
byte-identical reruns, hence this thin replacement: same on-disk format
(a zip of ``.npy`` members, readable by ``np.load``) but with a fixed
entry timestamp and a fixed member order.

Saves go to a temporary file next to the target that is then renamed
over it, so a save that fails or is killed leaves the previous file
intact.
"""

import io
import os
import zipfile

import numpy as np

_EPOCH = (1980, 1, 1, 0, 0, 0)  # earliest timestamp zip can represent


def save_arrays(path, **arrays) -> None:
    """Write named arrays to `path` as a zip of .npy members, byte-stably.

    The target is replaced atomically: readers see the old file or the
    complete new one. A save that raises removes its temporary file; a
    killed one can leave ``<path>.<pid>.tmp`` behind, never a torn target.
    """
    path = os.fspath(path)
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with zipfile.ZipFile(tmp, "w", compression=zipfile.ZIP_STORED) as zf:
            for name in sorted(arrays):
                buf = io.BytesIO()
                np.lib.format.write_array(buf, np.asarray(arrays[name]))
                info = zipfile.ZipInfo(name + ".npy", date_time=_EPOCH)
                zf.writestr(info, buf.getvalue())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def load_arrays(path) -> dict:
    """Read back a mapping of name -> array written by :func:`save_arrays`."""
    with np.load(path, allow_pickle=False) as data:
        return {name: data[name] for name in data.files}
