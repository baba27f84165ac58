"""Fixed glibc heap thresholds for the whole process, set once at import.

glibc serves a large allocation with ``mmap`` and unmaps it on free, and it
trims freed memory at the top of the heap back to the kernel.  Both
thresholds adapt at run time, so the numpy temporaries of one task (a few
hundred kilobytes each on a default grid, megabytes on a deep one) are
returned to the kernel and faulted in again by the next task.  Fixing
``M_MMAP_THRESHOLD`` at 32 MiB and ``M_TRIM_THRESHOLD`` at 256 MiB keeps
those pages in the heap, where later tasks reuse them.

The setting is process-wide: a program that imports blochlab keeps its
resident set at its high-water mark instead of giving freed heap pages
back.  On any other C library nothing is changed.
"""

from __future__ import annotations

import ctypes
import os

__all__ = ["glibc_version", "fix_heap_thresholds", "FIXED"]

M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20  # glibc's upper limit for this threshold on 64-bit systems
TRIM_THRESHOLD_BYTES = 256 << 20


def glibc_version() -> str | None:
    """The running glibc's version string, or None on another C library."""
    try:
        return os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return None


def fix_heap_thresholds() -> bool:
    """Set both thresholds with ``mallopt`` when the C library is glibc;
    True when both calls succeeded, False when none was made or one failed."""
    if not glibc_version():
        return False
    mallopt = ctypes.CDLL(None).mallopt  # the process's own symbols, glibc's among them
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mmap_ok = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    trim_ok = mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)
    return bool(mmap_ok and trim_ok)


FIXED = fix_heap_thresholds()
