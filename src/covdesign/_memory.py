"""The host's physical memory, for refusing sizes that cannot fit in it."""

from __future__ import annotations

import math
import os


def physical_memory() -> int | None:
    """Bytes of physical memory on this machine, or None where unknown."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def bytes_text(size: int) -> str:
    exp = min(int(math.log(max(size, 1), 1024)), 4)
    return f"{size / 1024**exp:.1f} {('B', 'KiB', 'MiB', 'GiB', 'TiB')[exp]}"
