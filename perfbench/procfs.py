"""Process-tree accounting from ``/proc`` (no psutil): CPU, PSS, leaks."""

from __future__ import annotations

import os
from typing import Dict, List, Set

_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    with open("/proc/{}/stat".format(pid)) as handle:
        data = handle.read()
    # The command name may contain spaces; it ends at the last ')'.
    return data[data.rindex(")") + 2:].split()


def _cmdline(pid: int) -> str:
    try:
        with open("/proc/{}/cmdline".format(pid), "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode("utf-8", "replace")
    except OSError:
        return ""


def children_map() -> Dict[int, List[int]]:
    """ppid -> live child pids, for every process visible in /proc."""
    tree: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = _stat_fields(int(entry))
        except (OSError, ValueError):
            continue
        if fields[0] == "Z":
            continue
        tree.setdefault(int(fields[1]), []).append(int(entry))
    return tree


def descendants(pid: int) -> List[int]:
    """Live descendants of ``pid`` (not including it)."""
    tree = children_map()
    out: List[int] = []
    pending = list(tree.get(pid, ()))
    while pending:
        child = pending.pop()
        out.append(child)
        pending.extend(tree.get(child, ()))
    return sorted(out)


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        return _stat_fields(pid)[0] != "Z"
    except (OSError, ValueError):
        return False


def is_resource_tracker(pid: int) -> bool:
    """The interpreter's multiprocessing resource tracker (not the SUT)."""
    return "resource_tracker" in _cmdline(pid)


def cpu_s(pid: int) -> float:
    """User + system CPU seconds of one live process (0.0 if gone)."""
    try:
        fields = _stat_fields(pid)
    except (OSError, ValueError):
        return 0.0
    # utime, stime are fields 14 and 15 of /proc/<pid>/stat (1-based).
    return (int(fields[11]) + int(fields[12])) / _TICKS


def tree_cpu_s(pids) -> Dict[int, float]:
    return {pid: cpu_s(pid) for pid in pids}


def pss_mb(pids) -> float:
    """Summed proportional set size of ``pids`` in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open("/proc/{}/smaps_rollup".format(pid)) as handle:
                for line in handle:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def steal_s() -> float:
    """CPU seconds the hypervisor has taken from this machine since boot."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    # "cpu user nice system idle iowait irq softirq steal ..."
    return int(fields[8]) / _TICKS if len(fields) > 8 else 0.0


def shm_segments() -> Set[str]:
    """Names currently in /dev/shm."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()
