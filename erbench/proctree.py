"""This process and its descendants (the Ray head processes and workers),
read from ``/proc``."""

from __future__ import annotations

import os

CLK_TCK = os.sysconf("SC_CLK_TCK")


def children_by_parent() -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(name))
    return children


def descendants() -> list[int]:
    children, out = children_by_parent(), []
    todo = list(children.get(os.getpid(), []))
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, []))
    return out


def tree_cpu_s() -> float:
    """CPU seconds (user + system) used so far by this process and every
    descendant, counting the reaped children of each (cutime + cstime).
    Time the hypervisor gives to other guests (steal) is not in it."""
    ticks = 0
    for pid in [os.getpid(), *descendants()]:
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            ticks += sum(int(x) for x in fields[11:15])
        except (OSError, IndexError, ValueError):
            continue
    return ticks / CLK_TCK


def tree_peak_rss_mb() -> float:
    """Sum of peak resident memory (VmHWM) of this process and every
    descendant still alive."""
    total_kb = 0
    for pid in [os.getpid(), *descendants()]:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024
