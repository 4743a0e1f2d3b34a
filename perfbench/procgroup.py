"""CPU time and memory of a program's process group, read from ``/proc``.

Every program process the benchmark launches leads a process group of
its own, and the workers it forks stay in that group.  Reading the whole
group counts workers whether they are forked per call and reaped (their
time is then in the leader's ``cutime``/``cstime``) or long-lived (their
time is still in their own ``utime``/``stime``).
"""

from __future__ import annotations

import os

_TICK = os.sysconf("SC_CLK_TCK")


def _members(pgid: int):
    """``(pid, stat fields after the command name)`` of each process in
    the group; a process that exits while the group is read is skipped."""
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid:
            yield int(name), fields


def cpu_s(pgid: int) -> tuple[float, float]:
    """``(leader, workers)`` CPU seconds (user + system) so far.

    ``workers`` is every other member's own time plus the time of the
    children each member, the leader included, has reaped.  A child
    reaped between two reads of one call can be missed or counted twice;
    calls are made between bursts of work, when no worker is exiting.
    """
    leader = workers = 0
    for pid, f in _members(pgid):
        own, reaped = int(f[11]) + int(f[12]), int(f[13]) + int(f[14])
        if pid == pgid:
            leader += own
        else:
            workers += own
        workers += reaped
    return leader / _TICK, workers / _TICK


def _field_kb(path: str, keys: tuple) -> int:
    total = 0
    with open(path) as f:
        for line in f:
            if line.split(":", 1)[0] in keys:
                total += int(line.split()[1])
    return total


def vm_hwm_kb(pid) -> int:
    """Peak resident memory of a live process since it started its program
    (``VmHWM``; the copy of the parent it was forked as does not count)."""
    return _field_kb(f"/proc/{pid}/status", ("VmHWM",))


def peak_kb(pgid: int) -> int:
    """The leader's peak resident memory plus the private memory of every
    other live member.  A forked worker shares its unwritten pages with
    the leader, so only what it has written is its own."""
    total = vm_hwm_kb(pgid)
    for pid, _f in _members(pgid):
        if pid != pgid:
            try:
                total += _field_kb(f"/proc/{pid}/smaps_rollup",
                                   ("Private_Clean", "Private_Dirty"))
            except OSError:
                pass
    return total
