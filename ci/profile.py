#!/usr/bin/env python3
"""User-space CPU profile of one benchmark rep: where its CPU time goes.

    ci/profile.py [--workload sync] [--seed 7] [--mode untraced] [--top 25]

A development tool, not a CI step. It builds the benchmark with line tables
(CARGO_PROFILE_RELEASE_DEBUG=line-tables-only) into its own target directory,
target/profile, so the binary the benchmark measures is not the one profiled.
It then starts one `benchmark rep` child and samples it with perf_event_open:
a software task clock (no hardware PMU needed), user space only
(exclude_kernel, so it runs at perf_event_paranoid 2), one event per CPU with
`inherit`, so every thread the child starts is sampled. Only that child and
its threads are observed. Samples are symbolized with `llvm-symbolizer
--inlining` and printed as the share of CPU by innermost function (the inlined
frame the sample landed in), by outermost function (the real, non-inlined
function containing it) and by source line.

Stdlib only (ctypes, mmap); x86-64 Linux.
"""

import argparse
import collections
import ctypes
import mmap
import os
import shutil
import struct
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = os.path.join(ROOT, "target", "profile")

SYS_PERF_EVENT_OPEN = 298  # x86-64
PERF_TYPE_SOFTWARE = 1
PERF_COUNT_SW_TASK_CLOCK = 1
PERF_SAMPLE_IP = 1 << 0
PERF_SAMPLE_TID = 1 << 1
PERF_FLAG_FD_CLOEXEC = 1 << 3
# perf_event_attr flag bits.
DISABLED, INHERIT, EXCLUDE_KERNEL, EXCLUDE_HV = 1 << 0, 1 << 1, 1 << 5, 1 << 6
MMAP, ENABLE_ON_EXEC = 1 << 8, 1 << 12
# Record types.
PERF_RECORD_MMAP, PERF_RECORD_LOST, PERF_RECORD_SAMPLE = 1, 2, 9

DATA_PAGES = 512  # 2 MB ring per CPU, drained every 20 ms


class PerfEventAttr(ctypes.Structure):
    """`struct perf_event_attr`, up to PERF_ATTR_SIZE_VER5 (112 bytes)."""

    _fields_ = [
        ("type", ctypes.c_uint32),
        ("size", ctypes.c_uint32),
        ("config", ctypes.c_uint64),
        ("sample_period", ctypes.c_uint64),
        ("sample_type", ctypes.c_uint64),
        ("read_format", ctypes.c_uint64),
        ("flags", ctypes.c_uint64),
        ("wakeup_events", ctypes.c_uint32),
        ("bp_type", ctypes.c_uint32),
        ("config1", ctypes.c_uint64),
        ("config2", ctypes.c_uint64),
        ("branch_sample_type", ctypes.c_uint64),
        ("sample_regs_user", ctypes.c_uint64),
        ("sample_stack_user", ctypes.c_uint32),
        ("clockid", ctypes.c_int32),
        ("sample_regs_intr", ctypes.c_uint64),
        ("aux_watermark", ctypes.c_uint32),
        ("sample_max_stack", ctypes.c_uint16),
        ("reserved_2", ctypes.c_uint16),
    ]


def open_events(pid, period_ns):
    """One sampling task-clock event per online CPU on `pid` and its future
    threads, enabled when `pid` execs."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.syscall.restype = ctypes.c_long
    attr = PerfEventAttr()
    attr.type = PERF_TYPE_SOFTWARE
    attr.size = ctypes.sizeof(PerfEventAttr)
    attr.config = PERF_COUNT_SW_TASK_CLOCK
    attr.sample_period = period_ns
    attr.sample_type = PERF_SAMPLE_IP | PERF_SAMPLE_TID
    attr.flags = DISABLED | INHERIT | EXCLUDE_KERNEL | EXCLUDE_HV | MMAP | ENABLE_ON_EXEC
    events = []
    for cpu in range(os.cpu_count()):
        fd = libc.syscall(
            SYS_PERF_EVENT_OPEN, ctypes.byref(attr), pid, cpu, -1, PERF_FLAG_FD_CLOEXEC
        )
        if fd < 0:
            err = ctypes.get_errno()
            if err == 19:  # ENODEV: an offline CPU
                continue
            raise OSError(err, f"perf_event_open on cpu {cpu}: {os.strerror(err)}")
        ring = mmap.mmap(fd, (1 + DATA_PAGES) * mmap.PAGESIZE, mmap.MAP_SHARED,
                         mmap.PROT_READ | mmap.PROT_WRITE)
        events.append((fd, ring))
    return events


def drain(ring, records):
    """Moves every complete record out of `ring` into `records`."""
    head, tail = struct.unpack_from("<QQ", ring, 1024)
    offset, size = struct.unpack_from("<QQ", ring, 1040)

    def read(pos, n):  # n bytes at ring position `pos`, across the wrap
        start = offset + pos % size
        first = min(n, offset + size - start)
        return ring[start:start + first] + ring[offset:offset + n - first]

    while tail < head:
        kind, _misc, length = struct.unpack("<IHH", read(tail, 8))
        records.append((kind, read(tail, length)))
        tail += length
    struct.pack_into("<Q", ring, 1032, tail)


def load_segments(path):
    """An ELF file's PT_LOAD segments as (offset, filesz, vaddr)."""
    with open(path, "rb") as f:
        elf = f.read(64)
        if elf[:4] != b"\x7fELF" or elf[4] != 2:
            return []
        phoff, = struct.unpack_from("<Q", elf, 32)
        phentsize, phnum = struct.unpack_from("<HH", elf, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segments = []
    for i in range(phnum):
        p_type, _flags, p_offset, p_vaddr, _paddr, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segments.append((p_offset, p_filesz, p_vaddr))
    return segments


def symbolize(path, addrs):
    """{address: [(function, "file:line"), ...]} innermost frame first."""
    out = subprocess.run(
        ["llvm-symbolizer", "--inlining", "--demangle", f"--obj={path}"],
        input="".join(f"0x{a:x}\n" for a in addrs), capture_output=True, text=True,
        check=True).stdout
    frames, blocks = {}, out.split("\n\n")
    for addr, block in zip(addrs, blocks):
        lines = block.strip("\n").split("\n")
        frames[addr] = [(lines[i], short(lines[i + 1]) if i + 1 < len(lines) else "??")
                        for i in range(0, len(lines) - 1, 2)] or [("??", "??")]
    return frames


def short(location):
    """`file:line:col` as `file:line`, relative to the repo (or to the
    toolchain's source root, for the standard library)."""
    parts = location.rsplit(":", 2)
    path = parts[0]
    if path.startswith(ROOT + "/"):
        path = path[len(ROOT) + 1:]
    elif path.startswith("/rustc/"):  # /rustc/<commit>/library/...
        path = path.split("/", 3)[-1]
    return f"{path}:{parts[1]}" if len(parts) > 1 else path


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="sync")
    ap.add_argument("--seed", default="7")
    ap.add_argument("--mode", default="untraced")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--period-us", type=int, default=250,
                    help="task-clock time between samples of one thread")
    args = ap.parse_args()
    if not shutil.which("llvm-symbolizer"):
        sys.exit("profile.py: llvm-symbolizer is not on PATH")

    env = dict(os.environ, CARGO_PROFILE_RELEASE_DEBUG="line-tables-only")
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                    "--manifest-path", os.path.join(ROOT, "benchmark", "Cargo.toml"),
                    "--target-dir", TARGET], env=env, check=True)
    binary = os.path.join(TARGET, "release", "benchmark")
    argv = [binary, "rep", "--mode", args.mode, "--workload", args.workload,
            "--seed", args.seed]

    # The child waits on a pipe until its events exist, then execs.
    go_r, go_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(go_w)
        os.read(go_r, 1)
        os.execv(binary, argv)
    os.close(go_r)
    try:
        events = open_events(pid, args.period_us * 1000)
    except OSError as err:
        os.kill(pid, 9)  # before it could exec
        os.waitpid(pid, 0)
        sys.exit(f"profile.py: {err.strerror}")
    os.write(go_w, b"x")
    os.close(go_w)

    records = []
    while True:
        for _, ring in events:
            drain(ring, records)
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.02)
    for _, ring in events:
        drain(ring, records)
    for fd, ring in events:
        ring.close()
        os.close(fd)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"profile.py: {' '.join(argv)} failed")

    maps, ips, lost = [], collections.Counter(), 0
    for kind, rec in records:
        if kind == PERF_RECORD_SAMPLE:
            ips[struct.unpack_from("<Q", rec, 8)[0]] += 1
        elif kind == PERF_RECORD_MMAP:
            addr, length, pgoff = struct.unpack_from("<QQQ", rec, 16)
            name = rec[40:].split(b"\0", 1)[0].decode(errors="replace")
            maps.append((addr, length, pgoff, name))
        elif kind == PERF_RECORD_LOST:
            lost += struct.unpack_from("<Q", rec, 16)[0]
    total = sum(ips.values())
    if total == 0:
        sys.exit("profile.py: no samples")

    # Each sampled address as (object, address inside the object's ELF).
    by_object = collections.defaultdict(dict)
    for ip in ips:
        for addr, length, pgoff, name in maps:
            if addr <= ip < addr + length and os.path.isfile(name):
                file_off = ip - addr + pgoff
                for off, size, vaddr in load_segments(name):
                    if off <= file_off < off + size:
                        by_object[name][ip] = file_off - off + vaddr
                break
    innermost, outermost, line = (collections.Counter() for _ in range(3))
    for name, placed in by_object.items():
        frames = symbolize(name, sorted(set(placed.values())))
        obj = os.path.basename(name)
        for ip, vaddr in placed.items():
            stack = frames[vaddr]
            n = ips[ip]
            innermost[stack[0][0] if stack[0][0] != "??" else f"?? [{obj}]"] += n
            outermost[stack[-1][0] if stack[-1][0] != "??" else f"?? [{obj}]"] += n
            line[stack[0][1] if stack[0][1] != "??" else f"?? [{obj}]"] += n
    unplaced = total - sum(innermost.values())

    print(f"{' '.join(os.path.relpath(a, ROOT) if a.startswith(ROOT) else a for a in argv)}")
    print(f"{total} samples every {args.period_us} us of thread CPU time "
          f"(≈ {total * args.period_us / 1e6:.2f} CPU-s), {lost} lost, "
          f"{unplaced} outside any mapped file")
    for title, counts in (("innermost function", innermost),
                          ("outermost function", outermost),
                          ("source line", line)):
        print(f"\nshare of CPU by {title}:")
        for what, n in counts.most_common(args.top):
            print(f"  {100 * n / total:6.2f} %  {what}")


if __name__ == "__main__":
    main()
