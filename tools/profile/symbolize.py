#!/usr/bin/env python3
"""Resolve a sampler.cc output file into flat profile tables.

Usage: symbolize.py <samples-file> [--top N]

Each sample is an instruction pointer and one caller. The script maps
both to (ELF object, address in that object) through the /proc/self/maps
copy in the file, resolves them with `addr2line -a -f -i -C` in one batch
per object, and prints four tables of sample shares:

  function  the outermost function holding the sampled instruction (the
            real, out-of-line function, with everything inlined into it)
  inline    the innermost inlined function at the instruction
  line      the innermost source line at the instruction
  caller    "function <- caller's function", one frame up

Build with -g so addr2line finds lines, and -fno-omit-frame-pointer for
the caller table.
"""

import argparse
import collections
import struct
import subprocess
import sys


def load_segments(path):
    """The PT_LOAD segments of a 64-bit little-endian ELF file."""
    with open(path, "rb") as f:
        head = f.read(64)
        if head[:4] != b"\x7fELF" or head[4] != 2 or head[5] != 1:
            return []
        phoff, = struct.unpack_from("<Q", head, 32)
        phentsize, phnum = struct.unpack_from("<HH", head, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segs = []
    for i in range(phnum):
        ptype, _, offset, vaddr, _, filesz, _, _ = struct.unpack_from(
            "<IIQQQQQQ", table, i * phentsize)
        if ptype == 1:  # PT_LOAD
            segs.append((offset, vaddr, filesz))
    return segs


def parse(path):
    maps, samples, section = [], [], None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#"):
                continue
            if line in ("maps", "samples"):
                section = line
                continue
            if section == "maps":
                parts = line.split(None, 5)
                if len(parts) == 6 and parts[5].startswith("/"):
                    lo, hi = (int(x, 16) for x in parts[0].split("-"))
                    maps.append((lo, hi, int(parts[2], 16), parts[5]))
            elif section == "samples":
                ip, caller = (int(x, 16) for x in line.split())
                samples.append((ip, caller))
    return maps, samples


class Resolver:
    """Runtime address -> (object, ELF virtual address)."""

    def __init__(self, maps):
        self.maps = sorted(maps)
        self.segs = {}

    def locate(self, addr):
        for lo, hi, off, obj in self.maps:
            if lo <= addr < hi:
                fileoff = addr - lo + off
                if obj not in self.segs:
                    try:
                        self.segs[obj] = load_segments(obj)
                    except OSError:
                        self.segs[obj] = []
                for soff, svaddr, sz in self.segs[obj]:
                    if soff <= fileoff < soff + sz:
                        return obj, fileoff - soff + svaddr
                return obj, fileoff
        return None, addr


def addr2line(obj, addrs):
    """{address: [(function, file:line), ...] innermost first}."""
    out = {}
    proc = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", obj] +
        ["%x" % a for a in addrs],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=False)
    current, lines = None, proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            current = int(lines[i], 16)
            out[current] = []
            i += 1
            continue
        func = lines[i]
        where = lines[i + 1] if i + 1 < len(lines) else "??:0"
        out[current].append((func, where.split(" (discriminator")[0]))
        i += 2
    return out


def table(title, counter, total, top):
    print("\n== %s (%d samples)" % (title, total))
    for name, n in counter.most_common(top):
        print("%6.2f%%  %7d  %s" % (100.0 * n / total, n, name))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("samples")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()

    maps, samples = parse(args.samples)
    if not samples:
        sys.exit("symbolize: no samples in %s" % args.samples)
    res = Resolver(maps)
    located = {}
    wanted = collections.defaultdict(set)
    for ip, caller in samples:
        for a in (ip, caller - 1 if caller else 0):
            if a and a not in located:
                located[a] = res.locate(a)
                obj, va = located[a]
                if obj:
                    wanted[obj].add(va)
    frames = {}
    for obj, vas in wanted.items():
        for va, chain in addr2line(obj, sorted(vas)).items():
            frames[(obj, va)] = chain

    def chain_of(addr):
        obj, va = located.get(addr, (None, addr))
        chain = frames.get((obj, va))
        if not chain or chain[0][0] == "??":
            base = obj.rsplit("/", 1)[-1] if obj else "?"
            return [("[%s+%#x]" % (base, va), "??:0")]
        return chain

    funcs, inlines, lines, callers = (collections.Counter()
                                      for _ in range(4))
    for ip, caller in samples:
        chain = chain_of(ip)
        outer = chain[-1][0]
        funcs[outer] += 1
        inlines[chain[0][0]] += 1
        lines[chain[0][1]] += 1
        # The return address points past the call; look up the call.
        up = chain_of(caller - 1)[-1][0] if caller else "?"
        callers["%s <- %s" % (outer, up)] += 1

    total = len(samples)
    table("function (outermost, inlines folded in)", funcs, total, args.top)
    table("inline (innermost at the sampled instruction)", inlines, total,
          args.top)
    table("line (innermost)", lines, total, args.top)
    table("function <- caller", callers, total, args.top)


if __name__ == "__main__":
    main()
