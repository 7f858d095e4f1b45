#!/usr/bin/env python3
"""Prime tables at scale: segmented sieving, rank queries, and the cache.

Builds tables of increasing size, times the builds, answers pi / nth-prime /
gap queries, and round-trips the binary cache file.
"""

import os
import tempfile
import time

from erdoslab import build_table, load_table

for limit in (10**6, 10**7, 10**8):
    t0 = time.perf_counter()
    table = build_table(limit)
    dt = time.perf_counter() - t0
    print(f"limit 10^{len(str(limit)) - 1}: pi = {table.primes.size:>9,}  ({dt:.2f}s)")

print()
print("rank queries on the 10^8 table:")
print("  pi(10^8)        =", table.pi(10**8))
print("  pi(1000)        =", table.pi(1000))
print("  25th prime      =", table.nth_prime(25))
print("  millionth prime =", table.nth_prime(10**6))
p30, p31 = table.nth_prime(30), table.nth_prime(31)
print("  gap after p_30  =", p31 - p30, f"(p_31 - p_30 = {p31} - {p30})")

with tempfile.TemporaryDirectory() as d:
    path = os.path.join(d, "primes.bin")
    t0 = time.perf_counter()
    table.save(path)
    t_save = time.perf_counter() - t0
    t0 = time.perf_counter()
    reloaded = load_table(path)
    t_load = time.perf_counter() - t0
    size_mb = os.path.getsize(path) / 2**20
    same = (reloaded.primes == table.primes).all()
    print()
    print(f"cache file: {size_mb:.1f} MiB, save {t_save:.2f}s, load {t_load:.2f}s, "
          f"round-trip identical: {same}")
    print("(set ERDOS_CACHE_DIR to keep caches across runs; load_or_build() uses it)")
