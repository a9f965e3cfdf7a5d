"""The fixed pure-Python reference loop that the gated throughput is measured in.

The host this benchmark was written on alternates between speed phases about
1.4-1.8x apart, lasting from a few hundred milliseconds to several seconds,
and drifts between them over minutes. Timing this loop just before and just
after each iteration and dividing the iteration time by their mean cancels
the part of that which lasts longer than an iteration: the gated metric
counts work per reference-loop time, not per second.

The loop mixes the interpreter work the program does most: integer bit
mixing (CRC, KATAN, BIST), float formatting into CSV-like rows and parsing
them back (trace files), and list, dict and string traffic with a working set
of about a megabyte. A tight integer-only loop with a small working set was
tried first; the host's phases moved it differently from the workloads, so
it tracked them worse than no normalisation at all.

Do not change it: a throughput measured against a different loop is not
comparable with earlier runs. ``reference_loop`` returns a checksum that the
benchmark compares with ``REFERENCE_CHECKSUM`` so that an altered loop is
caught.
"""

from __future__ import annotations

REFERENCE_ROUNDS = 18_000
REFERENCE_CHECKSUM = 3974948043
# the loop's typical duration on the host it was written on; converts a time
# counted in reference-loop units back to seconds
REFERENCE_SECONDS = 0.06


def reference_loop() -> int:
    acc = 0x12345678
    table: dict[int, list] = {}
    rows: list[str] = []
    for i in range(REFERENCE_ROUNDS):
        acc = ((acc << 1) ^ (acc >> 3) ^ i) & 0xFFFFFFFF
        acc ^= (acc & 0xFFFF).bit_count()
        rows.append(f"{i * 0.1!r},{acc / 65536.0!r}\n")
        if i % 4 == 0:
            table[acc & 4095] = [acc, float(rows[-1].split(",")[1])]
    text = "".join(rows)
    return (acc ^ len(text) ^ len(table) ^ int(sum(v[1] for v in table.values()))) & 0xFFFFFFFF
