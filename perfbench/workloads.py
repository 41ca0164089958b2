"""The benchmark's workloads and the seeded inputs each run sends.

Rates are fixed numbers, not derived from the host, so two commits are
always compared under the same offered load.  They were sized on a 2-core
x86-64 host with the ``batched`` math backend (gmpy2 absent):

* SG02 closed-loop service time there is ≈0.2 s per request (all four
  nodes share one loop), a capacity of ≈5 req/s; 2.0 req/s is ≈40 %.
* The mixed composition costs ≈0.3 s of loop time per request on average
  (SH00 2048-bit dominates), so 1.0 req/s keeps the loop ≈35 % busy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: The paper's local RTT ≈0.65 ms and global RTT ≈100 ms, as one-way delays.
LAN_ONE_WAY_S = 0.000325
WAN_ONE_WAY_S = 0.050
#: Open-loop arrivals are spaced 1/rate apart, each moved by a seeded
#: uniform jitter of at most this fraction of the spacing.
JITTER_FRACTION = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    keys: dict[str, str]              # key id -> scheme
    mix: tuple[tuple[str, int], ...]  # key id -> weight
    one_way_delay_s: float
    open_loop_rps: float | None       # None: closed loop, one request outstanding
    durable: bool                     # each node gets a data_dir

    def composition(self, count: int, rng: random.Random) -> list[str]:
        """``count`` key ids: consecutive blocks that each hold the mix's
        weights exactly, every block shuffled on its own.

        Shuffling per block rather than over the whole run keeps the local
        mix, and so how often a slow request overlaps the next one, the
        same from seed to seed.
        """
        block = [key for key, weight in self.mix for _ in range(weight)]
        keys: list[str] = []
        while len(keys) < count:
            rng.shuffle(block)
            keys.extend(block)
        return keys[:count]

    def arrivals(self, seconds: float, rng: random.Random) -> list[float]:
        """Open-loop due times, as offsets from the start of the window."""
        spacing = 1.0 / self.open_loop_rps
        count = max(1, int(seconds * self.open_loop_rps))
        return [
            (i + 0.5 + rng.uniform(-JITTER_FRACTION, JITTER_FRACTION)) * spacing
            for i in range(count)
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sg02-open-lan",
            why="SG02 decryption from independent users at 40% load on LAN "
                "links: cheapest crypto, so executor and network overhead "
                "weigh most",
            keys={"sg02": "sg02"},
            mix=(("sg02", 1),),
            one_way_delay_s=LAN_ONE_WAY_S,
            open_loop_rps=2.0,
            durable=False,
        ),
        Workload(
            name="bls04-closed-lan",
            why="BLS04 signing by one waiting caller on LAN links: "
                "pairing-bound, no queueing or overlap",
            keys={"bls04": "bls04"},
            mix=(("bls04", 1),),
            one_way_delay_s=LAN_ONE_WAY_S,
            open_loop_rps=None,
            durable=False,
        ),
        Workload(
            name="mixed-wan-durable",
            why="40/20/20/20 SG02/CKS05/KG20/SH00-2048 over four keys at 35% "
                "load, WAN links, durable nodes: storage, TOB, two rounds",
            keys={"sg02": "sg02", "cks05": "cks05", "kg20": "kg20", "sh00": "sh00"},
            mix=(("sg02", 2), ("cks05", 1), ("kg20", 1), ("sh00", 1)),
            one_way_delay_s=WAN_ONE_WAY_S,
            open_loop_rps=1.0,
            durable=True,
        ),
    )
}
