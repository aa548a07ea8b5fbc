"""Machine speed, sampled while a batch runs, and reference seconds.

On shared machines the speed of one core swings widely: on the 2-vCPU VM
this benchmark was written on, the loop below took from 0.24 to 0.8 us per
iteration within a single second, and its median moved by a third between
hours.  Raw seconds then say more about the neighbours than about ineqcert.

So the child process times `loop()` every 20 ms while it works (about 1.5%
of the run), and every interval the benchmark reports is converted into
reference seconds: the time the same work would take on a machine that runs
the loop in REF_S.  An interval of t measured seconds, minus the samples
taken inside it, counts as t * mean(REF_S / d) reference seconds, where d
runs over the durations of the samples that started within PAD_S of the
interval.  The loop is pure-Python arithmetic on 192-bit integers, the same
kind of work as ineqcert's own integer interval arithmetic, and it calls
nothing in ineqcert, so a change to the program moves the reference seconds
as much as it moves the raw ones.
"""

ITERS = 1000
REF_S = 0.00025         # reference duration of one sample: 0.25 us per iteration
PAD_S = 0.04

_A = (1 << 191) + 0x9E3779B97F4A7C15
_B = (1 << 192) - 0x61C8864680B583EB

SAMPLES = []            # (start, end) perf_counter pairs, filled by the child


def loop() -> int:
    x = _A
    for _ in range(ITERS):
        x = (x * _B >> 192) + _A
    return x


def busy(samples, lo: float, hi: float) -> float:
    """Seconds the samples that lie inside [lo, hi] took."""
    return sum(b - a for a, b in samples if lo <= a and b <= hi)


def scale(samples, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Reference seconds per measured second around [lo, hi]."""
    near = [b - a for a, b in samples if lo - PAD_S <= a <= hi + PAD_S]
    near = near or [b - a for a, b in samples]
    return sum(REF_S / d for d in near) / len(near)


def ref_seconds(samples, lo: float, hi: float) -> float:
    """The interval [lo, hi] in reference seconds."""
    return (hi - lo - busy(samples, lo, hi)) * scale(samples, lo, hi)
