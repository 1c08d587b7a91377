"""The benchmark's speed reference: a fixed loop that runs no vpembed code,
timed between a workload's operations.

On the 2-vCPU virtual machine the baseline was taken on, the host's other
tenants change the speed of the same single-threaded code by 10-25% over
tens of seconds, and steal time is only a small part of it: the median CPU
time of a 40-pair steering round (nm-l1 and edijkstra) over 17-second
windows moved between 1.5 s and 2.4 s within five minutes. A pure-Python
integer loop slows down with it. So the benchmark reports the CPU time of
its own process scaled to nominal speed, the speed at which one reference
pass takes NOMINAL_S of CPU time:

    scaled time = measured CPU time * NOMINAL_S / median reference pass

Over those five minutes the scaled round time spread half as widely as the
measured one (coefficient of variation over the windows 6% against 11%).
The reference does not run vpembed, so a change to vpembed moves the scaled
times exactly as it moves the measured ones.
"""

import statistics
import time

NOMINAL_S = 0.05  # a round figure near one pass on that machine (34-53 ms)
ITERATIONS = 400_000


class Reference:
    def __init__(self):
        self.times: list[float] = []

    def run(self) -> int:
        """Run one pass, record its CPU time and return its result."""
        t0 = time.process_time()
        total = 0
        for i in range(ITERATIONS):
            total += i * i % 7
        self.times.append(time.process_time() - t0)
        return total

    @property
    def total(self) -> float:
        return sum(self.times)

    def scale(self) -> float:
        """Factor from measured CPU seconds to seconds at nominal speed."""
        return NOMINAL_S / statistics.median(self.times)
