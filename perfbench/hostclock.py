"""Host-speed-corrected time for a benchmark process on a shared host.

The benchmark runs on a few cores of a shared host. A core there can run
30-45 % slower for seconds or minutes at a time while a co-tenant is busy on
hardware it shares, and CPU time slows with wall time, so neither clock can
tell a slower program from a busier host.

A `HostClock` runs a fixed reference kernel (`probe_kernel`: small numpy
matrix products and a pure-Python physics loop, no logicrl code) at the start
and then every `INTERVAL_S` seconds, from a SIGALRM handler, so probes land
wherever the program is without hooks into it. Each stretch of time between
two probes is scaled by `REF_PROBE_S / mean(the two probe times)`; probe time
itself is left out. `corrected(a, b)` then reads as the seconds the program
would have taken between monotonic times `a` and `b` on a core where the
probe takes `REF_PROBE_S`; `program_s(a, b)` is the same stretch of plain
wall time, probes left out.

The probe uses its own arrays and no random state, and errors in it are
caught, so the program's arithmetic and outputs do not change.

    python3 perfbench/hostclock.py     # probe times on this host, for REF_PROBE_S
"""
from __future__ import annotations

import gc
import math
import signal
import time

import numpy as np

# mean probe time (of REPS kernel runs) on an unloaded core of the 2.0 GHz Xeon the
# benchmark was calibrated on (Python 3.11, numpy 2.4, one BLAS thread)
REF_PROBE_S = 0.0030
INTERVAL_S = 0.15
REPS = 3

# Every array the kernel writes is allocated here, once: a large temporary
# would come from mmap or the heap depending on what the program allocated
# before, and the probe's time would follow the program's allocation history.
_rng = np.random.default_rng(12345)
_X = _rng.standard_normal((32, 400))
_W1 = _rng.standard_normal((400, 256)) * 0.05
_W2 = _rng.standard_normal((256, 256)) * 0.05
_W3 = _rng.standard_normal((256, 4)) * 0.1
_H1, _H2, _D1, _D2 = (np.empty((32, 256)) for _ in range(4))
_G1, _G2 = np.empty((400, 256)), np.empty((256, 256))


class _Pole:
    __slots__ = ("x", "xd", "th", "thd")

    def __init__(self, k):
        self.x, self.xd, self.th, self.thd = 0.01 * k, 0.0, 0.002 * k, 0.0

    def step(self, push):
        force = 10.0 if push else -10.0
        c, s = math.cos(self.th), math.sin(self.th)
        tmp = (force + 0.05 * self.thd * self.thd * s) / 1.1
        acc = (9.8 * s - c * tmp) / (0.5 * (4.0 / 3.0 - 0.1 * c * c / 1.1))
        self.x += 0.02 * self.xd
        self.xd += 0.02 * (tmp - 0.05 * acc * c / 1.1)
        self.th += 0.02 * self.thd
        self.thd += 0.02 * acc
        return {"obs": (self.x, self.xd, self.th, self.thd), "done": abs(self.th) > 0.2}


def probe_kernel() -> float:
    """A batched forward/backward pass of a 400-wide MLP with a softmax head,
    and 20 scalar environments stepped in Python: the same kinds of work as
    the training loop, on fixed inputs."""
    total = 0.0
    poles = [_Pole(k) for k in range(20)]
    with np.errstate(all="ignore"):
        for _ in range(2):
            np.tanh(np.matmul(_X, _W1, out=_H1), out=_H1)
            np.tanh(np.matmul(_H1, _W2, out=_H2), out=_H2)
            logits = _H2 @ _W3
            p = np.exp(logits - logits.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            np.matmul(p, _W3.T, out=_D2)
            np.subtract(1.0, np.square(_H2, out=_D1), out=_D1)
            np.multiply(_D2, _D1, out=_D2)
            np.matmul(_H1.T, _D2, out=_G2)
            np.matmul(_D2, _W2.T, out=_D1)
            np.subtract(1.0, np.square(_H1, out=_D2), out=_D2)
            np.multiply(_D1, _D2, out=_D1)
            np.matmul(_X.T, _D1, out=_G1)
            total += float(np.log(p[:, 0] + 1e-8).mean()) + float(_G1[0, 0]) + float(_G2[0, 0])
        for t in range(4):
            z = _H2[t * 8:(t + 1) * 8] @ _W3
            pushes = np.argmax(z, axis=1).tolist() * 3
            for _ in range(5):
                obs = [pole.step(a)["obs"] for pole, a in zip(poles, pushes)]
            total += sum(o[2] for o in obs)
    return total


def probe_once() -> float:
    """Mean time of REPS kernel runs. A mean, not a minimum: the minimum
    picks the host's fast moments and so reads slow spells as milder than the
    program finds them."""
    start = time.perf_counter()
    for _ in range(REPS):
        probe_kernel()
    return (time.perf_counter() - start) / REPS


class HostClock:
    """Probes the host's speed through a run; see the module docstring."""

    def __init__(self):
        self.probes: list[tuple[float, float, float]] = []  # (start, end, probe seconds)
        self.errors = 0
        self._busy = False
        self._previous = None

    def probe(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        # no collection of the program's objects inside a probe
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.monotonic()
            seconds = probe_once()
            self.probes.append((start, time.monotonic(), seconds))
        except Exception:  # a failed probe must not reach the program
            self.errors += 1
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def start(self) -> None:
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if self._previous is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None
        self.probe()

    def _stretches(self):
        """(start, end, scale) of each stretch between probes."""
        p = self.probes
        if not p:
            yield -math.inf, math.inf, 1.0
            return
        yield -math.inf, p[0][0], REF_PROBE_S / p[0][2]
        for (_, end, d0), (start, _, d1) in zip(p, p[1:]):
            yield end, start, REF_PROBE_S / (0.5 * (d0 + d1))
        yield p[-1][1], math.inf, REF_PROBE_S / p[-1][2]

    def corrected(self, a: float, b: float) -> float:
        return sum(max(0.0, min(b, e) - max(a, s)) * k for s, e, k in self._stretches())

    def program_s(self, a: float, b: float) -> float:
        return sum(max(0.0, min(b, e) - max(a, s)) for s, e, _ in self._stretches())

    def summary(self) -> dict:
        times = sorted(d for _, _, d in self.probes)
        return {"probes": len(times), "probe_errors": self.errors, "ref_probe_s": REF_PROBE_S,
                "probe_p50_s": times[len(times) // 2] if times else None,
                "probe_min_s": times[0] if times else None,
                "probe_max_s": times[-1] if times else None}


if __name__ == "__main__":
    samples = []
    for _ in range(40):
        samples.append(probe_once())
        time.sleep(0.05)
    samples.sort()
    print(f"probe (mean of {REPS}): min {samples[0]:.6f} s, p25 {samples[10]:.6f} s, "
          f"p50 {samples[20]:.6f} s, max {samples[-1]:.6f} s; REF_PROBE_S = {REF_PROBE_S}")
