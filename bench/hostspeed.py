"""Reference loops that measure the host's speed alongside the CLI runs.

    python3 hostspeed.py LOOP SECONDS

prints one JSON object: the seconds this fresh process took to `import
numpy`, and the times of LOOP run repeatedly for about SECONDS.

The reference host is a virtual machine shared with other tenants; its CPU
speed drifts by 20-30 % over minutes, which is more than the bound a
regression must be caught within.  run.py runs this script between
repetitions, so that it samples the host's speed over the same minutes as
the CLI runs, and reports the end-to-end times at the speed at which the
loop takes its nominal time.  The loops are the benchmark's own code: no
change to cavreg moves them.

The loops run in a fresh process, as each CLI run does; timed in the
long-lived benchmark process they tracked the CLI runs less well (30-second
medians of `readout-seq` wall time over loop time spread by 14 % instead of
9 %).  Each loop mirrors how its workloads spend time, because contention
from other tenants slows interpreter-bound and vectorized two-thread code by
different amounts:

- `scalar` (the one-thread workloads): a Philox generator per trial, scalar
  draws, small frozen dataclasses, and a recursive bisection over tuples
  with `any()` generators, lists and sets.
- `vector` (the two-thread workload): chunks of boolean array arithmetic on
  Philox draws, mapped over a two-thread pool.

Set-up time drifts on its own: between two sets of runs half an hour apart
it moved by 30 % while the loops and the time inside `harness.run` stayed
within 2 %.  Most of a CLI run's set-up is `import numpy` in a fresh
process, so set-up times are scaled by that instead.
"""

import time

T0 = time.perf_counter()  # as in child.py: the clock starts before the imports

import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

IMPORT_S = time.perf_counter() - T0

KEY = 20240828


@dataclass(frozen=True)
class _Outcome:
    count: int
    bright: bool


def _trial_stream(index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([KEY, index], dtype=np.uint64)))


def _bisect(sites, subset, transcript, found) -> None:
    positive = any(sites[i] for i in subset)
    transcript.append((subset, positive))
    if not positive:
        return
    if len(subset) == 1:
        found.add(subset[0])
        return
    half = len(subset) // 2
    _bisect(sites, subset[:half], transcript, found)
    _bisect(sites, subset[half:], transcript, found)


def scalar() -> int:
    total = 0
    for trial in range(400):
        rng = _trial_stream(trial)
        sites = tuple(rng.random() < 0.3 for _ in range(8))
        for bright in sites:
            count = 0
            for _ in range(10):
                count += int(rng.poisson(0.9 if bright else 0.02))
                if count >= 2:
                    break
            total += _Outcome(count, count >= 2).bright
        transcript: list = []
        found: set = set()
        for _ in range(6):
            _bisect(sites, tuple(range(8)), transcript, found)
        total += len(transcript) + len(found)
    return total


def _chunk(index: int) -> int:
    rng = _trial_stream(index)
    alive = np.ones((4096, 7), dtype=bool)
    wrong = np.zeros(4096, dtype=bool)
    total = 0
    for _ in range(6):
        flips = rng.random((4096, 7)) < 0.05
        alive &= rng.random((4096, 7)) >= 0.01
        votes = (flips & alive).sum(axis=1)
        wrong ^= votes * 2 > alive.sum(axis=1)
        total += int(wrong.sum())
    return total


def vector(threads: int = 2) -> int:
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return sum(pool.map(_chunk, range(24)))


# name -> (loop, its median time in seconds on the reference host)
LOOPS = {
    "scalar": (scalar, 0.080),
    "vector": (vector, 0.080),
}
IMPORT_NOMINAL_S = 0.160  # a typical IMPORT_S on the reference host (0.09-0.20 s seen)


def measure(loop: str, seconds: float) -> tuple[float, list[float]]:
    """Run this script in a fresh process: (its `import numpy` time, the
    times of `loop` run repeatedly for about `seconds`)."""
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), loop, str(seconds)],
                         capture_output=True, text=True, timeout=120, check=True).stdout
    record = json.loads(out)
    return record["import_s"], record["loop_s"]


def main() -> None:
    loop, seconds = LOOPS[sys.argv[1]][0], float(sys.argv[2])
    times: list[float] = []
    end = time.perf_counter() + seconds
    while len(times) < 3 or time.perf_counter() < end:
        t0 = time.perf_counter()
        loop()
        times.append(time.perf_counter() - t0)
    print(json.dumps({"import_s": IMPORT_S, "loop_s": times}))


if __name__ == "__main__":
    main()
