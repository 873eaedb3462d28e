"""Regenerate the stored benchmark inputs in data/.

    python3 perfbench/make_data.py pool     # data/pool.json, about 3 minutes
    python3 perfbench/make_data.py certs    # data/certs.json, about 10 seconds

pool.json holds the decide-random draws of generator seed POOL_SEED: each
draw is decided once through the command line, and its time in
milliseconds is stored as its cost class.  A draw whose decide does not end
within SCREEN_SECONDS is listed as excluded; one of them (E(X(p -> q) |
XXp), seen with another generator seed) spends minutes building lassos.

certs.json holds the certificate of every FALSIFIABLE formula of the
decide-hard list, as `itlc.decide` produced it.  Both files record what the
commit they were made at computes; the benchmark only reads them.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import itlc  # noqa: E402
import itlc.cli  # noqa: E402
from workloads import (DATA, HARD, RANDOM_MAX_MOMENTS, capture,  # noqa: E402
                       draw_formulas)

POOL_SEED = 1
POOL_DRAWS = 1500
TAIL_DRAWS = 200        # the tail is taken from the first 200 draws
BODY_MAX_SIGMA = 16
SCREEN_SECONDS = 8
TAIL_MAX_MS = 2000      # keeps a decide-random pass near 6 s


class _Late(Exception):
    pass


def _alarm(signum, frame):
    raise _Late


def make_pool() -> dict:
    signal.signal(signal.SIGALRM, _alarm)
    body, tail, excluded = [], [], []
    draws = draw_formulas(itlc, POOL_SEED)
    for n in range(POOL_DRAWS):
        text, size = next(draws)
        if size > BODY_MAX_SIGMA and n >= TAIL_DRAWS:
            continue
        start = time.perf_counter()
        signal.alarm(SCREEN_SECONDS)
        try:
            capture(itlc.cli.run, ["decide", text, "--format", "json",
                                   "--max-moments", RANDOM_MAX_MOMENTS])
        except _Late:
            excluded.append({"formula": text, "sigma": size,
                             "reason": f"decide ran past {SCREEN_SECONDS} s"})
            continue
        finally:
            signal.alarm(0)
        ms = round((time.perf_counter() - start) * 1000)
        entry = {"formula": text, "sigma": size, "ms": ms}
        if size <= BODY_MAX_SIGMA:
            body.append(entry)
        elif ms <= TAIL_MAX_MS:
            tail.append(entry)
        else:
            excluded.append({"formula": text, "sigma": size,
                             "reason": f"tail draw took {ms} ms, over {TAIL_MAX_MS} ms"})
    return {"generator_seed": POOL_SEED, "draws": POOL_DRAWS,
            "body_max_sigma": BODY_MAX_SIGMA, "tail_draws": TAIL_DRAWS,
            "screen_seconds": SCREEN_SECONDS, "tail_max_ms": TAIL_MAX_MS,
            "tail": tail, "body": body, "excluded": excluded}


def make_certs() -> list:
    out = []
    for text, expected in HARD:
        if expected != "FALSIFIABLE":
            continue
        verdict = itlc.decide(itlc.parse(text))
        out.append({"formula": text,
                    "certificate": json.loads(verdict.certificate.to_json_text())})
    return out


def write(name: str, data) -> None:
    with open(DATA / name, "w", encoding="utf-8") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    for what in sys.argv[1:] or ["pool", "certs"]:
        if what == "pool":
            write("pool.json", make_pool())
        elif what == "certs":
            write("certs.json", make_certs())
        else:
            sys.exit(f"unknown input {what!r}; choose pool or certs")
