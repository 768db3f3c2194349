"""Times set-up in a fresh process: import prefix_global, finish one warm-up op.

run.py starts this file several times and reports the median as setup_s.
It prints [raw seconds, seconds divided by the host's Python slowdown
measured on either side]. Only the standard library and clock.py, which
loads numpy lazily, are imported before the timer starts.
"""

import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

from clock import python_slowdown  # noqa: E402


def warm_up(pg, np) -> None:
    """Build page-description examples from the demo corpus and run one
    attention pass on the first of them."""
    items = list(pg.iter_corpus(pg.demo_corpus_path(), strict=False))
    routed, _ = pg.build_dataset(items, pg.Task.PAGE_DESCRIPTION)
    ex = routed[0].example
    x = np.linspace(-1.0, 1.0, len(ex.slots) * 8).reshape(len(ex.slots), 8)
    pg.sparse_attention(x, x, x, pg.prefix_global(len(ex.slots), k=ex.prefix_len))


def main() -> None:
    before = python_slowdown()
    t0 = time.perf_counter()
    import numpy as np
    import prefix_global as pg
    import prefix_global.cli  # noqa: F401

    warm_up(pg, np)
    raw = time.perf_counter() - t0
    scaled = raw / ((before + python_slowdown()) / 2)
    if not pathlib.Path(pg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"prefix_global was imported from {pg.__file__}, not from {SRC}")
    print(json.dumps([raw, scaled]))


if __name__ == "__main__":
    main()
