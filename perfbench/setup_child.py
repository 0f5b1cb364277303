"""Time one set-up in a fresh interpreter: import recsplit, then make_scheme
and compile_producer for each scheme given as DELTA BASE STEP triples.

Imports nothing before the clock starts except what the interpreter has
already loaded, and prints the elapsed seconds.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(argv):
    specs = [(int(argv[i]), argv[i + 1], argv[i + 2]) for i in range(0, len(argv), 3)]
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import recsplit
    from recsplit.producer import compile_producer
    from recsplit.scheme import make_scheme

    for delta, base, step in specs:
        compile_producer(make_scheme(delta, base, step))
    elapsed = time.perf_counter() - start
    if not os.path.realpath(recsplit.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"recsplit imported from {recsplit.__file__}, not {SRC}")
    print(repr(elapsed))


if __name__ == "__main__":
    main(sys.argv[1:])
