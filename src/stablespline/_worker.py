"""Worker process of :func:`stablespline.benchmark.run_experiment`.

    python -m stablespline._worker

Reads a pickled ExperimentConfig from stdin, then one pickled run index at a
time, and answers each with the pickled (run_index, outcome) of
``benchmark._attempt``.  It exits at the end of its input, and without a
traceback on SIGINT or a closed pipe.
"""

import pickle
import signal
import sys

from .benchmark import _attempt


def main() -> None:
    for name in ("SIGINT", "SIGPIPE"):
        if hasattr(signal, name):
            signal.signal(getattr(signal, name), signal.SIG_DFL)
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    try:
        config = pickle.load(stdin)
        while True:
            run_index = pickle.load(stdin)
            pickle.dump((run_index, _attempt(config, run_index)), stdout)
            stdout.flush()
    except EOFError:
        pass


if __name__ == "__main__":
    main()
