"""Cold start of one v2xsim CLI command, stopped at its first engine run.

Usage: python3 setup_probe.py <src dir> <cli args...>

Samples the host's speed (hostspeed.py) from its first line on, imports
v2xsim from <src dir>, runs the command through `v2xsim.cli.main` and, at
the first `engine.run` call, prints `time.monotonic()`, the samples' own
host time and the host's slowdown, and exits with code 0. The caller
subtracts the monotonic time it took just before starting this process, so
the figure covers interpreter start, imports, config loading, curve loading
and cutting, and building the setup.
"""

import os
import sys
import time

from hostspeed import Sampler


def main():
    sampler = Sampler(interval_s=0.005)  # a start-up is short: sample it more often
    sampler.start()
    sys.path.insert(0, sys.argv[1])
    from v2xsim import cli

    def reached_engine(*args, **kwargs):
        end = time.monotonic()
        sampler.stop()
        print(repr(end), repr(sampler.own_s()), repr(sampler.slowdown()), flush=True)
        os._exit(0)

    cli.run = reached_engine
    rc = cli.main(sys.argv[2:])
    print(f"command returned {rc} before reaching the engine", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
