"""Run the command-line front end with its layers traced.

    PYTHONPATH=src python3 bench/traced_cli.py SPANS_OUT <qutrit-ch arguments>

bench/run.py starts the cli workload's processes this way in its traced
run; the spans are written to SPANS_OUT when the command ends.
"""

import sys

import qutrit_ch.cli

from spans import Tracer


def main() -> int:
    out, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return qutrit_ch.cli.main(args)
    finally:
        tracer.uninstall()
        tracer.write(out)


if __name__ == "__main__":
    sys.exit(main())
