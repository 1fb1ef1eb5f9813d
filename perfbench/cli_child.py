"""Run one traced `meanlab` command, in place of `python -m meanlab ARGV...`.

Usage: python cli_child.py OUT OP_ID ARGV...

Installs the tracer before the command runs, records its spans under op
OP_ID, writes them to OUT.json and OUT.bin, and exits with the command's
exit code.
"""

import sys
from pathlib import Path

import tracing


def main() -> int:
    out, op_id, argv = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
    import meanlab.cli

    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin_op(op_id)
    try:
        return meanlab.cli.run_command(argv)
    finally:
        tracer.end_op()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
