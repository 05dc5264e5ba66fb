"""Child-process entry points that perfbench/run.py launches.

  python perfbench/child.py trace SPANS.json -- <affseq CLI arguments>
      runs the affseq CLI with every span wrapper installed and writes the
      spans to SPANS.json when the command ends; exits with the CLI's code.

  python perfbench/child.py restore CHECKPOINT
      times load_checkpoint + restore_model, the set-up a scoring command
      pays before its first forward pass, and prints {"seconds": ...}.

run.py puts the checkout's ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
import time


def _trace(spans_path: str, argv: list[str]) -> int:
    from tracer import Tracer, instrument

    tracer = Tracer()
    instrument(tracer)
    import affseq.cli

    try:
        return affseq.cli.main(argv)
    finally:
        tracer.dump(spans_path)


def _restore(checkpoint: str) -> int:
    from affseq import load_checkpoint, restore_model

    start = time.perf_counter()
    model, _ = restore_model(load_checkpoint(checkpoint))
    elapsed = time.perf_counter() - start
    print(json.dumps({"seconds": elapsed, "parameters": model.parameter_count()}))
    return 0


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[0] == "trace" and argv[2] == "--":
        return _trace(argv[1], argv[3:])
    if len(argv) == 2 and argv[0] == "restore":
        return _restore(argv[1])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
