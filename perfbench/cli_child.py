"""Run one dkradial command under the tracer and save what it recorded.

    python3 perfbench/cli_child.py STATS_JSON -- <dkradial arguments>

Writes the tracer snapshot to STATS_JSON and the spans next to it
(``.spans.jsonl``); exits with the command's own status.  Installing the
tracer imports every dkradial module first, so this child's wall time is
not a command time; the benchmark takes those from untraced children.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    stats, sep, *argv = sys.argv[1:]
    if sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    import dkradial.cli

    try:
        code = dkradial.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        tracer.uninstall()
        Path(stats).write_text(json.dumps(tracer.snapshot()))
        tracer.write_spans(Path(stats).with_suffix(".spans.jsonl"))
    return code


if __name__ == "__main__":
    sys.exit(main())
