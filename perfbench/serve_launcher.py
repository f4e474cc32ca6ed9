"""Start the ``repro serve`` daemon with the span wrappers installed.

The traced ``serve`` run starts the daemon through this file instead of
``python -m repro serve``.  It binds an OS-assigned loopback port (printed
to stderr, as the real daemon does), serves until it receives ``Shutdown``
or sits idle for 60 s, and then prints its ledger as one JSON line on
stdout.

    PYTHONPATH=src python3 perfbench/serve_launcher.py --seed 3
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.trace import Ledger, install  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    from repro.serve import serve_main

    ledger = Ledger()
    installation = install(ledger)
    try:
        code = serve_main(seed=args.seed, host="127.0.0.1", port=0, idle_timeout=60.0)
    finally:
        installation.uninstall()
    print(json.dumps(ledger.as_dict()), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
