"""Record the SHA-256 of every sum/render output of window_sweep, for the benchmark's checks.

Run from the root of a checkout whose outputs are known to be right:

    python3 perfbench/make_digests.py

Outputs are meant to stay byte-identical, so this is rerun only when an
output changes on purpose.
"""

from __future__ import annotations

import hashlib
import json

from run import execute
from workloads import DIGESTS_FILE, Op, digest_key, dump_argvs

import legsum.cli


def main() -> None:
    digests = {}
    for argv in dump_argvs():
        captured = []

        def keep(code, out, err):
            captured.append((code, out))
            return None

        execute(legsum.cli.main, Op(argv, keep))
        code, out = captured[0]
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        digests[digest_key(argv)] = hashlib.sha256(out).hexdigest()
    DIGESTS_FILE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
