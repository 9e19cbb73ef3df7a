"""Sign one share of a request stream in a child process.

    python3 coalbench/sign_worker.py IN OUT

``IN`` holds the pickled ``(specs, signers, certs)``; the signed
requests are pickled, in order, to ``OUT``.
"""

from __future__ import annotations

import pickle
import sys

import env


def main(argv) -> int:
    src, dst = argv
    env.require_program()
    from workload import sign_spec

    with open(src, "rb") as handle:
        specs, signers, certs = pickle.load(handle)
    requests = [sign_spec(spec, signers, certs) for spec in specs]
    with open(dst, "wb") as handle:
        pickle.dump(requests, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
