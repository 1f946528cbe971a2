"""Run ``geomerge.cli.main`` once and report what that one process cost.

Usage::

    python3 perfbench/launch.py [--trace-out SPANS.json] -- <geomerge arguments>

The geomerge arguments and the environment are passed through untouched.
Before the CLI runs, a one-shot wrapper on ``CheckpointHandle.load_tensor``
stamps the moment of the first tensor payload read; the runner subtracts its
own launch time from it to get ``setup_s``.  With ``--trace-out`` the public
functions of each layer are wrapped too (see ``spans.py``) and the spans are
written to that file when the CLI returns.

The last line on stdout is one JSON object: the monotonic stamp of the first
payload read, peak RSS and CPU time of this process from ``getrusage``, and
the BLAS build and thread settings this process saw.  The exit code is the
CLI's.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# replace the script directory, so that no module here can shadow another
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_build() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # numpy older than 1.26 has no dict mode
        return "unknown"


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: launch.py [--trace-out FILE] -- <geomerge arguments>", file=sys.stderr)
        return 2
    split = argv.index("--")
    own, program_args = argv[:split], argv[split + 1 :]
    trace_out = Path(own[own.index("--trace-out") + 1]) if "--trace-out" in own else None

    from geomerge import cli
    from geomerge.tensor_io import CheckpointHandle

    from perfbench import spans

    tracer = None
    if trace_out is not None:
        tracer = spans.Tracer()
        tracer.install()

    first_read: list[float] = []
    load_tensor = CheckpointHandle.load_tensor

    def stamp_first_read(self, *args, **kwargs):
        if not first_read:
            first_read.append(spans.clock())
            CheckpointHandle.load_tensor = load_tensor
        return load_tensor(self, *args, **kwargs)

    CheckpointHandle.load_tensor = stamp_first_read

    if tracer is not None:
        code = tracer.wrap(cli.main, "cli.main")(program_args)
        trace_out.write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    else:
        code = cli.main(program_args)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    sys.stdout.flush()
    print(
        json.dumps(
            {
                "first_read": first_read[0] if first_read else None,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "blas": _blas_build(),
                "blas_threads_env": {k: os.environ.get(k) for k in _BLAS_ENV},
            }
        )
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
