"""Run the toda-bo CLI once in this fresh interpreter and report on it.

    python3 child.py SRC RESULT_JSON SPANS_JSON|- [-- CLI ARGS...]

toda_bo is imported from SRC first, before anything else, so the time at
which `toda_bo.cli.main` becomes importable is taken as early as possible
(the parent measures set-up from its spawn time on the same monotonic
clock).  With no CLI arguments the run stops there: a set-up probe.  With a
SPANS_JSON path the layers are traced (see spans.py) and the spans are
written there.  RESULT_JSON receives the times, peak RSS, exit code and,
for a traced run, the layer metrics.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import toda_bo.cli  # noqa: E402

READY = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _sha256(path: str) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
            size += len(block)
    return h.hexdigest(), size


def main() -> None:
    src, result_path, spans_path = sys.argv[1:4]
    argv = sys.argv[5:]
    src_dir = os.path.realpath(os.path.join(src, "toda_bo"))
    loaded = os.path.realpath(os.path.dirname(toda_bo.cli.__file__))
    result = {"ready": READY, "loaded_from_src": loaded == src_dir}
    if argv:
        tracer = None
        if spans_path != "-":
            from spans import LAYERS, Tracer

            # toda_bo.cli has imported every layer module by now.
            tracer = Tracer(run_id=f"{os.getpid()}:{' '.join(argv)}")
            tracer.install({name: sys.modules[f"toda_bo.{name}"] for name in LAYERS})
        error = None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            code = toda_bo.cli.main(argv)
        except Exception:  # a traceback is a failed run: recorded, not raised
            code, error = None, traceback.format_exc()
        result.update(
            wall_s=time.perf_counter() - wall0,
            cpu_s=time.process_time() - cpu0,
            exit=code,
            error=error,
        )
        out = argv[argv.index("--out") + 1]
        if os.path.exists(out):
            result["out_sha256"], result["out_bytes"] = _sha256(out)
        if tracer is not None:
            result["trace"] = tracer.metrics()
            result["trace"]["missing"] = tracer.missing
            tracer.dump(spans_path)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
