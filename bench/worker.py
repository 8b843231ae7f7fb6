"""One benchmark process: a set-up probe or one timed pass of the CLI.

    python3 bench/worker.py setup SCENE [MANIFEST]
        import soundcue's CLI, load the manifest's pattern WAVs and parse
        the scene, then print time.perf_counter() once ready. The caller
        started its clock before spawning this process; CLOCK_MONOTONIC
        is shared by both, so the difference is the set-up time.

    python3 bench/worker.py pass RESULT_JSON TRACE PASS_ID ARGV...
        call soundcue.cli.main(ARGV) once and write the wall time, exit
        code and peak RSS of this process (and its spans if TRACE is 1)
        to RESULT_JSON.

soundcue must be importable (run.py puts the checkout's src/ on
PYTHONPATH).
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path


def setup(scene_path: str, manifest_path: str | None) -> None:
    import soundcue.cli  # noqa: F401  (the CLI's imports are part of set-up)
    from soundcue import PatternKind, load_wav, parse_scene

    kinds = None
    if manifest_path is not None:
        manifest = Path(manifest_path)
        entries = json.loads(manifest.read_text(encoding="utf-8"))
        for entry in entries:
            load_wav(manifest.parent / entry["path"])
        kinds = {e["id"]: PatternKind(e["kind"]) for e in entries}
    parse_scene(Path(scene_path).read_text(encoding="utf-8"), kinds)
    print(time.perf_counter())


def timed_pass(result_path: str, trace: bool, pass_id: int, argv: list) -> int:
    from soundcue import cli

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(pass_id)
        tracer.install()
    gc.collect()
    start = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - start
    result = {
        "exit_code": code,
        "wall_s": wall,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = dict(tracer.counters)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


def main(argv: list) -> int:
    if argv[:1] == ["setup"] and len(argv) in (2, 3):
        setup(argv[1], argv[2] if len(argv) == 3 else None)
        return 0
    if argv[:1] == ["pass"] and len(argv) >= 5:
        return timed_pass(argv[1], argv[2] == "1", int(argv[3]), argv[4:])
    print(__doc__, file=sys.stderr)
    return 64


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
