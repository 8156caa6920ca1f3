"""Benchmark command: one run of one workload.

    python3 perfbench/run.py --workload pdf_corpus --seed 1 --seconds 10 \\
        --trace 0

Workloads: pdf_corpus and html_corpus; a traced run (--trace 1) also
covers pdf_skew and the operator queries (see README.md).
The run happens in a fresh child process (``measure.py``) that leads its
own process group, with the repository root on the import path of the
child and of every Ray worker it starts, whatever the current directory.
If the child does not finish within the run deadline, the whole group —
the child, its Ray daemons and workers — is ended and the command exits
with code 2 without printing a result.  The last line of standard output
is the child's result line.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DEADLINE_S = 170


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False


def end_group(pgid: int) -> None:
    """SIGTERM, then SIGKILL, the process group; wait until it is empty."""
    for sig, grace in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 10.0)):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        t_end = time.monotonic() + grace
        while time.monotonic() < t_end:
            if not _group_alive(pgid):
                return
            time.sleep(0.1)


def main(argv: list[str]) -> int:
    if not os.path.isdir(os.path.join(ROOT, "iesl_pdf_to_text_ray")):
        print("perfbench: the iesl_pdf_to_text_ray package is not next to "
              "perfbench/; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "measure.py"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        end_group(child.pid)
        child.wait()
        print(f"perfbench: run overran {RUN_DEADLINE_S} s; its processes "
              "were ended", file=sys.stderr)
        return 2
    finally:
        # Ray daemons that outlive the child (or a child that exited on a
        # pass deadline) are ended here too, and the child's inputs removed
        end_group(child.pid)
        shutil.rmtree(os.path.join(ROOT, ".benchwork", str(child.pid)),
                      ignore_errors=True)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return child.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
