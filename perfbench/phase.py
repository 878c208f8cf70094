"""One benchmark phase in a fresh interpreter: ``python3 phase.py JOB.json``.

The job names the checkout root, the phase kind and where to write.  The
phase times ``import orelab`` and then its own work, reads the process's
peak resident memory before anything else is imported, and writes
``{"import_s", "phase_s", "mean_tick_s", "rc", "peak_rss_mb", "missing"}``
to the job's result file.  Unless the phase is traced, ``speed.Sampler``
times reference ticks throughout the import and the work; both times leave
the ticks out, and ``mean_tick_s`` says how fast the machine ran.  Kinds:

  import     nothing after the import
  enumerate  ``list(enumerate_5_ore(max_n))``; writes ``graph6 recipe`` lines
  cli        ``orelab.lab_cli.main(argv)`` with stdout captured to a file

With ``trace`` set, spans around orelab's layers are recorded and dumped
after the result.  Nothing here checks outputs.
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path
from time import perf_counter

import speed


def peak_rss_mb() -> float:
    # VmHWM is this process's own high-water mark; getrusage would also
    # count the parent's memory inherited across exec.
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main(job_path: str) -> None:
    with open(job_path) as fh:
        job = json.load(fh)
    src = str(Path(job["root"]) / "src")
    sys.path.insert(0, src)
    # Traced phases give per-layer times, which the ticks would inflate.
    sampler = speed.Sampler()
    if not job.get("trace"):
        sampler.start()

    def net_s(t_start: float, spent_start: float) -> float:
        return perf_counter() - t_start - (sampler.spent_s - spent_start)

    t0, spent0 = perf_counter(), sampler.spent_s
    import orelab
    import orelab.lab_cli

    import_s = net_s(t0, spent0)
    if not orelab.__file__.startswith(src):
        raise SystemExit(f"imported orelab from {orelab.__file__}, not from {src}")
    tracer, missing = None, []
    if job.get("trace"):
        import spans

        tracer = spans.Tracer()
        missing = spans.install(tracer)
    rc = 0
    kind = job["kind"]
    t1, spent1 = perf_counter(), sampler.spent_s
    if kind == "import":
        phase_s = 0.0
    elif kind == "enumerate":
        classes = list(orelab.enumerate_5_ore(job["max_n"]))
        phase_s = net_s(t1, spent1)
        sampler.stop()
        with open(job["out"], "w") as fh:
            for G, recipe in classes:
                fh.write(f"{orelab.graph_to_graph6(G)} {orelab.recipe_to_text(recipe)}\n")
    elif kind == "cli":
        with open(job["out"], "w") as fh, contextlib.redirect_stdout(fh):
            rc = orelab.lab_cli.main(job["argv"])
            phase_s = net_s(t1, spent1)
    else:
        raise SystemExit(f"unknown phase kind {kind!r}")
    sampler.stop()
    result = {
        "import_s": import_s,
        "phase_s": phase_s,
        "mean_tick_s": sampler.mean_tick_s(),
        "rc": rc,
        "peak_rss_mb": peak_rss_mb(),
        "missing": missing,
    }
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    if tracer is not None:
        tracer.dump(job["trace"])


if __name__ == "__main__":
    main(sys.argv[1])
