"""orelab benchmark: run one workload with one seed, print every metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (README.md says why):

  enumerate17  set-up: import orelab; measured: enumerate_5_ore(17)
  audit17      set-up: `orelab add` of seeded inputs; measured: `orelab verify all --jobs 1`
  extend17     set-up: `orelab add` of a seeded sample; measured:
               `orelab verify extensions --records 1000 --max-extend-n 23 --seed N`

Every phase runs in a fresh interpreter with PYTHONHASHSEED=0 and one
caller, so no cache in the program carries over from one phase to the
next.  A run first sets up: twenty bare ``import orelab`` phases for
enumerate17, three ``orelab add`` phases into fresh corpora for the others.
Then measured phases repeat, on the first corpus, until they have taken
``--seconds`` and at least two ran.  Each untraced phase also times
reference ticks while it runs (``speed.py``) and its times are scaled to
the reference machine's speed.  The run reports the median ``wall_s`` over
measured phases, the median ``setup_s`` over set-ups (import plus add),
both scaled, and the largest peak resident memory of any phase,
``peak_rss_mb``; the unscaled times go to stderr.
With ``--trace 1`` one traced set-up and one traced measured phase give the
per-layer metrics instead.  After the phases, the output of the first
measured phase is checked with networkx, every later one must have the
same bytes, and every set-up must have written the same corpus.  The last
line of stdout is the JSON result; a summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inputs import encode_graph6, seeded_inputs  # noqa: E402
from speed import NOMINAL_S  # noqa: E402

RUNS = HERE / "runs"
PHASE_TIMEOUT_S = 170
PHASE_START_LIMIT_S = 140
EXTEND_RECORDS = 1000
AUDIT_SAMPLE17 = 64
EXTEND_SAMPLE17 = 24
SETUPS = 3
ENUMERATE_IMPORTS = 20
NAMED_ALL = ("c5_join_k2", "groetzsch", "k1_join_groetzsch", "mycielski_groetzsch")
NAMED_CRITICAL = ("c5_join_k2", "k1_join_groetzsch", "mycielski_groetzsch")
WORKLOADS = ("enumerate17", "audit17", "extend17")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class PhaseError(RuntimeError):
    pass


def run_phase(work: Path, name: str, job: dict) -> dict:
    """Run one phase in a fresh interpreter and return its result record."""
    job = {"root": str(ROOT), "result": str(work / f"{name}.result.json"), **job}
    job_path = work / f"{name}.job.json"
    job_path.write_text(json.dumps(job))
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "phase.py"), str(job_path)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=PHASE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise PhaseError(f"phase {name} did not end within {PHASE_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise PhaseError(f"phase {name} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(Path(job["result"]).read_text())


class Run:
    """The phases of one run and what they wrote, under ``work``."""

    def __init__(self, workload: str, seed: int, trace: bool, work: Path):
        self.workload, self.seed, self.trace, self.work = workload, seed, trace, work
        self.inputs: list[dict] = []
        if workload == "audit17":
            self.inputs = seeded_inputs(workload, seed, AUDIT_SAMPLE17, NAMED_ALL, small=True)
        elif workload == "extend17":
            self.inputs = seeded_inputs(workload, seed, EXTEND_SAMPLE17, NAMED_CRITICAL,
                                        small=False)
        if self.inputs:
            lines = [encode_graph6(x["n"], x["edges"]) for x in self.inputs]
            (work / "inputs.g6").write_text("\n".join(lines) + "\n")
        self.trace_files: list[Path] = []
        self.setup_s: list[float] = []
        self.raw_setup_s: list[float] = []
        self.rss_mb: list[float] = []
        self.missing: set[str] = set()
        self.problems: list[str] = []
        self.corpus = work / "setup1" / "corpus"

    def _phase(self, tag: str, job: dict) -> dict:
        """Run one phase; unless traced, add ``scale``, the factor that turns
        its times into times at the reference machine's speed."""
        if self.trace:
            path = RUNS / "traces" / f"{self.workload}-s{self.seed}-{tag}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            self.trace_files.append(path)
            job["trace"] = str(path)
        res = run_phase(self.work, tag, job)
        if not self.trace:
            res["scale"] = NOMINAL_S / res["mean_tick_s"]
        self.rss_mb.append(res["peak_rss_mb"])
        self.missing.update(res["missing"])
        return res

    def setups(self):
        """Set-up phases: fresh-interpreter imports for enumerate17, else
        `orelab add` into fresh corpora, which must come out byte-identical."""
        if self.workload == "enumerate17":
            if not self.trace:
                for i in range(ENUMERATE_IMPORTS):
                    res = self._phase(f"import{i}", {"kind": "import"})
                    self.raw_setup_s.append(res["import_s"])
                    self.setup_s.append(res["import_s"] * res["scale"])
            return
        trees = []
        for i in range(1 if self.trace else SETUPS):
            sdir = self.work / f"setup{i + 1}"
            sdir.mkdir()
            argv = ["add", str(self.work / "inputs.g6"), "--corpus", str(sdir / "corpus")]
            res = self._phase(f"setup{i + 1}", {"kind": "cli", "argv": argv,
                                                "out": str(sdir / "add.txt")})
            self.raw_setup_s.append(res["import_s"] + res["phase_s"])
            if not self.trace:
                self.setup_s.append(self.raw_setup_s[-1] * res["scale"])
            if res["rc"] != 0:
                self.problems.append(f"orelab add exited {res['rc']}")
            trees.append(tree_bytes(sdir))
        if any(t != trees[0] for t in trees[1:]):
            self.problems.append("set-ups from the same inputs wrote different corpora")

    def measure(self, r: int) -> dict:
        """One measured phase in a fresh interpreter."""
        out = self.work / f"measured{r}.txt"
        if self.workload == "enumerate17":
            job = {"kind": "enumerate", "max_n": 17, "out": str(out)}
        else:
            if self.workload == "audit17":
                argv = ["verify", "all", "--jobs", "1"]
            else:
                argv = ["verify", "extensions", "--records", str(EXTEND_RECORDS),
                        "--max-extend-n", "23", "--seed", str(self.seed)]
            job = {"kind": "cli", "argv": argv + ["--corpus", str(self.corpus)],
                   "out": str(out)}
        res = self._phase(f"measured{r}", job)
        return {"raw_s": res["phase_s"], "wall_s": res["phase_s"] * res.get("scale", 1.0),
                "rc": res["rc"], "out": out}


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def check(run: Run, phases: list[dict]) -> tuple[list[str], int, int]:
    """Outputs of the first measured phase against independent checks, later
    ones against its bytes; networkx is imported only here."""
    import checks

    first = phases[0]
    text = first["out"].read_text()
    if run.workload == "enumerate17":
        problems, attempted, failed = checks.check_enumerate(text)
    elif run.workload == "audit17":
        problems, attempted, failed = checks.check_audit(text, first["rc"], run.corpus,
                                                         run.inputs)
    else:
        problems, attempted, failed = checks.check_extend(text, first["rc"], EXTEND_RECORDS)
    problems = run.problems + problems
    for i, phase in enumerate(phases[1:], start=2):
        if phase["out"].read_bytes() != first["out"].read_bytes():
            problems.append(f"measured phase {i} printed other bytes than phase 1")
    return problems, attempted * len(phases), failed * len(phases)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "orelab" / "__init__.py").is_file():
        print(f"error: no orelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = perf_counter()
    work = RUNS / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args.workload, args.seed, bool(args.trace), work)
    phases: list[dict] = []
    try:
        run.setups()
        while True:
            t0 = perf_counter()
            phases.append(run.measure(len(phases) + 1))
            took = perf_counter() - t0
            measured = sum(p["raw_s"] for p in phases)
            if args.trace or (len(phases) >= 2 and measured >= args.seconds):
                break
            if len(phases) >= 2 and perf_counter() - start + took > PHASE_START_LIMIT_S:
                break
        problems, attempted, failed = check(run, phases)
        if args.trace:
            import spans

            per_process = [json.loads(p.read_text()) for p in run.trace_files]
            values = spans.layer_metrics(per_process)
            units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
        else:
            values = {
                "wall_s": statistics.median(p["wall_s"] for p in phases),
                "setup_s": statistics.median(run.setup_s),
                "peak_rss_mb": max(run.rss_mb),
            }
            units = END_TO_END
    except PhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    shutil.rmtree(work, ignore_errors=True)
    for name in sorted(run.missing):
        print(f"warning: orelab has no {name}; its per-layer metrics read 0", file=sys.stderr)
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in phases)
    raws = ", ".join(f"{p['raw_s']:.3f}" for p in phases)
    raw_setup = statistics.median(run.raw_setup_s) if run.raw_setup_s else 0.0
    print(f"{args.workload} seed={args.seed} trace={args.trace} phases={len(phases)}"
          f" wall_s=[{walls}] unscaled=[{raws}] setup_s unscaled median={raw_setup:.4f}"
          f" problems={len(problems)} run_s={perf_counter() - start:.1f}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
