"""Benchmark of `phl cube`, `phl check` and the full Lefschetz closure.

    python3 perfbench/run.py --workload closure_k3 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload check_small --seed 1 --seconds 45 --trace 1 --spans perfbench/out/spans.jsonl

Run from the root of a checkout; phl is taken from src/ (PYTHONPATH=src),
nothing is installed. A pass is one fresh process per command, timed from
spawn to exit. A run repeats its pass until --seconds have gone by and
prints, as its last line, one JSON object: `correct`, `attempted`, `failed`
and the metrics. With --trace 0 those are the end-to-end metrics (set-up
time, median pass time, peak resident set); with --trace 1 the passes run
under tracing.py and the metrics are the per-layer figures, medians over the
traced passes. Every output is checked against oracle.py, which does not
import phl. --seed becomes PYTHONHASHSEED of the pass processes; the inputs
are the shipped specs. Exit code 2, with no result, when the checkout lacks
the sources or the set-up fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracle

_T_IMPORT = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# Each workload is the list of commands of one pass: (verb, spec name).
# cube_n3 is left out of BENCHMARK.json: one pass takes about 30 s, so a run
# holds a single pass and its spread exceeds the largest bound (README.md).
WORKLOADS = {
    "cube_n3": [("cube", "verbitsky_n3_b5")],
    "check_small": [("check", "k3_b22"), ("check", "verbitsky_n2_b5")],
    "closure_k3": [("closure", "k3_b22")],
}

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "models.build_model_s": "s",
    "models.validate_s": "s",
    "models.self_s": "s",
    "filtration.weight_filtration_s": "s",
    "filtration.verify_weight_axioms_s": "s",
    "filtration.self_s": "s",
    "perverse.perverse_filtration_s": "s",
    "perverse.hodge_item1_comparison_s": "s",
    "perverse.cube_s": "s",
    "perverse.self_s": "s",
    "lie.sl2_complete_s": "s",
    "lie.sl2_complete_calls": "count",
    "lie.lie_closure_s": "s",
    "lie.closure_dim": "count",
    "lie.self_s": "s",
    "checks.run_check_suite_s": "s",
    "checks.self_s": "s",
    "report.dumps_s": "s",
    "linalg.self_s": "s",
    "linalg.calls": "count",
    "linalg.largest_operand": "count",
    "trace.pass_s": "s",
}

# Figures of one process that are maxima, not sums, over a pass.
_MAXIMA = ("linalg.largest_operand", "lie.closure_dim")


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


@dataclass(frozen=True)
class Op:
    """One command of a pass."""

    verb: str  # "cube", "check" or "closure"
    spec: str
    n: int
    b2: int

    @property
    def name(self) -> str:
        return f"{self.verb}-{self.spec}"

    def args(self, out: Path) -> list:
        spec = f"specs/{self.spec}.json"
        if self.verb == "closure":
            return ["closure", spec]
        return [self.verb, "--spec", spec, "--out", str(out)]


def load_op(verb: str, spec: str) -> Op:
    doc = json.loads((ROOT / "specs" / f"{spec}.json").read_text())
    k3 = doc["kind"] == "k3"
    return Op(verb, spec, doc.get("n", 1 if k3 else None), doc.get("b2", 22 if k3 else None))


# ---------------------------------------------------------------------------
# correctness: each check returns a list of problems, empty when the output
# is right
# ---------------------------------------------------------------------------


def check_cube(text: str, n: int, b2: int) -> list:
    """The cube file must be, byte for byte, the LLV cube as `phl cube` writes it."""
    want = oracle.llv_cube(n, b2)
    if text == oracle.cube_json(n, want):
        return []
    try:
        got = {(e["i"], e["k"], e["d"]): e["h"] for e in json.loads(text)["entries"]}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"cube is not a cube document: {exc}"]
    bad = sorted(k for k in set(want) | set(got) if want.get(k, 0) != got.get(k, 0))
    if not bad:
        return ["cube entries match the oracle but the bytes differ"]
    key = bad[0]
    return [f"h^{key} = {got.get(key, 0)}, oracle {want.get(key, 0)} ({len(bad)} entries differ)"]


def check_report(text: str, n: int, b2: int) -> list:
    """Every check passes, so(6) has dimension 15 and the six vertices hold
    the values the oracle gives."""
    try:
        checks = {c["name"]: c for c in json.loads(text)["checks"]}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report is not a report document: {exc}"]
    problems = [f"check {name} is {c['status']}" for name, c in checks.items() if c["status"] != "pass"]
    so6 = checks.get("so6_dimension", {}).get("data", {}).get("dim")
    if so6 != oracle.so_dim(6):
        problems.append(f"so6_dimension {so6}, expected {oracle.so_dim(6)}")
    got = checks.get("conjecture_vertices", {}).get("data", {}).get("vertices")
    want = oracle.vertices(n, b2)
    if got != want:
        problems.append(f"conjecture_vertices {got}, oracle {want}")
    return problems


def check_closure(text: str, b2: int) -> list:
    """The closure is so(b2 + 2) and contains L_beta."""
    try:
        doc = json.loads(text)
        dim, has_beta = doc["closure_dim"], doc["contains_l_beta"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"closure output is not a closure document: {exc}"]
    problems = []
    if dim != oracle.so_dim(b2 + 2):
        problems.append(f"closure_dim {dim}, expected dim so({b2 + 2}) = {oracle.so_dim(b2 + 2)}")
    if has_beta is not True:
        problems.append("closure does not contain L_beta")
    return problems


def verify(op: Op, text: str) -> list:
    if op.verb == "cube":
        return check_cube(text, op.n, op.b2)
    if op.verb == "check":
        return check_report(text, op.n, op.b2)
    return check_closure(text, op.b2)


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def _process_age() -> float:
    """Seconds since this process started, read from /proc; where /proc is
    not there, the time since this module's imports."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
        if 0 <= age < 3600:
            return age
    except (OSError, ValueError, IndexError, AttributeError):
        pass
    return time.perf_counter() - _T_IMPORT


class Runner:
    """Spawns the pass processes, one at a time, and waits for each."""

    def __init__(self, seed: int, spans: str | None):
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src") + (os.pathsep + pythonpath if pythonpath else ""),
            PYTHONHASHSEED=str(seed % 2**32),
        )
        self.spans = spans

    def spawn(self, argv: list, stdout) -> tuple:
        """(exit code, seconds from spawn to exit, peak resident set in KiB)."""
        with open(OUT / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=stdout, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, seconds, usage.ru_maxrss

    def run(self, op: Op, traced: bool = False) -> tuple:
        """Run one command; (exit code, seconds, peak KiB, output text, layer summary)."""
        out = OUT / f"{'traced-' if traced else ''}{op.name}.out"
        out.unlink(missing_ok=True)
        argv = op.args(out)
        summary_path = OUT / f"layers-{op.name}.json"
        if traced:
            head = [sys.executable, "perfbench/tracing.py", "--summary", str(summary_path)]
            if self.spans:
                head += ["--spans", str(Path(self.spans).resolve())]
            argv = head + ["--"] + argv
        elif op.verb == "closure":
            argv = [sys.executable, "perfbench/closure.py"] + argv[1:]
        else:
            argv = [sys.executable, "-m", "phl.cli"] + argv
        if op.verb == "closure":
            with open(out, "wb") as fh:
                code, seconds, rss = self.spawn(argv, fh)
        else:
            code, seconds, rss = self.spawn(argv, subprocess.DEVNULL)
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        summary = json.loads(summary_path.read_text()) if traced and code == 0 else None
        if code != 0:
            sys.stderr.write(f"{op.name} exited {code}:\n{(OUT / 'stderr.txt').read_text(errors='replace')}")
        return code, seconds, rss, text, summary

    def setup(self) -> None:
        """Byte-compile phl and build one model, so the checkout is known to
        run and the first timed pass finds warm caches."""
        for argv in (
            [sys.executable, "-m", "compileall", "-q", "src/phl", "perfbench"],
            [sys.executable, "-m", "phl.cli", "model", "--spec", "specs/k3_b22.json"],
        ):
            code, _, _ = self.spawn(argv, subprocess.DEVNULL)
            if code != 0:
                raise SetupError(f"{' '.join(argv[1:])} exited {code}")


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


class Tally:
    """Operations attempted and failed, and the problems found in outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_bytes = {}

    def record(self, op: Op, code: int, text: str) -> bool:
        """Count one operation and check its output; False if it failed."""
        self.attempted += 1
        if code != 0:
            self.failed += 1
            return False
        found = verify(op, text)
        if self.first_bytes.setdefault(op.name, text) != text:
            found.append("output bytes differ from the first pass of this run")
        self.problems += [f"{op.name}: {p}" for p in found]
        return True


def timed_run(runner: Runner, ops: list, seconds: float, tally: Tally) -> dict:
    passes, peak_kib = [], 0
    start = time.perf_counter()
    while True:
        total = 0.0
        for op in ops:
            code, secs, rss, text, _ = runner.run(op)
            tally.record(op, code, text)
            total += secs
            peak_kib = max(peak_kib, rss)
        passes.append(total)
        if time.perf_counter() - start >= seconds:
            break
    print("passes_s: " + " ".join(f"{p:.3f}" for p in passes), file=sys.stderr)
    return {"pass_s": statistics.median(passes), "peak_rss_mb": peak_kib / 1024}


def traced_run(runner: Runner, ops: list, seconds: float, tally: Tally) -> dict:
    # Report bytes have no oracle of their own, so an untraced pass of each
    # `phl check` pins them; cube and closure outputs are pinned by the oracle.
    for op in ops:
        if op.verb == "check":
            code, _, _, text, _ = runner.run(op)
            tally.record(op, code, text)
    figures = []
    start = time.perf_counter()
    while True:
        merged = {"trace.pass_s": 0.0}
        for op in ops:
            code, secs, _, text, summary = runner.run(op, traced=True)
            merged["trace.pass_s"] += secs
            if not tally.record(op, code, text):
                continue
            for key, value in summary.items():
                merged[key] = max(merged.get(key, 0), value) if key in _MAXIMA else merged.get(key, 0) + value
        figures.append(merged)
        if time.perf_counter() - start >= seconds:
            break
    return {key: statistics.median(f.get(key, 0) for f in figures) for key in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark of phl cube, phl check and the Lefschetz closure")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, append every span to this file as JSON lines")
    args = parser.parse_args(argv)

    try:
        ops = [load_op(verb, spec) for verb, spec in WORKLOADS[args.workload]]
        if not (ROOT / "src" / "phl" / "cli.py").is_file():
            raise SetupError("no src/phl in this checkout")
        OUT.mkdir(exist_ok=True)
        runner = Runner(args.seed, args.spans)
        runner.setup()
    except (OSError, ValueError, KeyError, SetupError) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    setup_s = _process_age()

    tally = Tally()
    if args.trace:
        values = traced_run(runner, ops, args.seconds, tally)
        units = PER_LAYER
    else:
        values = dict(setup_s=setup_s, **timed_run(runner, ops, args.seconds, tally))
        units = END_TO_END
    for problem in tally.problems:
        print(f"wrong output: {problem}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
