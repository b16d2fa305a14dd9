"""sha256 of every output file of a fixed corpus of ``hvsim`` CLI jobs.

Usage::

    python tools/sha_corpus.py OUT_DIR [JOB ...] > listing.txt
    python tools/sha_corpus.py --against REV WORK_DIR
    python tools/sha_corpus.py --check WORK_DIR

Each job is one in-process ``hvsim.cli.main(argv)`` call writing into its own
subdirectory of ``OUT_DIR``; given ``JOB`` ids, only those jobs run.  A
netlist job first writes its netlist into that subdirectory and runs it
with ``run --netlist``, so the netlist is listed as an output file too.  One
line is printed per output file, as ``job exit-code file sha256``; the
job's stdout and stderr are listed as the files ``<stdout>`` and
``<stderr>``, with ``OUT_DIR`` replaced by ``OUT`` so that two runs into
different directories compare equal.  A job that raises out of ``main`` is
listed with the exit code ``raised`` and its ``ExcType: message`` line at
the end of its ``<stderr>``, and the corpus goes on with the next job.
Running the script on two checkouts and diffing the listings checks that a
change keeps every output byte-identical.  ``hvsim`` is imported from the
``src`` directory next to this script.  The bytes hold for one BLAS kernel
and library build, so the listing's first line names the OpenBLAS kernel of
numpy and of scipy (``# blas kernels: ...``, from ``tools/blas_kernel.py``).

``--against REV`` does that comparison in one command.  It exports ``src/``
of the git revision ``REV`` (with ``git archive``) into ``WORK_DIR/parent``,
next to a copy of this script, and runs the job list on that tree and on the
working tree's ``src/`` (into ``WORK_DIR/parent/out`` and
``WORK_DIR/change/out``; the listings go to ``listing.txt`` beside them), as
two child processes side by side.  ``WORK_DIR`` must be new or empty.  It
prints each differing line, ``-`` for ``REV`` and ``+`` for the working
tree; for each CSV that differs, each column's largest ``|change - parent|``
over its largest ``|parent|``; the kernel line; and last ``N differing lines
of M``.  It exits 1 when a line differs.

``--check`` compares a run of the working tree's ``src/`` (into
``WORK_DIR/change``) with the committed listing, ``tools/corpus.sha256``,
and prints what ``--against`` prints.  A CSV that differs is made again
from ``HEAD``'s ``src/`` (into ``WORK_DIR/parent``, only the jobs that need
it) to give its column drift.  When this host's kernels are not the ones in
the listing's header, it says so first: the bytes may then differ with no
change to the code.  The listing is regenerated only by this script
(``python tools/sha_corpus.py OUT_DIR > tools/corpus.sha256``).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from blas_kernel import describe  # noqa: E402  (next to this script)
from hvsim.cli import main  # noqa: E402
from hvsim.netlist import print_scenario  # noqa: E402
from hvsim.presets import PRESET_NAMES, load_preset  # noqa: E402

MC_SEEDS = range(192)

#: the committed listing of the whole corpus, made by this script
LISTING = ROOT / "tools" / "corpus.sha256"

#: a hand-written netlist whose supply and load are X fragments, expanded at parse time
XFRAG = """\
# bench-fed stack into the actuator equivalent
Xsup A 0 bench v=1.8k
Sq1 A B ctrl=g roff=900M
Rb1 A B 3.6M
Sq2 B O ctrl=g roff=100M offset=50u
Rb2 B O 3.6M
Sq3 O C ctrl=g roff=900M inv=1
Rb3 O C 3.6M
Sq4 C 0 ctrl=g roff=100M inv=1 offset=50u
Rb4 C 0 3.6M
Xload O 0 dea
.ctrl g square f=100
.tran 1u 20m
.probe A
.probe O
.probe load_m
.end
"""

#: a hand-written netlist with a cold converter whose - node is new and reaches
#: ground through a resistor, a scope probe and the actuator load
XCONV = """\
# converter-fed stack, its return through 10 Ohm, into the actuator equivalent
Xsup A N converter pre=0 voc=2k
Rn N 0 10
Sq1 A B ctrl=g roff=900M
Rb1 A B 3.6M
Sq2 B O ctrl=g roff=100M offset=50u
Rb2 B O 3.6M
Sq3 O C ctrl=g roff=900M inv=1
Rb3 O C 3.6M
Sq4 C 0 ctrl=g roff=100M inv=1 offset=50u
Rb4 C 0 3.6M
Xp O 0 probe
Xload O 0 dea
.ctrl g square f=100
.tran 1u 20m
.probe A
.probe O
.probe N
.end
"""

#: a hand-written netlist whose only gated element is a source: a 200 us pulse
#: every 10 ms into an RC
GATED = """\
.ctrl g square f=100 duty=0.02
V1 A 0 10 ctrl=g
R1 A B 1k
C1 B 0 1u
.tran 100u 50m
.probe A
.probe B
.end
"""

#: a capacitor whose companion conductance 2C/h overflows at the run's step
HUGE_CAP = """\
V1 A 0 10
R1 A B 1k
C1 B 0 1e308
.tran 1u 1m
.probe B
.end
"""

#: two sources that hold one node at different voltages, with no capacitor
VCONFLICT = """\
V1 A 0 10
V2 A 0 5
R1 A 0 1k
.tran 1u 1m
.probe A
.end
"""


def jobs():
    """(job id, CLI argv without --out, netlist as (stem, text) or None)."""
    for name in PRESET_NAMES:
        yield f"run:{name}", ["run", "--preset", name], None
    for name in PRESET_NAMES:
        yield f"run:netlist:{name}", ["run"], (name, print_scenario(load_preset(name)))
    # a differential (pos, neg) probe next to the four node probes
    fig3 = print_scenario(load_preset("fig3")).replace(".end\n", ".probe A B\n.end\n")
    yield "run:netlist:fig3-pair", ["run"], ("fig3_pair", fig3)
    yield "run:netlist:xfrag", ["run"], ("xfrag", XFRAG)
    yield "run:netlist:xconv", ["run"], ("xconv", XCONV)
    yield "run:netlist:gated", ["run"], ("gated", GATED)
    # the one run job with a plot: a linear-axis SVG
    yield "run:fig5:plot", ["run", "--preset", "fig5", "--plot"], None
    # a capacitor-free run whose supply ramps over 40 steps: run-length rows per step
    yield "run:fig3:slow-slew", ["run", "--preset", "fig3",
                                 "--set", "comp.Vsup_emf.slew=2e5"], None
    # fig3 at a 20 Hz drive over 20 s: 3,196 switching events in one run
    yield "run:fig3:many-events", ["run", "--preset", "fig3", "--set", "ctrl.g.f=20",
                                   "--set", "tran.stop=20", "--set", "tran.step=1m"], None
    # a step too coarse for the fig8 displacement filter: exit 2, nothing written
    yield "run:fig8:coarse-step", ["run", "--preset", "fig8", "--set", "tran.step=1m"], None
    # an on-resistance whose conductance overflows: exit 2, one error line
    yield "run:fig3:overflow-ron", ["run", "--preset", "fig3",
                                    "--set", "comp.Sq1.ron=1e-320"], None
    # a capacitance whose companion conductance overflows: exit 2, one error line
    yield "run:netlist:huge-cap", ["run"], ("huge_cap", HUGE_CAP)
    # conflicting sources with no capacitor: exit 3 naming the singular source row
    yield "run:netlist:conflicting-sources", ["run"], ("vconflict", VCONFLICT)
    # a low-side turn-off slower than the high-side turn-on: a shoot-through warning
    yield "run:fig3:shoot-through", ["run", "--preset", "fig3",
                                     "--set", "comp.Sq4.toff=0.6m"], None
    # the same with driver events before t=0: the overlap counted there too
    yield "run:fig3:shoot-through-early", ["run", "--preset", "fig3",
                                           "--set", "comp.Sq2.offset=-1m",
                                           "--set", "comp.Sq4.toff=0.6m"], None
    for workers in (1, 2):
        yield f"sweep:fig7:w{workers}", ["sweep", "--preset", "fig7",
                                         "--workers", str(workers)], None
    yield "sweep:fig7:grid", ["sweep", "--preset", "fig7", "--freqs", "100,5000",
                              "--loads", "10n,dea", "--plot"], None
    yield "sweep:fig7c", ["sweep", "--preset", "fig7c"], None
    yield "sweep:fig7c:phases", ["sweep", "--preset", "fig7c", "--phases", "0,pi/4,2*pi/3"], None
    yield "sweep:fig8", ["sweep", "--preset", "fig8"], None
    yield "sweep:fig8:converter", ["sweep", "--preset", "fig8", "--freqs", "2,5000,15",
                                   "--supply", "converter", "--plot"], None
    for seed in MC_SEEDS:
        yield f"mc:fig3:{seed}", ["montecarlo", "--preset", "fig3", "--trials", "50",
                                  "--seed", str(seed)], None
    for name in ("fig2", "fig2_hv", "fig3_hv"):
        yield f"mc:{name}:w2", ["montecarlo", "--preset", name, "--workers", "2"], None
    # a name no preset, load or Monte-Carlo template has: exit 2, one error line
    yield "run:unknown-preset", ["run", "--preset", "nope"], None
    yield "sweep:fig7:unknown-load", ["sweep", "--preset", "fig7", "--loads", "5n"], None
    yield "mc:fig5:no-template", ["montecarlo", "--preset", "fig5"], None


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def listing_lines(out_root: Path, only=None):
    """Run the jobs (those in ``only``, or all) into ``out_root``; yield one
    listing line per output file."""
    out_root = out_root.resolve()
    for job, argv, netlist in jobs():
        if only is not None and job not in only:
            continue
        out = out_root / job.replace(":", "_")
        out.mkdir(parents=True, exist_ok=True)
        if netlist is not None:
            stem, body = netlist
            path = out / f"{stem}.ckt"
            path.write_text(body, encoding="utf-8")
            argv = argv + ["--netlist", str(path)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv + ["--out", str(out)])
            except Exception as exc:  # listed, and the corpus goes on
                code = "raised"
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        for label, stream in (("<stdout>", stdout), ("<stderr>", stderr)):
            text = stream.getvalue().replace(str(out_root), "OUT")
            yield f"{job} {code} {label} {_sha(text.encode('utf-8'))}"
        for path in sorted(out.iterdir()):
            yield f"{job} {code} {path.name} {_sha(path.read_bytes())}"


def run(out_root: Path, only=None) -> None:
    # the listing keeps the process's stdout; what native code (LAPACK's
    # error handler) writes to file descriptor 1 goes to stderr instead
    sys.stdout.flush()
    listing = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)
    print(f"# {describe()}", file=listing)
    for line in listing_lines(out_root, only):
        print(line, file=listing)
        listing.flush()


def _listing(path: Path) -> dict:
    """``(job, file) -> (exit code, sha256)`` of one listing; its ``#`` header
    line is skipped."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.startswith("#"):
            job, code, name, sha = line.split(" ")
            out[job, name] = (code, sha)
    return out


def listing_kernels(path: Path) -> str:
    """The kernel line of a listing's header, without its ``# ``."""
    return path.read_text(encoding="utf-8").partition("\n")[0].removeprefix("# ")


def _number(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def csv_drift(parent: Path, change: Path) -> list:
    """One line per differing column of two CSVs: its largest ``|change -
    parent|`` over its largest ``|parent|`` (``x/0`` for an all-zero parent
    column) when two numbers differ, and the count of differing cells that
    are not both numbers when there are any."""
    with open(parent, newline="") as fa, open(change, newline="") as fb:
        rows_a, rows_b = csv.reader(fa), csv.reader(fb)
        header = next(rows_a, [])
        if next(rows_b, []) != header:
            return ["the headers differ"]
        diff, scale, text = [0.0] * len(header), [0.0] * len(header), [0] * len(header)
        for row_a, row_b in itertools.zip_longest(rows_a, rows_b):
            if row_a is None or row_b is None or len(row_a) != len(row_b):
                return ["the row counts or lengths differ"]
            for j, (ca, cb) in enumerate(zip(row_a, row_b)):
                a = _number(ca)
                if a == a:
                    scale[j] = max(scale[j], abs(a))
                if ca != cb:
                    b = _number(cb)
                    if a == a and b == b:
                        diff[j] = max(diff[j], abs(b - a))
                    else:
                        text[j] += 1
    lines = []
    for name, d, s, t in zip(header, diff, scale, text):
        if d or t:
            parts = [(f"{d / s:.3g}" if s else f"{d:.3g}/0")] if d else []
            parts += [f"{t} non-numeric cells differ"] if t else []
            lines.append(f"{name}: " + ", ".join(parts))
    return lines


def _empty(work: Path) -> Path:
    work = work.resolve()
    if work.exists() and any(work.iterdir()):
        sys.exit(f"{work} is not empty")
    return work


def _export(rev: str, tree: Path) -> Path:
    """``src/`` of git revision ``rev`` under ``tree``, next to a copy of this
    script and its helper; returns the copied script."""
    tree.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    (tree / "tools").mkdir()
    for script in ("sha_corpus.py", "blas_kernel.py"):
        shutil.copy(Path(__file__).with_name(script), tree / "tools" / script)
    return tree / "tools" / "sha_corpus.py"


def _start(script: Path, tree: Path, only=()) -> subprocess.Popen:
    """A child process that runs the jobs ``only`` (or all) into ``tree/out``,
    its listing going to ``tree/listing.txt``."""
    tree.mkdir(parents=True, exist_ok=True)
    with open(tree / "listing.txt", "w") as listing:
        return subprocess.Popen([sys.executable, str(script), str(tree / "out"), *only],
                                stdout=listing)


def _wait(*procs: subprocess.Popen) -> None:
    if any([p.wait() for p in procs]):  # a list: wait for both
        sys.exit("a corpus run failed; see its stderr above")


def _report(old: dict, new: dict, parent: Path, change: Path) -> int:
    """Print each differing line and, for a CSV in both ``parent/out`` and
    ``change/out``, its :func:`csv_drift`; then the count.  Returns 1 when a
    line differs, else 0."""
    differing = 0
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) == new.get(key):
            continue
        differing += 1
        job, name = key
        for sign, side in (("-", old), ("+", new)):
            if key in side:
                print(sign, job, side[key][0], name, side[key][1])
        sub = job.replace(":", "_")
        if name.endswith(".csv") and (parent / "out" / sub / name).is_file() and key in new:
            for line in csv_drift(parent / "out" / sub / name, change / "out" / sub / name):
                print(f"    {line}")
    print(describe())
    print(f"{differing} differing lines of {len(new)}")
    return 1 if differing else 0


def against(rev: str, work: Path) -> int:
    """Run the job list on ``rev``'s ``src/`` and on the working tree's; print
    the differences.  Returns 1 when a line differs, else 0."""
    work = _empty(work)
    parent, change = work / "parent", work / "change"
    _wait(_start(_export(rev, parent), parent), _start(Path(__file__), change))
    return _report(_listing(parent / "listing.txt"), _listing(change / "listing.txt"),
                   parent, change)


def check(work: Path) -> int:
    """Run the job list on the working tree's ``src/`` and compare it with the
    committed listing.  Returns 1 when a line differs, else 0."""
    work = _empty(work)
    parent, change = work / "parent", work / "change"
    _wait(_start(Path(__file__), change))
    if listing_kernels(LISTING) != describe():
        print(f"the listing was made with {listing_kernels(LISTING)}; "
              "this host's kernels differ, and so may the bytes")
    old, new = _listing(LISTING), _listing(change / "listing.txt")
    redo = sorted({job for (job, name), entry in new.items()
                   if name.endswith(".csv") and (job, name) in old and old[job, name] != entry})
    if redo:
        _wait(_start(_export("HEAD", parent), parent, redo))
    return _report(old, new, parent, change)


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 3 and args[0] == "--against":
        sys.exit(against(args[1], Path(args[2])))
    if len(args) == 2 and args[0] == "--check":
        sys.exit(check(Path(args[1])))
    if not args or args[0].startswith("--"):
        sys.exit("usage: python tools/sha_corpus.py OUT_DIR [JOB ...]\n"
                 "       python tools/sha_corpus.py --against REV WORK_DIR\n"
                 "       python tools/sha_corpus.py --check WORK_DIR")
    run(Path(args[0]), set(args[1:]) or None)
