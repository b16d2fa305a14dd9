"""sha256 of every output file of a fixed corpus of ``hvsim`` CLI jobs.

Usage::

    python tools/sha_corpus.py OUT_DIR > corpus.txt

Each job is one in-process ``hvsim.cli.main(argv)`` call writing into its own
subdirectory of ``OUT_DIR``.  A netlist job first writes its netlist into that
subdirectory and runs it with ``run --netlist``, so the netlist is listed as
an output file too.  One line is printed per output file, as
``job exit-code file sha256``; the job's stdout and stderr are listed as the
files ``<stdout>`` and ``<stderr>``, with ``OUT_DIR`` replaced by ``OUT`` so
that two runs into different directories compare equal.  Running the script
on two checkouts and diffing the listings checks that a change keeps every
output byte-identical.  ``hvsim`` is imported from the ``src`` directory next
to this script.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hvsim.cli import main  # noqa: E402
from hvsim.netlist import print_scenario  # noqa: E402
from hvsim.presets import PRESET_NAMES, load_preset  # noqa: E402

MC_SEEDS = range(192)

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
    # a low-side turn-off slower than the high-side turn-on: a shoot-through warning
    yield "run:fig3:shoot-through", ["run", "--preset", "fig3",
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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(out_root: Path) -> None:
    out_root = out_root.resolve()
    for job, argv, netlist in jobs():
        out = out_root / job.replace(":", "_")
        out.mkdir(parents=True, exist_ok=True)
        if netlist is not None:
            stem, body = netlist
            path = out / f"{stem}.ckt"
            path.write_text(body, encoding="utf-8")
            argv = argv + ["--netlist", str(path)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", str(out)])
        for label, stream in (("<stdout>", stdout), ("<stderr>", stderr)):
            text = stream.getvalue().replace(str(out_root), "OUT")
            print(job, code, label, _sha(text.encode("utf-8")))
        for path in sorted(out.iterdir()):
            print(job, code, path.name, _sha(path.read_bytes()))
        sys.stdout.flush()


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/sha_corpus.py OUT_DIR")
    run(Path(sys.argv[1]))
