"""Quickstart: analyze a small program end-to-end.

Builds the paper's running example (the outer product of Fig. 3), runs the
global data-movement analysis, opens the parameterized local view, moves
the loop sliders, estimates cache misses, and writes an HTML report.

Run with::

    python examples/quickstart.py [output.html]
"""

import sys

import numpy as np

import repro
from repro.sdfg.dtypes import float64
from repro.symbolic import symbols

M, N = symbols("M N")


@repro.program
def outer(A: float64[M], B: float64[N], C: float64[M, N]):
    for i, j in repro.pmap(M, N):
        C[i, j] = A[i] * B[j]


def main(output: str = "quickstart_report.html") -> None:
    # The program is executable: compile through the NumPy backend.
    a, b = np.arange(3.0), np.arange(4.0)
    c = np.zeros((3, 4))
    outer(a, b, c)
    assert np.allclose(c, np.outer(a, b))
    print("execution ok:", c.tolist())

    session = repro.Session(outer)

    # ---- Global view: symbolic metrics, evaluated on demand --------------
    gv = session.global_view()
    print("\nGlobal view")
    print("  symbolic movement:", gv.total_movement())
    for env in ({"M": 64, "N": 64}, {"M": 1024, "N": 64}):
        print(f"  movement at {env}: {gv.total_movement(env):,.0f} bytes")
    ranking = gv.rank_parameters({"M": 64, "N": 64})
    print("  parameter impact ranking:", ranking)

    # ---- Local view: parameterize small, inspect access behaviour --------
    lv = session.local_view({"M": 3, "N": 4}, line_size=64, capacity_lines=8)
    print("\nLocal view (M=3, N=4)")
    print("  access counts on A:", lv.access_heatmap("A"))
    sliders = lv.sliders()
    sliders.set("i", 1)
    sliders.set("j", 2)
    print("  slider highlights (i=1, j=2):", sliders.highlighted_elements())
    print("  elements sharing A[0]'s cache line:", lv.cache_line_neighbors("A", (0,)))
    for name, counts in lv.miss_counts().items():
        print(f"  {name}: {counts.cold} cold + {counts.capacity} capacity misses")

    # ---- Report ------------------------------------------------------------
    report = session.report("Quickstart: outer product")
    report.add_heading("Global view")
    report.add_svg(gv.render(env={"M": 16, "N": 16}, edge_overlay="movement"))
    report.add_heading("Local view")
    for name in lv.result.containers():
        report.add_svg(
            lv.render_container(name, values=lv.access_heatmap(name)),
            caption=f"access counts on {name}",
        )
    report.save(output)
    print(f"\nreport written to {output}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
