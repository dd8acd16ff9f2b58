"""Convolution access-pattern exploration (Figs. 4 and 5c).

Shows the hierarchical rendering of the 4-D weight tensor, the flattened
access-count heatmap of a small convolution, related-access stacking, and
the cache-miss / physical-movement estimate on its tensors.

Run with::

    python examples/conv_locality.py [report.html]
"""

import sys

from repro.apps import conv
from repro.tool import Session


def main(argv: list[str]) -> None:
    output = argv[0] if argv else "conv_report.html"
    sizes = conv.FIG4_SIZES
    session = Session(conv.build_conv())
    lv = session.local_view(sizes, line_size=64, capacity_lines=8)

    # ---- Fig. 4b: flattened access counts ---------------------------------
    counts = lv.access_heatmap("inp")
    border = counts[(0, 0, 0)]
    interior = counts[(0, 4, 4)]
    print(f"input accesses: corner={border}, interior={interior} "
          f"(windows overlap {interior // border}x more in the interior)")

    # ---- Fig. 4c-style related accesses ------------------------------------
    related = lv.related([("out", (0, 0, 0))])
    related_inp = sorted(k[1] for k in related if k[0] == "inp")
    print(f"out[0,0,0] is computed from {len(related_inp)} input accesses, "
          f"e.g. {related_inp[:4]} ...")

    # ---- Fig. 5c: miss estimation on the tensors ----------------------------
    print(f"\n{'tensor':>8} {'cold':>6} {'capacity':>9} {'moved bytes':>12}")
    moved = lv.physical_movement()
    for name, counts_ in lv.miss_counts().items():
        print(f"{name:>8} {counts_.cold:>6} {counts_.capacity:>9} {moved[name]:>12}")

    # ---- report ---------------------------------------------------------------
    report = session.report("Convolution locality analysis")
    report.add_heading("Weight tensor (4-D hierarchical grid, Fig. 4a)")
    report.add_svg(
        lv.render_container("w", values=lv.access_heatmap("w")),
        caption="w[C_out, C_in, K_y, K_x] access counts",
    )
    report.add_heading("Input access distribution (Fig. 4b)")
    report.add_svg(
        lv.render_container("inp", values=counts),
        caption="3-channel 9x9 input, 4x4 kernel, no padding",
    )
    report.save(output)
    print(f"\nreport written to {output}")


if __name__ == "__main__":
    main(sys.argv[1:])
