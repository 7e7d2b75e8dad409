"""§4 "Network Collaboration": two branches over a bottleneck link.

Branch B's controller augments ident++ responses for flows headed its
way with what it is not willing to accept; branch A's policy then drops
those flows *before* they cross the WAN bottleneck.  The example prints
the bottleneck traffic and remote controller load with and without the
collaboration, as the share of unwanted flows grows.

Run with::

    python examples/branch_collaboration.py
"""

from repro.analysis.report import format_table
from repro.workloads.paper import paper_e7_collaboration


def main() -> None:
    rows = paper_e7_collaboration()["rows"]
    print(format_table(rows, title="Network collaboration across the branch bottleneck"))

    half = next(row for row in rows if row["unwanted_fraction"] == 0.5)
    print(f"\nCollaboration keeps the unwanted half of the traffic off the WAN link: "
          f"{half['bytes_saved_fraction']:.0%} of the bottleneck bytes saved, with wanted "
          "traffic untouched.")


if __name__ == "__main__":
    main()
