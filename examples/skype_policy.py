"""Figures 2 and 3: the Skype policy, end to end.

Loads the paper's three controller configuration files
(00-local-header / 50-skype / 99-local-footer) and the skype ``@app``
daemon configuration, then drives the full flow matrix through the
simulated OpenFlow network: approved apps pass, skype may talk to skype
but not to the protected server, old skype versions are blocked, and
everything else hits the default deny.

Run with::

    python examples/skype_policy.py
"""

from repro.analysis.report import format_table
from repro.workloads.paper import paper_e2_skype
from repro.workloads.paper_configs import figure2_control_files


def main() -> None:
    print("Controller configuration files (concatenated alphabetically):")
    for name in sorted(figure2_control_files()):
        print(f"  - {name}")
    print()

    rows = paper_e2_skype()["rows"]
    print(format_table(rows, title="Figure 2 / Figure 3 — Skype policy flow matrix"))
    correct = sum(row["correct"] for row in rows)
    print(f"\n{correct}/{len(rows)} cases behave as the paper describes.")


if __name__ == "__main__":
    main()
