"""§5: what an attacker gains by compromising each component, per architecture.

Prints the compromise-impact matrix comparing ident++ with a vanilla
port firewall, a distributed (end-host-enforced) firewall, an
Ethane-style controller and VLAN partitioning.

Run with::

    python examples/security_comparison.py
"""

from repro.analysis.report import format_table
from repro.workloads.comparative import SecurityComparisonScenario
from repro.workloads.paper import paper_e9_security_matrix


def main() -> None:
    print("Attack probes (all launched from the attacker's foothold on client c1):")
    for probe in SecurityComparisonScenario().probes:
        print(f"  - {probe.description}  ({probe.flow})")
    print()

    matrix = paper_e9_security_matrix()
    print(format_table(
        matrix["rows"],
        title="Post-compromise exposure: fraction of probes that succeed",
    ))
    print()
    print(format_table(
        matrix["gained_rows"],
        title="Probes gained by the attacker relative to its pre-compromise position",
    ))
    print(
        "\nReading the matrix the way §5 does: a compromised controller is total loss\n"
        "everywhere; a compromised switch does not affect end-host-enforced firewalls;\n"
        "under ident++ a compromised application is confined to that user's privileges,\n"
        "while a fully compromised end-host can lie to the controller — the price of\n"
        "trusting end-host information, and exactly the §5.3 caveat."
    )


if __name__ == "__main__":
    main()
