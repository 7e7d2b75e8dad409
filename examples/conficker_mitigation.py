"""Figure 8: user/application-specific rules stopping a Conficker-style worm.

The policy admits the Windows ``Server`` service (TCP 445) only to
``system`` users inside the LAN, and only when the destination host
reports the MS08-067 patch in its ident++ response — information a
port-based firewall simply does not have.

Run with::

    python examples/conficker_mitigation.py
"""

from repro.analysis.report import format_table
from repro.baselines.vanilla_firewall import VanillaFirewall, enterprise_default_rules
from repro.identpp.flowspec import FlowSpec
from repro.workloads.scenarios import ConfickerScenario


def main() -> None:
    scenario = ConfickerScenario()
    rows = scenario.run()["rows"]
    print(format_table(rows, title="Figure 8 — Server-service access control (ident++)"))

    # What a port firewall would have done with the same probes: it cannot see
    # users or patch levels, so its best effort is an address/port rule.
    firewall = VanillaFirewall(enterprise_default_rules())
    firewall.allow(src="192.168.0.0/16", dst="192.168.1.0/24", proto="tcp", dst_port=445)
    comparison = []
    for case, row in zip(scenario.cases, rows):
        probe = FlowSpec.tcp(scenario.net.host(case.src_host).ip, case.dst_ip, 40000, case.dst_port)
        comparison.append({
            "case": case.label,
            "ident++": row["observed"],
            "port firewall": firewall.decide(probe),
        })
    print()
    print(format_table(comparison, title="Same probes under a port-based firewall"))
    print("\nThe port firewall must either open 445 to the whole LAN (above: infected LAN "
          "hosts reach unpatched servers) or close it for the administrators too.")


if __name__ == "__main__":
    main()
