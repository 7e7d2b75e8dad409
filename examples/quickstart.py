"""Quickstart: an ident++-protected OpenFlow network in ~30 lines.

Builds a client, a server and one switch, loads a two-rule PF+=2 policy
("only approved applications may talk"), and sends two flows through the
full Figure 1 pipeline: switch punt → ident++ queries to both end-hosts →
policy decision → flow entries installed → packet delivered (or not).

Run with::

    python examples/quickstart.py
"""

from repro import HostSpec, IdentPPNetwork


def main() -> None:
    net = IdentPPNetwork("quickstart")
    switch = net.add_switch("sw1")

    net.add_host(
        HostSpec(name="client", ip="192.168.0.10", users={"alice": ("users", "staff")}),
        switch=switch,
    )
    server = net.add_host(HostSpec(name="server", ip="192.168.1.1"), switch=switch)
    server.run_server("httpd", "root", 80)

    # PF+=2 policy: default deny, then allow flows whose *source application*
    # (reported by the ident++ daemon, not guessed from port numbers) is
    # approved.  Port numbers never appear in the policy.
    net.set_policy({
        "00-policy.control": (
            'approved = "{ http ssh }"\n'
            "block all\n"
            "pass from any to any with member(@src[name], $approved) keep state\n"
        ),
    })

    print("== approved application (firefox/http) ==")
    result = net.send_flow("client", "http", "alice", "192.168.1.1", 80)
    print(f"verdict: {result.decision_action}   delivered: {result.delivered}")
    print(f"deciding rule: {result.decision_rule}")

    print("\n== unapproved application (telnet), same user, same hosts ==")
    result = net.send_flow("client", "telnet", "alice", "192.168.1.1", 80)
    print(f"verdict: {result.decision_action}   delivered: {result.delivered}")

    print("\n== controller audit log ==")
    for record in net.controller.audit:
        print(f"  {record.flow}  ->  {record.action:5s}  "
              f"(src app={record.src_keys.get('name')}, user={record.src_keys.get('userID')})")

    latency = net.controller.flow_setup_latency.mean
    print(f"\nflow-setup latency (mean): {latency * 1e3:.3f} ms")


if __name__ == "__main__":
    main()
