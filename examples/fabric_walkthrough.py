"""Fabric walkthrough: path-wide enforcement on a spine-leaf data plane.

Builds a 2-spine / 4-leaf fabric, punts one flow through the full §3.4
pipeline, and shows what "install along the path" actually means on a
multi-hop network: one punt at the ingress leaf, forward + reverse
entries on *every* switch of the path, and — after one hop's idle
timeout fires — a FlowRemoved-driven unwind that tears the rest of the
path down as a unit.

Run with::

    python examples/fabric_walkthrough.py
"""

from repro import HostSpec, IdentPPNetwork


def print_flow_tables(net, title):
    print(f"\n-- flow tables: {title} --")
    for name in sorted(net.switches):
        switch = net.switches[name]
        if not len(switch.flow_table):
            print(f"  {name:<16} (empty)")
            continue
        for entry in switch.flow_table.entries():
            action = entry.actions[0].__class__.__name__ if entry.actions else "Drop"
            print(f"  {name:<16} {entry.match}  -> {action}  cookie={entry.cookie}")


def main() -> None:
    net = IdentPPNetwork("fabric-demo", policy_default_action="block")
    fabric = net.add_spine_leaf_fabric(spines=2, leaves=4, prefix="fab")
    print("fabric:", fabric.describe())

    net.add_host(
        HostSpec(name="client", ip="192.168.0.10", users={"alice": ("users", "staff")}),
        switch=fabric.leaves[0],
    )
    server = net.add_host(HostSpec(name="server", ip="192.168.1.1"), switch=fabric.leaves[3])
    server.run_server("httpd", "root", 80)

    net.set_policy({
        "00-policy.control": (
            "block all\n"
            "pass from any to any port 80 keep state\n"
        ),
    })

    print("\n== one approved flow across the fabric ==")
    result = net.send_flow("client", "http", "alice", "192.168.1.1", 80)
    print(f"verdict: {result.decision_action}   delivered: {result.delivered}")
    punts = {n: int(s.punts.value) for n, s in net.switches.items() if s.punts.value}
    print(f"punts (exactly one, at the ingress leaf): {punts}")
    path = net.topology.shortest_path(net.host("client"), server)
    print("path:", " -> ".join(node.name for node in path))
    print_flow_tables(net, "after path-wide install (3 hops x fwd+rev)")

    print("\n== idle timeout on ONE hop unwinds the whole path ==")
    sim = net.topology.sim
    sim.schedule_at(sim.now + net.controller.config.idle_timeout + 1.0, lambda: None)
    net.run()
    swept = fabric.leaves[0].sweep_expired(sim.now)
    print(f"ingress leaf swept {swept} expired entries -> FlowRemoved to controller")
    net.run()
    print(f"controller path unwinds: {net.controller.installer.unwinds}")
    print_flow_tables(net, "after FlowRemoved-driven unwind")

    print("\n== a denial burns exactly one table entry (drop at first hop) ==")
    result = net.send_flow("client", "telnet", "alice", "192.168.1.1", 23)
    print(f"verdict: {result.decision_action}   delivered: {result.delivered}")
    print_flow_tables(net, "after the denial")


if __name__ == "__main__":
    main()
