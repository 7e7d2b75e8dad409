"""Reproduction of *Delegating Network Security with More Information* (ident++).

The package is organised bottom-up:

* substrates — :mod:`repro.netsim` (discrete-event network simulator),
  :mod:`repro.openflow` (OpenFlow 1.0 abstraction), :mod:`repro.hosts`
  (end-host model), :mod:`repro.crypto` (signature substrate);
* the protocol and policy language — :mod:`repro.identpp` (the ident++
  query/response protocol and daemon) and :mod:`repro.pf` (the PF+=2
  policy language);
* the contribution — :mod:`repro.core` (the ident++ controller,
  delegation, interception, audit) with
  :class:`repro.core.network.IdentPPNetwork` as the one-stop scenario
  builder;
* comparisons and experiments — :mod:`repro.baselines`,
  :mod:`repro.security`, :mod:`repro.workloads`, :mod:`repro.analysis`.

Quickstart::

    from repro.core.network import HostSpec, IdentPPNetwork

    net = IdentPPNetwork("demo")
    sw = net.add_switch("sw1")
    net.add_host(HostSpec(name="client", ip="192.168.0.10",
                          users={"alice": ("users",)}), switch=sw)
    net.add_host(HostSpec(name="server", ip="192.168.1.1"), switch=sw)
    net.set_policy({"00-policy.control": "block all\\npass all with eq(@src[name], http) keep state\\n"})
    print(net.send_flow("client", "http", "alice", "192.168.1.1", 80))
"""
