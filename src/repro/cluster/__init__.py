"""Sharded controller cluster: the scale-out control plane.

* :mod:`repro.cluster.shard_map` — consistent-hash ring assigning each
  flow 5-tuple (direction-independently) to a controller shard.
* :mod:`repro.cluster.cluster` — :class:`ControllerCluster`, fronting N
  ident++ controller replicas; switches hold one channel per replica
  and punt each flow to its owning shard; the replicas share one
  path-install registry, so multi-hop flow state installed "along the
  path", §3.4, still unwinds after a crash.
* :mod:`repro.cluster.failover` — heartbeat-driven failure detection,
  ring re-homing and re-punting of a dead shard's in-flight flows.
* :mod:`repro.cluster.coordinator` — cluster-wide propagation of policy
  reloads and delegation grants/revocations, with origin-shard audit.
"""
