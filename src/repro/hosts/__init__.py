"""End-host substrate.

The ident++ daemon (§3.5 of the paper) answers queries by mapping the
queried 5-tuple to the local process and user "using techniques similar
to lsof", then reading per-application configuration.  This package
models the parts of an operating system needed for that to work:

* users and groups (:mod:`repro.hosts.users`),
* installed applications with executable hashes, versions and vendors
  (:mod:`repro.hosts.applications`),
* a process table (:mod:`repro.hosts.processes`),
* a socket table with lsof-style lookups (:mod:`repro.hosts.sockets`),
* the :class:`~repro.hosts.endhost.EndHost` simulator node that ties
  them together and lets applications open connections and listen on
  ports.
"""
