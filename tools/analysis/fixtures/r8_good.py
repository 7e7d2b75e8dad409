"""R8 fixture (good): identity lookups through the indexed accessors."""


def owner_of(table, flow):
    socket = table.lookup_flow(
        flow.src_ip, flow.dst_ip, flow.proto, flow.src_port, flow.dst_port
    )
    return socket.process if socket is not None else None


def listeners(table):
    # A full listing is a copy in insertion order, not the private store.
    return [socket for socket in table.sockets() if socket.is_listening]


def last_value(section, key):
    return section.get(key)


def newest(document, key):
    return document.latest(key)


def forward_configured(app_config, section):
    # Handing the pairs on (or building a section from them) scans nothing.
    section.pairs.append(("source", app_config.source))
    return dict(app_config.pairs)
