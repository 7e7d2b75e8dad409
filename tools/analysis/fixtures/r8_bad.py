"""R8 fixture (bad): scans that bypass the socket and key indexes."""


def owner_of(table, port):
    # Walks every socket on the host, per query.
    for socket in table._sockets:
        if socket.local_port == port:
            return socket.process
    return None


def last_value(section, key):
    found = None
    for existing, value in section.pairs:
        if existing == key:
            found = value
    return found


def newest_first(document, key):
    return [
        value
        for section in document.sections
        for existing, value in reversed(section.pairs)
        if existing == key
    ]
