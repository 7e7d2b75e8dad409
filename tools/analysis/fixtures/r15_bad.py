"""R15 fixture (bad): a control message only the tests send."""


class ControlMessage:
    pass


class PortStatsReply(messages.StatsRequest):  # a subclass declared before its base
    pass


class StatsRequest(ControlMessage):  # dispatched on and named, never built
    pass


class PacketIn(ControlMessage):
    pass


class Packet:
    pass


def handle(switch, channel, message):
    channel.send_to_controller(PacketIn(switch=switch, packet=Packet()))
    if isinstance(message, StatsRequest):
        return PortStatsReply(switch=switch)
    return None


handle(None, None, None)
