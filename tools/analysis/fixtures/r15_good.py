"""R15 fixture (good): every control message is built by a call."""


class ControlMessage:
    pass


class StatsRequest(ControlMessage):
    pass


class StatsReply(ControlMessage):
    pass


def poll(channel):
    channel.send_to_switch(StatsRequest())


def handle(message):
    if isinstance(message, StatsRequest):
        return StatsReply()
    return None


poll(None)
handle(None)
