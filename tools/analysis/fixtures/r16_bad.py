"""R16 fixture (bad): a definition only its own body names; this docstring's orphan() is none."""

__all__ = ["Planted", "orphan"]


def orphan():
    """Calls itself: a use inside the definition does not count."""
    return orphan()


class Planted:
    def method(self):
        return self.helper()

    def helper(self):
        return "calls named_by_string()"

    def __len__(self):
        return 0


def named_by_string():
    pass


Planted().method()
