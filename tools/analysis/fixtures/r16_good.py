"""R16 fixture (good): every definition is named outside its own body."""


class Planted:
    def method(self):
        return self.helper()

    def helper(self):
        return "calls named_by_string()"

    def __len__(self):  # a dunder is not judged
        return 0


def named_by_string():
    pass


Planted().method()
