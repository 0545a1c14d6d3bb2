"""Exception types shared across the package."""


class DomdistError(Exception):
    """Base class for all errors raised by this package."""


class GraphInputError(DomdistError):
    """Base class for errors raised while reading a graph from external input."""


class MalformedLine(GraphInputError):
    """A line of edge-list input could not be tokenized."""


class SelfLoop(GraphInputError):
    """An edge joins a vertex to itself."""


class VertexOutOfRange(GraphInputError):
    """A vertex label falls outside 0..n-1."""


class Disconnected(GraphInputError):
    """The input graph is not connected."""


class OrderTooSmall(GraphInputError):
    """The input graph has fewer than two vertices."""


class InvalidGraph6(GraphInputError):
    """A graph6 string has a bad header, length, or character."""


class TooLarge(DomdistError):
    """The graph exceeds the cap for exhaustive enumeration."""


class NotAGammaSet(DomdistError):
    """The supplied vertex set is not a minimum dominating set."""


class BadR(DomdistError):
    """The subset size r is not an int in 3..n."""


class UnknownBound(DomdistError):
    """An unrecognized bound name was requested."""
