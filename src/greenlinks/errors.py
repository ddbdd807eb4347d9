"""Exception types shared across the package.

Every error raised by the library derives from GreenLinksError so callers
can catch the whole family at once.  Configuration problems derive from
ScenarioError; the CLI maps those to exit code 2 and everything else that
escapes to exit code 3.
"""


class GreenLinksError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------- scenario


class ScenarioError(GreenLinksError):
    """A scenario/config is malformed or violates a structural rule."""


class DuplicateNodeId(ScenarioError):
    pass


class OverlappingPrefix(ScenarioError):
    pass


class DanglingLinkEndpoint(ScenarioError):
    pass


# ---------------------------------------------------------------- topology


class UnknownLink(GreenLinksError):
    pass


# ---------------------------------------------------------------- identity


class BackhaulDown(GreenLinksError):
    """The operation needs the backhaul and it is currently down."""


class DuplicateName(GreenLinksError):
    pass


class ExternalAllocFailed(GreenLinksError):
    pass


class EmptyRing(GreenLinksError):
    pass


class UnknownIdentity(GreenLinksError):
    pass


# ---------------------------------------------------------------- sync


class PayloadEmpty(GreenLinksError):
    pass


class SyncTimeout(GreenLinksError):
    """An immediate operation would exceed its response deadline."""


# ---------------------------------------------------------------- whitespace


class UnplannedChannel(GreenLinksError):
    """A report arrived for a channel that is neither planned nor serving."""


class NoFreeChannel(GreenLinksError):
    pass


# ---------------------------------------------------------------- apps


class InvalidListing(GreenLinksError):
    pass


class ListingNotFound(GreenLinksError):
    pass


class SoldOut(GreenLinksError):
    pass
