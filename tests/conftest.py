"""Session setup shared by every test module.

When a ``@given`` test fails, hypothesis imports
``hypothesis.extra._patching`` to write a patch with the failing
example.  That import pulls in libcst, which raises a DeprecationWarning;
under ``-W error`` the warning ends the whole session with an
INTERNALERROR instead of a report.  Importing the module here once, with
that warning ignored for this import only, keeps a failure a failure.
"""

import contextlib
import warnings

with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
