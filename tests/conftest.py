"""Settings shared by the test suite."""

import warnings

# When a property test fails, Hypothesis's pytest plugin writes the
# falsifying example as a patch with hypothesis.extra._patching, which
# imports libcst; that import warns DeprecationWarning (libcst subclasses
# mypy_extensions.TypedDict), and the suite's warning filters would turn
# it into an error inside pytest's report hook: the run would end with
# INTERNALERROR instead of the falsifying example.  Importing it here, with
# that warning ignored for this one import, leaves every filter in force.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
