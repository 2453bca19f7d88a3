"""Suite-wide settings.

The whole suite runs the map kernel in checked mode: every product and
inverse, built by the trusted merge-only constructor, is rebuilt by the
validating ``Iet(...)`` constructor and must agree with it.  The mode is
read once, when ``ietlab.core`` is imported, so it is set here, before any
test module imports the package.
"""

import os

os.environ["IETLAB_CHECK"] = "1"
