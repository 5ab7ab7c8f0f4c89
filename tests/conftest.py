"""Import the package before any test module imports numpy, so that the
tests run with the package's one-thread OpenBLAS pin, as the command line
does, whichever test module is collected first."""

import siegelvec  # noqa: F401
