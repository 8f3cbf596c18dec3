"""Property tests run the same examples on every run, and Hypothesis keeps
neither an example database nor its cache in the checkout."""

import os
import tempfile

from hypothesis import settings

os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "rkadapt-hypothesis"))
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
