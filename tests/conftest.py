import os
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from hypothesis import settings

# Property tests draw the same examples on every run, and keep no example
# database between runs.
settings.register_profile("measurekit", derandomize=True, database=None, deadline=None)
settings.load_profile("measurekit")
