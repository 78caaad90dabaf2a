"""Child process timed for `setup_s`: import hybridflow, load the run
config, load its network; prints the seconds that took.

    python3 bench/setup_probe.py SRC_DIR CONFIG_YAML
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hybridflow.cli  # noqa: E402,F401  (the whole package, as the CLI loads it)
from hybridflow.config import load_config  # noqa: E402

load_config(sys.argv[2]).load_network()
print(repr(time.perf_counter() - t0))
