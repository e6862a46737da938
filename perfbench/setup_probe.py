"""Set-up probe: a fresh interpreter imports fairsample and parses configs.

    python3 perfbench/setup_probe.py SRC_DIR CONFIG.json [CONFIG.json ...]

The benchmark times this whole process to get ``setup_s``.
"""

import sys

sys.path.insert(0, sys.argv[1])

import fairsample  # noqa: E402

for path in sys.argv[2:]:
    fairsample.load_config(path)
