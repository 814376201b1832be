"""Time leon's set-up in a fresh interpreter: imports, config parsing and
task construction, up to the point where the first run would start.

Usage, from the repository root: python3 perfbench/setup_probe.py CONFIG.json
Prints the seconds taken.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path.cwd() / "src"))

from leon import cli  # noqa: E402

cfg = cli.load_config(sys.argv[1])
task = cli.make_task({"name": cfg.task, "seed": cfg.task_seed})
print(repr(time.perf_counter() - t0))
