"""One set-up in a fresh interpreter: import the CLI, expand configs, build models.

Usage: python3 setup_probe.py SRC_DIR CONFIG...

Prints one JSON line {"import_s": ..., "expand_s": ...} when ready; the
caller times the whole process from its start to that line.
"""

import json
import sys
import time


def main(src, config_paths):
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import sheetcalc.cli  # noqa: F401
    from sheetcalc.config import expand_config, load_config
    from sheetcalc.models import model_from_config

    t1 = time.perf_counter()
    for path in config_paths:
        model_from_config(expand_config(load_config(path))["model"])
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "expand_s": t2 - t1}), flush=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
