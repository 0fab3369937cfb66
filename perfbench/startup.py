"""One fresh start of the program: imports, config load and check, catalog.

Run as `python3 perfbench/startup.py ROOT`. Prints one JSON line with the
package import time and the config/catalog time once the first trial
could start; the parent times the whole start from spawn to that line.
"""

import json
import sys
import time


def main(root):
    start = time.perf_counter()
    sys.path.insert(0, f"{root}/src")
    from hetnet_tr import channel, config, harness  # noqa: F401
    imported = time.perf_counter()
    settings = config.load_config(f"{root}/configs/default.ini")
    settings.scenario.validate()
    for key in ("vehicular", "indoor_office", "outdoor_to_indoor"):
        channel.get_profile(key)
    ready = time.perf_counter()
    print(json.dumps({"import_s": imported - start,
                      "config_ms": (ready - imported) * 1e3}), flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
