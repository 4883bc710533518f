"""Set-up probe: import xyness and warm up for one workload, then print "ready".

    python3 perfbench/setup_probe.py WORKLOAD OUT_PATH

``run.py`` starts this process and times it from start to the "ready" line;
the probe then exits.
"""

import sys

import workloads as wl


def main() -> None:
    name, out_path = sys.argv[1:]
    wl.warm_up(wl.import_cli(), wl.WORKLOADS[name], out_path)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
