"""Set-up probe: a fresh interpreter reaches the point of its first batch.

It imports driftmon, validates the workload's configs and materializes its
panel (generating it, or ingesting the CSV), then exits. run.py times the
whole process, interpreter start-up included.

    python3 bench/setup_probe.py '<spec JSON from a workload's prepare()>'
"""

import json
import sys

from run import use_checkout_src

if __name__ == "__main__":
    use_checkout_src()
    from tracing import NullTracer
    from workloads import WORKLOADS

    spec = json.loads(sys.argv[1])
    WORKLOADS[spec["workload"]].setup(spec, NullTracer())
