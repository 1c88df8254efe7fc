"""Fresh-process probe for set-up time and peak memory.

    python child.py                 # import steertrace.cli, then exit
    python child.py simulate ...    # import, run one steertrace command, exit

The last stdout line is JSON: ``imported`` is time.monotonic() when the
import returned (the clock is system-wide, so the parent can subtract its
own spawn time), ``rc`` the command's exit code and ``maxrss_kb`` the
process's peak resident set from getrusage.
"""

import sys
import time

from steertrace.cli import main

imported = time.monotonic()

# imported after the clock is read, so they do not count as set-up
import json
import resource

rc = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(
    json.dumps(
        {
            "imported": imported,
            "rc": rc,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
    )
)
